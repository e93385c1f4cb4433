"""Property-based tests of relayed chains (hypothesis).

``relay_many`` is its sequential loop of ``relay`` calls on every machine.
These cases pin that loop's own definition (carry links thread one chain's
end metadata into the next), its determinism under seeded fault plans (a
reference and a fast machine given identically seeded plans return the
same metadata, counters, cost tree and recovery accounting), its clean
totals, complete traces of relay resends, and ``relay_flat``, the flat
kernel the batched selection charges its chains through, against the
loop.  Hypothesis drives them over arbitrary chain batches, including the
degenerate shapes (no chains, empty chains, zero-length hops, carry links)
that the selection search emits in practice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import FaultPlan, MachineStats, ReferenceMachine, SpatialMachine
from repro.machine.fastpath import relay_flat

GRID = 32

coord = st.integers(min_value=0, max_value=GRID - 1)
meta0 = st.integers(min_value=0, max_value=12)


@st.composite
def chain(draw, max_stops=8):
    """One relay argument tuple; may be empty, may contain zero-length hops
    (repeated coordinates), may start on its own first stop."""
    src = (draw(coord), draw(coord))
    n = draw(st.integers(min_value=0, max_value=max_stops))
    rows = draw(st.lists(coord, min_size=n, max_size=n))
    cols = draw(st.lists(coord, min_size=n, max_size=n))
    if n and draw(st.booleans()):  # force at least one zero-length hop
        i = draw(st.integers(min_value=0, max_value=n - 1))
        rows[i], cols[i] = src
    return (
        src,
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        draw(meta0),
        draw(meta0),
    )


@st.composite
def chain_batches(draw, max_chains=6):
    n = draw(st.integers(min_value=0, max_value=max_chains))
    chains = [draw(chain()) for _ in range(n)]
    carry = draw(
        st.none() | st.lists(st.booleans(), min_size=n, max_size=n)
    )
    return chains, carry


def _machine_state(m):
    return (m.stats, m.cost_tree.as_dict(), m.recovery.as_dict())


def _run_pair(chains, carry, plan_seed=None, **plan_kw):
    """Run the same batch on a reference and a fast machine, each with its
    own plan seeded from ``plan_seed`` (no plan without one)."""
    mr = ReferenceMachine(
        faults=FaultPlan.seeded(plan_seed, **plan_kw) if plan_seed is not None else None
    )
    ref = mr.relay_many(chains, carry)
    mf = SpatialMachine(
        fast=True,
        strict=False,
        faults=FaultPlan.seeded(plan_seed, **plan_kw) if plan_seed is not None else None,
    )
    fast = mf.relay_many(chains, carry)
    return ref, fast, mr, mf


class TestRelayManyEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(chain_batches())
    def test_clean_matches_sequential_loop(self, batch):
        chains, carry = batch
        ref, fast, mr, mf = _run_pair(chains, carry)
        assert fast == ref
        assert _machine_state(mf) == _machine_state(mr)

    @settings(max_examples=60, deadline=None)
    @given(chain_batches(), st.integers(min_value=0, max_value=2**31))
    def test_faulty_matches_sequential_loop(self, batch, plan_seed):
        """Under drops + corruption the loop is deterministic: both machines
        draw from identically seeded plans, one draw per communicating
        chain in chain order, and end in the same state."""
        chains, carry = batch
        ref, fast, mr, mf = _run_pair(
            chains, carry, plan_seed=plan_seed, drop_prob=0.2, corrupt_prob=0.1
        )
        assert fast == ref
        assert _machine_state(mf) == _machine_state(mr)

    @settings(max_examples=40, deadline=None)
    @given(chain_batches(), st.integers(min_value=0, max_value=2**31))
    def test_dead_regions_match_sequential_loop(self, batch, plan_seed):
        from repro.machine import Region

        chains, carry = batch
        ref, fast, mr, mf = _run_pair(
            chains, carry, plan_seed=plan_seed, dead_regions=(Region(4, 4, 3, 3),)
        )
        assert fast == ref
        assert _machine_state(mf) == _machine_state(mr)

    @settings(max_examples=60, deadline=None)
    @given(chain_batches())
    def test_relay_many_equals_explicit_relay_calls(self, batch):
        """The definition itself: relay_many == [relay(*c) for c in chains]
        with carry threading, on the same machine."""
        chains, carry = batch
        m1 = SpatialMachine(fast=True, strict=False)
        got = m1.relay_many(chains, carry)
        m2 = SpatialMachine(fast=True, strict=False)
        expect = []
        prev = (0, 0)
        for i, (src, rows, cols, d0, s0) in enumerate(chains):
            if carry is not None and carry[i]:
                d0, s0 = prev
            prev = m2.relay(src, rows, cols, int(d0), int(s0))
            expect.append(prev)
        assert got == expect
        assert m1.stats == m2.stats


class TestRelayManyTotals:
    @settings(max_examples=60, deadline=None)
    @given(chain_batches(), st.randoms(use_true_random=False))
    def test_permutation_invariance_of_totals(self, batch, rnd):
        """Without carry links, chain order cannot affect the clean totals:
        energy/messages are sums, max_depth/max_distance are maxima."""
        chains, _ = batch
        perm = list(range(len(chains)))
        rnd.shuffle(perm)
        _, _, _, m1 = _run_pair(chains, None)
        _, _, _, m2 = _run_pair([chains[i] for i in perm], None)
        assert m1.stats == m2.stats

    @settings(max_examples=60, deadline=None)
    @given(chain_batches())
    def test_depth_counts_communicating_hops(self, batch):
        """Clean relay depth = depth0 + number of nonzero-length hops; the
        distance delta is the chain's wire length."""
        chains, _ = batch
        m = SpatialMachine(fast=True, strict=False)
        out = m.relay_many(chains, None)
        for (src, rows, cols, d0, s0), (depth, dist) in zip(chains, out):
            cr = np.concatenate([[src[0]], rows])
            cc = np.concatenate([[src[1]], cols])
            hops = np.abs(np.diff(cr)) + np.abs(np.diff(cc))
            assert depth == d0 + int((hops > 0).sum())
            assert dist == s0 + int(hops.sum())


class TestRelayEdgeCases:
    @pytest.mark.parametrize("mclass", (SpatialMachine, ReferenceMachine))
    def test_empty_stop_array_is_noop(self, mclass):
        m = mclass()
        before = m.stats.snapshot()
        got = m.relay((3, 4), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 5, 7)
        assert got == (5, 7)
        assert m.stats == before

    def test_empty_batch(self):
        m = SpatialMachine(fast=True, strict=False)
        assert m.relay_many([], None) == []
        assert m.relay_many([]) == []
        assert m.stats == m.stats.snapshot().__class__()

    def test_all_empty_chains(self):
        e = np.empty(0, dtype=np.int64)
        m = SpatialMachine(fast=True, strict=False)
        out = m.relay_many([((0, 0), e, e, 2, 3), ((1, 1), e, e, 0, 0)], [False, True])
        # second chain carries the first's pass-through metadata
        assert out == [(2, 3), (2, 3)]
        assert m.stats.energy == 0 and m.stats.messages == 0 and m.stats.rounds == 0

    def test_carry_length_mismatch_rejected(self):
        e = np.empty(0, dtype=np.int64)
        m = SpatialMachine()
        with pytest.raises(ValueError, match="carry"):
            m.relay_many([((0, 0), e, e, 0, 0)], [True, False])

    def test_zero_length_hops_are_free_but_chain_continues(self):
        m = SpatialMachine(fast=True, strict=False)
        rows = np.array([0, 0, 5], dtype=np.int64)
        cols = np.array([0, 0, 0], dtype=np.int64)
        depth, dist = m.relay((0, 0), rows, cols, 0, 0)
        assert depth == 1  # only the final hop communicates
        assert dist == 5
        assert m.stats.energy == 5
        assert m.stats.messages == 1


# ``relay_many`` runs its loop of ``relay`` calls on every machine, so the
# flat kernel the batched selection charges its chains through is pinned here
def _flatten(chains):
    """``relay_flat``'s arguments for ``chains`` (relay argument tuples)."""
    empty = np.zeros(0, dtype=np.int64)
    return (
        np.array([c[0][0] for c in chains], dtype=np.int64),
        np.array([c[0][1] for c in chains], dtype=np.int64),
        np.concatenate([empty, *(c[1] for c in chains)]),
        np.concatenate([empty, *(c[2] for c in chains)]),
        np.array([len(c[1]) for c in chains], dtype=np.int64),
        np.array([c[3] for c in chains], dtype=np.int64),
        np.array([c[4] for c in chains], dtype=np.int64),
    )


class TestRelayFlat:
    @settings(max_examples=80, deadline=None)
    @given(chain_batches())
    def test_matches_the_reference_relay_loop(self, batch):
        chains, carry = batch
        mr = ReferenceMachine(strict=False)
        ref = mr.relay_many(chains, carry)
        mf = SpatialMachine(fast=True, strict=False)
        end_d, end_s = relay_flat(
            mf, *_flatten(chains), None if carry is None else np.array(carry, dtype=bool)
        )
        assert list(zip(end_d.tolist(), end_s.tolist())) == ref
        assert mf.stats == mr.stats
        assert mf.cost_tree.as_dict() == mr.cost_tree.as_dict()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(strict=True),
            dict(trace=True),
            dict(profile=True),
            dict(faults=FaultPlan.seeded(0, drop_prob=0.05)),
        ],
        ids=["strict", "tracer", "profiler", "faults"],
    )
    def test_refuses_any_other_machine_before_charging(self, kw):
        rows = np.array([0, 3, 3], dtype=np.int64)
        cols = np.array([2, 2, 5], dtype=np.int64)
        m = SpatialMachine(**{"fast": True, "strict": False, **kw})
        with pytest.raises(ValueError, match="clean fast machines only"):
            relay_flat(m, *_flatten([((0, 0), rows, cols, 0, 0)]))
        assert m.stats == MachineStats()
        assert m.cost_tree.as_dict() == SpatialMachine().cost_tree.as_dict()


class TestRelayTraces:
    @pytest.mark.parametrize("mclass", (SpatialMachine, ReferenceMachine))
    def test_relay_resends_are_traced(self, mclass):
        """A traced relay under drops logs every attempt, as ``send`` does."""
        m = mclass(trace=True, strict=False, faults=FaultPlan.seeded(3, drop_prob=0.5))
        m.relay((0, 0), np.array([0, 2, 2, 5]), np.array([3, 3, 6, 6]))
        assert m.stats.messages > 4  # some hops failed and were resent
        assert m.tracer.total_messages() == m.stats.messages
        assert m.tracer.total_energy() == m.stats.energy

    @settings(max_examples=40, deadline=None)
    @given(chain_batches(), st.integers(min_value=0, max_value=2**31))
    def test_traces_match_counters_under_drops_and_corruption(self, batch, plan_seed):
        """Without dead regions (whose detour extras stay out of traces by
        design), a trace's totals equal the flat counters."""
        chains, carry = batch
        for mclass in (SpatialMachine, ReferenceMachine):
            plan = FaultPlan.seeded(plan_seed, drop_prob=0.3, corrupt_prob=0.1)
            m = mclass(trace=True, strict=False, faults=plan)
            m.relay_many(chains, carry)
            assert m.tracer.total_messages() == m.stats.messages
            assert m.tracer.total_energy() == m.stats.energy
