"""Fast-kernel parity: the batched bodies and closed forms against their
defining loops.

``send_many``'s segmented form, the quadrant broadcast and reduce, the
1D/2D broadcasts, ``broadcast_onto``, the bitonic network, the scan, the
reduce and the rounds of ``rank_select`` each have a body that a clean
fast machine runs and a reference body that every other machine runs;
the fast body must reproduce payloads, per-value metadata, and every
machine counter exactly.  ``send_many``'s list form has no fast body: it
is its loop of ``send`` calls on every machine, and its cases pin that
definition.  These tests drive the pairs directly at the
machine/collective layer — below the algorithm level the conformance grid
covers — so a divergence pinpoints the body at fault.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.statistics import median_absolute_deviation, quantile, top_k, trimmed_mean
from repro.core.collectives import (
    all_reduce,
    broadcast,
    broadcast_1d,
    broadcast_2d,
    broadcast_onto,
    reduce,
    reduce_2d,
)
from repro.core.selection import rank_select
from repro.core.sorting.quicksort2d import quicksort_2d
from repro.core.ops import ADD, MAX, Monoid
from repro.core.scan import scan, segmented_broadcast, segmented_scan
from repro.core.sorting.bitonic import bitonic_merge, bitonic_sort
from repro.machine import MachineStats, Region, ReferenceMachine, SpatialMachine, fastpath
from repro.machine import machine as machine_mod

# the package re-exports the scan function under the module's name
scan_mod = importlib.import_module("repro.core.scan")
bitonic_mod = importlib.import_module("repro.core.sorting.bitonic")

GRID = 16
coord = st.integers(min_value=0, max_value=GRID - 1)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def fast_machine() -> SpatialMachine:
    return SpatialMachine(fast=True, strict=False)


def assert_tracked_equal(a, b):
    assert a.payload.tobytes() == b.payload.tobytes()
    assert a.payload.shape == b.payload.shape and a.payload.dtype == b.payload.dtype
    np.testing.assert_array_equal(a.rows, b.rows)
    np.testing.assert_array_equal(a.cols, b.cols)
    np.testing.assert_array_equal(a.depth, b.depth)
    np.testing.assert_array_equal(a.dist, b.dist)


def assert_machines_equal(mr, mf):
    assert mr.stats == mf.stats
    assert mr.cost_tree.as_dict() == mf.cost_tree.as_dict()
    assert mr.recovery.as_dict() == mf.recovery.as_dict()


# ---------------------------------------------------------------------------
# send_many
# ---------------------------------------------------------------------------
@st.composite
def send_batches(draw, max_batches=4, max_len=12):
    k = draw(st.integers(min_value=0, max_value=max_batches))
    out = []
    for _ in range(k):
        n = draw(st.integers(min_value=0, max_value=max_len))
        out.append((
            np.array(draw(st.lists(coord, min_size=n, max_size=n))),
            np.array(draw(st.lists(coord, min_size=n, max_size=n))),
            np.array(draw(st.lists(coord, min_size=n, max_size=n))),
            np.array(draw(st.lists(coord, min_size=n, max_size=n))),
        ))
    return out


class TestSendManyParity:
    @settings(max_examples=60, deadline=None)
    @given(send_batches())
    def test_matches_sequential_sends(self, batches):
        def run(m):
            placed = [
                (m.place(np.arange(float(len(r0))), r0, c0), r1, c1)
                for r0, c0, r1, c1 in batches
            ]
            return m.send_many(placed)

        mr, mf = ReferenceMachine(), fast_machine()
        ref, fast = run(mr), run(mf)
        assert len(ref) == len(fast)
        for a, b in zip(ref, fast):
            assert_tracked_equal(a, b)
        assert_machines_equal(mr, mf)

    @settings(max_examples=60, deadline=None)
    @given(send_batches())
    def test_flat_layout_matches_sequential_sends(self, batches):
        """The segmented form: one flat layout, one send per segment."""
        sizes = [len(b[0]) for b in batches]
        starts = np.cumsum([0] + sizes[:-1]).astype(np.int64)
        r0, c0, r1, c1 = (
            np.concatenate([b[i] for b in batches] + [np.zeros(0, dtype=np.int64)])
            for i in range(4)
        )

        def run(m):
            ta = m.place(np.arange(float(len(r0))), r0, c0)
            return m.send_many((ta, r1, c1), starts=starts)

        mr, mf = ReferenceMachine(), fast_machine()
        ref, fast = run(mr), run(mf)
        assert_tracked_equal(ref, fast)
        assert_machines_equal(mr, mf)

    def test_each_batch_is_its_own_round(self):
        m = fast_machine()
        tas = [
            (m.place(np.ones(2), [0, 1], [0, 0]), np.array([0, 1]), np.array([3, 3]))
            for _ in range(3)
        ]
        m.send_many(tas)
        assert m.stats.rounds == 3


# ---------------------------------------------------------------------------
# quadrant broadcast / reduce
# ---------------------------------------------------------------------------
class TestQuadrantBroadcastParity:
    @settings(max_examples=40, deadline=None)
    @given(
        side=st.sampled_from([2, 4, 8]),
        scale=st.sampled_from([1, 2]),
        n=st.integers(min_value=1, max_value=6),
        seed=seeds,
    )
    def test_matches_doubling_loop(self, side, scale, n, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, GRID, n)
        cols = rng.integers(0, GRID, n)
        payload = rng.random((n, 2))
        d0 = rng.integers(0, 6, n)
        s0 = rng.integers(0, 6, n)

        def run(m):
            ta = m.place(payload, rows, cols)
            ta.depth[:] = d0
            ta.dist[:] = s0
            return m.quadrant_broadcast(ta, side, scale)

        mr, mf = ReferenceMachine(), fast_machine()
        ref, fast = run(mr), run(mf)
        assert_tracked_equal(ref, fast)
        assert_machines_equal(mr, mf)

    def test_side_one_is_identity(self):
        m = fast_machine()
        ta = m.place(np.ones(3), [0, 1, 2], [0, 0, 0])
        assert m.quadrant_broadcast(ta, 1) is ta
        assert m.stats.energy == 0


class TestQuadrantReduceParity:
    @settings(max_examples=40, deadline=None)
    @given(
        side=st.sampled_from([2, 4, 8]),
        seed=seeds,
        op=st.sampled_from([ADD, MAX]),
    )
    def test_reduce_2d_matches_level_loop(self, side, seed, op):
        """reduce_2d drives quadrant_reduce with the real Z-order layout."""
        region = Region(0, 0, side, side)
        x = np.random.default_rng(seed).random(side * side)

        def run(m):
            return reduce_2d(m, m.place_rowmajor(x, region), region, op)

        mr, mf = ReferenceMachine(), fast_machine()
        ref, fast = run(mr), run(mf)
        assert_tracked_equal(ref, fast)
        assert_machines_equal(mr, mf)

    @settings(max_examples=25, deadline=None)
    @given(
        side=st.sampled_from([2, 4]),
        nblocks=st.integers(min_value=1, max_value=3),
        seed=seeds,
    )
    def test_multi_block_reduce(self, side, nblocks, seed):
        """Several contiguous Z-ordered blocks reduced in one call — the
        layout quadrant_reduce documents (blocks contiguous, block-local
        Z-order within each)."""
        from repro.machine.machine import concat_tracked

        rng = np.random.default_rng(seed)
        xs = [rng.random(side * side) for _ in range(nblocks)]

        def run(m):
            blocks = [
                m.place_zorder(x, Region(0, b * side, side, side))
                for b, x in enumerate(xs)
            ]
            return m.quadrant_reduce(concat_tracked(blocks), side, np.maximum)

        mr, mf = ReferenceMachine(), fast_machine()
        ref, fast = run(mr), run(mf)
        assert_tracked_equal(ref, fast)
        assert_machines_equal(mr, mf)


# ---------------------------------------------------------------------------
# 1D / 2D broadcast collectives
# ---------------------------------------------------------------------------
class TestBroadcastParity:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4, 7, 8, 16]),
        vertical=st.booleans(),
        width=st.integers(min_value=1, max_value=3),
        seed=seeds,
    )
    def test_broadcast_1d(self, n, vertical, width, seed):
        region = Region(0, 0, n, 1) if vertical else Region(0, 0, 1, n)
        payload = np.random.default_rng(seed).random((1, width))

        def run(m):
            v = m.place(payload, [region.row], [region.col])
            return broadcast_1d(m, v, region)

        mr, mf = ReferenceMachine(), fast_machine()
        ref, fast = run(mr), run(mf)
        assert_tracked_equal(ref, fast)
        assert_machines_equal(mr, mf)

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([4, 8]), vertical=st.booleans())
    def test_broadcast_1d_off_root_value(self, n, vertical):
        """A value not at the region root must take the reference tree (the
        closed-form tables measure hops from the root) — regression for the
        guard that used to skip this check."""
        region = Region(0, 0, n, 1) if vertical else Region(0, 0, 1, n)

        def run(m):
            v = m.place(np.array([5.0]), [3], [5])
            return broadcast_1d(m, v, region)

        mr, mf = ReferenceMachine(), fast_machine()
        ref, fast = run(mr), run(mf)
        assert_tracked_equal(ref, fast)
        assert_machines_equal(mr, mf)

    @settings(max_examples=25, deadline=None)
    @given(side=st.sampled_from([2, 4, 8]), seed=seeds)
    def test_broadcast_2d(self, side, seed):
        region = Region(0, 0, side, side)
        payload = np.random.default_rng(seed).random(1)

        def run(m):
            v = m.place(payload, [0], [0])
            return broadcast_2d(m, v, region)

        mr, mf = ReferenceMachine(), fast_machine()
        ref, fast = run(mr), run(mf)
        assert_tracked_equal(ref, fast)
        assert_machines_equal(mr, mf)


    @pytest.mark.parametrize(
        "h, w",
        [(s, s) for s in (1, 2, 4, 8, 16, 32, 64)]
        + [(s, 2 * s) for s in (1, 2, 4, 8, 16, 32, 64)]
        + [(2 * s, s) for s in (1, 2, 4, 8, 16, 32, 64)]
        + [(1, 8), (8, 1), (4, 16), (16, 4)],
    )
    def test_broadcast_closed_form(self, h, w):
        """The per-shape closed form that ``broadcast`` charges on a clean
        machine (and the merge tree's plans read) against the reference
        composition of 1D and quadrant broadcasts."""
        region = Region(3, 5, h, w)

        def run(m):
            # a root value with nonzero metadata, moved onto the corner
            v = m.send(m.place(np.array([[7.0, 2.0]]), [0], [0]), [3], [5])
            return broadcast(m, v, region)

        mr, mf = ReferenceMachine(), fast_machine()
        ref, fast = run(mr), run(mf)
        assert_tracked_equal(ref, fast)
        assert_machines_equal(mr, mf)


# ---------------------------------------------------------------------------
# per-shape closed forms: bitonic network, scan, square reduce
# ---------------------------------------------------------------------------
def _shapes(max_wires):
    """Squares, 2:1 and 1:2 rectangles, and both lines, up to ``max_wires``."""
    out = []
    for k in range(max_wires.bit_length()):
        s = 1 << (k // 2)
        out += [(s, s)] if k % 2 == 0 else [(s, 2 * s), (2 * s, s)]
        out += [line for line in ((1, 1 << k), (1 << k, 1)) if line not in out]
    return out


def _sort_input(kind, n, rng):
    """``(payload, key_cols)`` for one bitonic input kind."""
    if kind == "uniform":
        return rng.random((n, 1)), 1
    if kind == "duplicated":
        return rng.integers(0, 3, (n, 1)).astype(np.float64), 1
    if kind == "signed_zero":
        return rng.choice([0.0, -0.0, 1.0, -1.0], (n, 1)), 1
    if kind == "nan":
        x = rng.random((n, 1))
        x[rng.random(n) < 0.2] = np.nan
        return x, 1
    if kind == "inf_pad":
        # selection's sample sort: (value, uid) rows padded with +inf rows
        x = np.stack([rng.random(n), np.arange(n, dtype=np.float64)], axis=1)
        x[n - n // 4 :] = np.inf
        return x, 2
    if kind == "integer":
        return rng.integers(-3, 3, (n, 2)), 1
    # satellite columns travel with tied keys
    return np.concatenate([rng.integers(0, 2, (n, 1)), rng.random((n, 2))], axis=1), 1


SORT_KINDS = ("uniform", "duplicated", "signed_zero", "nan", "inf_pad", "integer", "satellite")
BITONIC_SHAPES = _shapes(1024)


def _reference(strict_ok=True):
    """The oracle; strict mode (``REPRO_STRICT``) refuses NaN placements."""
    return ReferenceMachine() if strict_ok else ReferenceMachine(strict=False)


def _skewed(ta, rng):
    """Give ``ta`` non-uniform input metadata (in place)."""
    ta.depth[:] = rng.integers(0, 6, len(ta))
    ta.dist[:] = rng.integers(0, 20, len(ta))
    return ta


class TestBitonicClosedForm:
    """The per-shape network against the stage-by-stage oracle."""

    @staticmethod
    def _check(h, w, kind, run, variants):
        n = h * w
        region = Region(2, 3, h, w)
        for seed, (descending, tiebreak, skew) in enumerate(variants):
            rng = np.random.default_rng([n, seed, SORT_KINDS.index(kind)])
            payload, key_cols = _sort_input(kind, n, rng)
            meta_seed = int(rng.integers(2**31))

            def go(m):
                ta = m.place_rowmajor(payload, region)
                if skew:
                    _skewed(ta, np.random.default_rng(meta_seed))
                return run(m, ta, region, key_cols, descending, tiebreak)

            mr, mf = _reference(kind != "nan"), fast_machine()
            assert_tracked_equal(go(mr), go(mf))
            assert_machines_equal(mr, mf)

    @staticmethod
    def _variants(n):
        combos = [(d, t, k) for d in (False, True) for t in (True, False) for k in (False, True)]
        # every option at up to 64 wires; two complementary combos beyond
        return combos if n <= 64 else [combos[0], combos[-1]]

    @pytest.mark.parametrize("kind", SORT_KINDS)
    @pytest.mark.parametrize("h, w", BITONIC_SHAPES)
    def test_sort(self, h, w, kind):
        def run(m, ta, region, key_cols, descending, tiebreak):
            return bitonic_sort(m, ta, region, key_cols, descending, tiebreak)

        self._check(h, w, kind, run, self._variants(h * w))

    @pytest.mark.parametrize("kind", ("uniform", "duplicated", "nan", "satellite"))
    @pytest.mark.parametrize("h, w", BITONIC_SHAPES)
    def test_merge(self, h, w, kind):
        """Bitonic inputs (sorted up, then down) and arbitrary ones: a merge
        of a non-bitonic input is not a sort, and must still match."""

        def run(m, ta, region, key_cols, descending, bitonic_input):
            if bitonic_input:
                half = len(ta) // 2
                order = np.lexsort(ta.payload[:, :key_cols].T[::-1])
                up_down = np.concatenate([order[:half], order[half:][::-1]])
                ta = ta.with_payload(ta.payload[up_down])
            return bitonic_merge(m, ta, region, key_cols, descending)

        self._check(h, w, kind, run, self._variants(h * w))

    @pytest.mark.parametrize("merge", (False, True), ids=("sort", "merge"))
    @pytest.mark.parametrize("h, w", BITONIC_SHAPES)
    def test_uniform_metadata(self, h, w, merge):
        """Every wire carrying the same non-zero metadata."""
        n = h * w
        region = Region(2, 3, h, w)
        payload = np.random.default_rng(n).random((n, 1))

        def go(m):
            ta = m.place_rowmajor(payload, region)
            ta.depth[:], ta.dist[:] = 3, 17
            return (bitonic_merge if merge else bitonic_sort)(m, ta, region)

        mr, mf = _reference(), fast_machine()
        assert_tracked_equal(go(mr), go(mf))
        assert_machines_equal(mr, mf)

    @pytest.mark.parametrize("n", [1 << k for k in range(13)])
    def test_stride_passes_are_the_stage_loop(self, n):
        """``_date``'s one pass per stride equals the stages taken one at a
        time, on every width, over the sort's and the merge's stages."""
        rng = np.random.default_rng(n)
        metas = (
            np.zeros((2, n), dtype=np.int64),
            rng.integers(0, 20, (2, n)),
            (1 << 40) + rng.integers(0, 1 << 20, (2, n)),
        )
        for w in (1 << k for k in range(n.bit_length())):
            table = bitonic_mod._network_table(n, w)
            for passes, first in (
                (table.sort_passes, 0),
                (table.merge_passes, table.merge_start),
            ):
                for meta in metas:
                    expect = meta.copy()
                    for partner in table.partner[first:]:
                        j = int(partner[0])  # wire 0's partner is the stride
                        hop = j if j < w else j // w
                        expect = np.maximum(expect, expect[:, partner] + [[1], [hop]])
                    got = bitonic_mod._date(meta.copy(), passes)
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(got, expect)

    def test_layout_is_checked_before_any_charge(self):
        """A Z-ordered input is refused on every machine."""
        region = Region(0, 0, 4, 4)
        for m in (ReferenceMachine(), fast_machine()):
            ta = m.place_zorder(np.arange(16.0)[:, None], region)
            with pytest.raises(ValueError, match="entry 2 sits at"):
                bitonic_sort(m, ta, region)
            with pytest.raises(ValueError, match="row-major"):
                bitonic_merge(m, ta, region)
            assert m.stats.energy == 0


def _first_op(a, b):
    return a


def _refuse(*args, **kwargs):
    raise AssertionError("the uniform input ran the level loop")


FIRST = Monoid("first", _first_op, np.nan, commutative=False)
SCAN_SIDES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class TestScanClosedForm:
    """The per-side up/down-sweep plan against the send-per-slot oracle."""

    @pytest.mark.parametrize("phases", (True, False))
    @pytest.mark.parametrize("op", ("add", "max", "segmented", "first"))
    @pytest.mark.parametrize("side", SCAN_SIDES)
    def test_scan(self, side, op, phases):
        n = side * side
        rng = np.random.default_rng([side, len(op)])
        x = rng.standard_normal(n)
        flags = rng.random(n) < 0.1
        meta_seed = int(rng.integers(2**31))
        region = Region(1, 2, side, side)

        def run(m):
            ta = _skewed(m.place_zorder(x, region), np.random.default_rng(meta_seed))
            if op == "segmented":
                res = segmented_scan(m, flags, ta, region, ADD)
            elif op == "first":
                return [segmented_broadcast(m, flags, ta, region)]
            else:
                res = scan(m, ta, region, ADD if op == "add" else MAX)
            return [res.inclusive, res.exclusive, res.total]

        mr = ReferenceMachine(phases=phases)
        mf = SpatialMachine(fast=True, strict=False, phases=phases)
        for a, b in zip(run(mr), run(mf)):
            assert_tracked_equal(a, b)
        assert_machines_equal(mr, mf)

    def test_plain_first_monoid(self):
        """A monoid that returns its operand itself (no copy)."""
        region = Region(0, 0, 8, 8)
        x = np.random.default_rng(5).random((64, 2))

        def run(m):
            res = scan(m, m.place_zorder(x, region), region, FIRST)
            return [res.inclusive, res.exclusive, res.total]

        mr, mf = ReferenceMachine(), fast_machine()
        for a, b in zip(run(mr), run(mf)):
            assert_tracked_equal(a, b)
        assert_machines_equal(mr, mf)

    @pytest.mark.parametrize("meta", ((0, 0), (3, 17)), ids=("zero", "uniform"))
    @pytest.mark.parametrize("op", ("add", "segmented", "first"))
    @pytest.mark.parametrize("side", SCAN_SIDES)
    def test_uniform_input(self, side, op, meta):
        """A freshly placed input (zero metadata) and one carrying the same
        non-zero metadata everywhere take the uniform sweep tables."""
        n = side * side
        rng = np.random.default_rng([side, len(op), 1])
        x = rng.standard_normal(n)
        flags = rng.random(n) < 0.1
        region = Region(1, 2, side, side)

        def run(m):
            ta = m.place_zorder(x, region)
            ta.depth[:], ta.dist[:] = meta
            if op == "first":
                return [segmented_broadcast(m, flags, ta, region)]
            res = segmented_scan(m, flags, ta, region) if op == "segmented" else scan(m, ta, region)
            return [res.inclusive, res.exclusive, res.total]

        mr, mf = ReferenceMachine(), fast_machine()
        for a, b in zip(run(mr), run(mf)):
            assert_tracked_equal(a, b)
        assert_machines_equal(mr, mf)

    @pytest.mark.parametrize("n", [4**k for k in range(9)])
    def test_uniform_sweep_is_the_level_loop(self, monkeypatch, n):
        """Uniform metadata reads ``_sweep_meta`` from the tables, and the
        tables give the level loop's root and prefixes exactly."""
        plan = scan_mod._scan_plan(n)
        loop = scan_mod._sweep_levels
        scan_mod._uniform_tables(plan)  # built by the loop, before the guard
        monkeypatch.setattr(scan_mod, "_sweep_levels", _refuse)
        for c in ((0, 0), (3, 17), (100, 5)):
            meta = np.empty((2, n), dtype=np.int64)
            meta[:] = np.array(c)[:, None]
            got, expect = scan_mod._sweep_meta(plan, meta), loop(plan, meta)
            for a, b in zip(got, expect):
                assert a.dtype == b.dtype and a.shape == b.shape
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("field", (0, 1), ids=("depth", "dist"))
    def test_one_entry_off_takes_the_level_loop(self, monkeypatch, field):
        n = 256
        plan = scan_mod._scan_plan(n)
        loop = scan_mod._sweep_levels
        scan_mod._uniform_tables(plan)
        calls = []

        def spy(plan, meta):
            calls.append(1)
            return loop(plan, meta)

        monkeypatch.setattr(scan_mod, "_sweep_levels", spy)
        for i in (0, 1, n // 2, n - 1):
            meta = np.full((2, n), 7, dtype=np.int64)
            meta[field, i] += 1
            got, expect = scan_mod._sweep_meta(plan, meta), loop(plan, meta)
            for a, b in zip(got, expect):
                np.testing.assert_array_equal(a, b)
        assert len(calls) == 4

    @pytest.mark.parametrize("entry", ("scan", "segmented_scan", "segmented_broadcast"))
    def test_layout_is_checked_before_any_charge(self, entry):
        """A row-major input is refused on every machine."""
        region = Region(0, 0, 4, 4)
        flags = np.zeros(16, dtype=bool)
        for m in (ReferenceMachine(), fast_machine()):
            ta = m.place_rowmajor(np.arange(16.0), region)
            with pytest.raises(ValueError, match="entry 2 sits at"):
                if entry == "scan":
                    scan(m, ta, region)
                elif entry == "segmented_scan":
                    segmented_scan(m, flags, ta, region)
                else:
                    segmented_broadcast(m, flags, ta, region)
            assert m.stats.energy == 0


REDUCE_REGIONS = (
    [("zorder", s, s) for s in (1, 2, 4, 8, 16, 32, 64)]
    + [("rowmajor", s, s) for s in (1, 2, 4, 8, 16, 32, 64)]
    + [("rowmajor", 4 * s, s) for s in (1, 2, 4, 8)]
    + [("rowmajor", s, 4 * s) for s in (1, 2, 4, 8)]
    + [("rowmajor", 16, 1), ("rowmajor", 1, 16)]
)


class TestReduceClosedForm:
    """``reduce`` and ``all_reduce`` (Z-ordered squares skip the reorder)."""

    @pytest.mark.parametrize("fn", (reduce, all_reduce), ids=("reduce", "all_reduce"))
    @pytest.mark.parametrize("op", (ADD, MAX), ids=("add", "max"))
    @pytest.mark.parametrize("layout, h, w", REDUCE_REGIONS)
    def test_reduce(self, layout, h, w, op, fn):
        rng = np.random.default_rng([h, w])
        x = rng.standard_normal((h * w, 2))
        meta_seed = int(rng.integers(2**31))
        region = Region(3, 1, h, w)

        def run(m):
            place = m.place_zorder if layout == "zorder" else m.place_rowmajor
            ta = _skewed(place(x, region), np.random.default_rng(meta_seed))
            return fn(m, ta, region, op)

        mr, mf = ReferenceMachine(), fast_machine()
        assert_tracked_equal(run(mr), run(mf))
        assert_machines_equal(mr, mf)

    @pytest.mark.parametrize("side", (1, 2, 4, 8, 16, 32, 64))
    def test_zorder_skip_is_the_reorder_path(self, side):
        """Z-ordered entries are already in the order ``reduce_2d`` sorts
        them into, so skipping the reorder changes nothing on the oracle."""
        rng = np.random.default_rng(side)
        x = rng.standard_normal((side * side, 2))
        meta_seed = int(rng.integers(2**31))
        region = Region(3, 1, side, side)

        def run(m, skip):
            ta = _skewed(m.place_zorder(x, region), np.random.default_rng(meta_seed))
            if skip:
                return reduce(m, ta, region, ADD)
            with m.phase("reduce"):
                return reduce_2d(m, ta, region, ADD)

        ms, mo = ReferenceMachine(), ReferenceMachine()
        assert_tracked_equal(run(ms, skip=True), run(mo, skip=False))
        assert_machines_equal(ms, mo)


# ---------------------------------------------------------------------------
# broadcast_onto: a broadcast as a control gate, and every caller of it
# ---------------------------------------------------------------------------
ONTO_REGIONS = (
    [(s, s) for s in (1, 2, 4, 8, 16, 32, 64)]
    + [(s, 2 * s) for s in (1, 2, 4, 8, 16, 32)]
    + [(2 * s, s) for s in (1, 2, 4, 8, 16, 32)]
    + [(1, 8), (8, 1), (4, 16), (16, 4)]
)
#: (h, w, target layout); Z-order covers squares and 2:1 rectangles only
ONTO_CASES = [
    (h, w, layout)
    for h, w in ONTO_REGIONS
    for layout in ("zorder", "rowmajor", "subset")
    if layout != "zorder" or max(h, w) <= 2 * min(h, w)
]


def _onto_target(m, layout, region, seed):
    """Entries on ``region`` in ``layout`` order with skewed metadata."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((region.size, 2))
    if layout == "zorder":
        ta = m.place_zorder(x, region)
    else:
        ta = m.place_rowmajor(x, region)
        if layout == "subset":
            keep = np.flatnonzero(rng.random(region.size) < 0.4)
            ta = ta[rng.permutation(keep)]
    return _skewed(ta, rng)


class TestBroadcastOnto:
    """``broadcast_onto`` against the reference's broadcast + gather."""

    @pytest.mark.parametrize("h, w, layout", ONTO_CASES)
    def test_matches_reference(self, h, w, layout):
        region = Region(3, 5, h, w)

        def run(m):
            ta = _onto_target(m, layout, region, [h, w])
            # a root value with nonzero metadata, moved onto the corner
            v = m.send(m.place(np.array([[7.0, 2.0]]), [0], [0]), [3], [5])
            with m.phase("gate"):
                return broadcast_onto(m, v, region, ta)

        mr, mf = ReferenceMachine(), fast_machine()
        assert_tracked_equal(run(mr), run(mf))
        assert_machines_equal(mr, mf)

    def test_returns_the_target_gated_by_its_own_cell(self):
        """On the reference, each entry takes the max with the broadcast
        copy at its own cell; the payload and coordinates are the target's."""
        region = Region(0, 0, 4, 8)
        m = ReferenceMachine()
        ta = _onto_target(m, "subset", region, 5)
        v = m.place(np.array([1.0]), [0], [0])
        copies = broadcast(ReferenceMachine(), v, region)
        out = broadcast_onto(m, v, region, ta)
        cells = region.rowmajor_index(ta.rows, ta.cols)
        assert out.payload is ta.payload
        np.testing.assert_array_equal(out.rows, ta.rows)
        np.testing.assert_array_equal(out.depth, np.maximum(ta.depth, copies.depth[cells]))
        np.testing.assert_array_equal(out.dist, np.maximum(ta.dist, copies.dist[cells]))

    def test_input_checks_match_broadcast(self):
        for m in (ReferenceMachine(), fast_machine()):
            ta = m.place_rowmajor(np.arange(12.0), Region(0, 0, 3, 4))
            two = m.place(np.array([1.0, 2.0]), [0, 0], [0, 1])
            with pytest.raises(ValueError, match="power-of-two sides"):
                broadcast_onto(m, two[:1], Region(0, 0, 3, 4), ta)
            with pytest.raises(ValueError, match="single root value"):
                broadcast_onto(m, two, Region(0, 0, 4, 4), ta[:4])
            assert m.stats.energy == 0

    @pytest.mark.parametrize("stray", [(1, 2), (1, 8), (-1, 5), (4, 5)])
    def test_refuses_entries_outside_the_region(self, stray):
        """An entry outside the region has no copy at its cell: one left of
        the region would take the row-major copy of the row above."""
        region = Region(0, 4, 4, 4)
        rows, cols = region.rowmajor_coords()
        rows, cols = np.insert(rows, 5, stray[0]), np.insert(cols, 5, stray[1])
        for m in (ReferenceMachine(), fast_machine()):
            ta = m.place(np.arange(17.0), rows, cols)
            v = m.place(np.array([1.0]), [0], [4])
            where = rf"entry 5 sits outside it at \({stray[0]}, {stray[1]}\)"
            with pytest.raises(ValueError, match=where):
                broadcast_onto(m, v, region, ta)
            assert m.stats == MachineStats()


def _same_run(run):
    """Run ``run(machine)`` on the reference and a clean fast machine; the
    results and every counter must agree."""
    mr, mf = ReferenceMachine(), fast_machine()
    ref, fast = run(mr), run(mf)
    assert_machines_equal(mr, mf)
    return ref, fast


class TestBroadcastOntoCallers:
    """Every site that gates elements on a broadcast, fast vs reference."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("k", ("first", "middle", "last"))
    @pytest.mark.parametrize("n", (16, 64, 256, 1024, 4096, 16384))
    def test_rank_select(self, n, k, seed):
        x = np.random.default_rng([n, seed]).standard_normal(n)
        rank = {"first": 1, "middle": n // 2, "last": n}[k]
        side = int(np.sqrt(n))
        region = Region(0, 0, side, side)

        def run(m):
            ta = m.place_zorder(x, region)
            return rank_select(m, ta, region, rank, np.random.default_rng(seed))

        ref, fast = _same_run(run)
        assert ref == fast
        assert fast.value == np.sort(x)[rank - 1]

    @pytest.mark.parametrize("seed", (0, 1))
    def test_statistics(self, seed):
        x = np.random.default_rng(seed).standard_normal(1024)
        region = Region(0, 0, 32, 32)

        def run(m):
            rng = np.random.default_rng(seed)
            out = []
            for stat in (
                lambda ta: quantile(m, ta, region, 0.9, rng),
                lambda ta: trimmed_mean(m, ta, region, 0.1, rng),
                lambda ta: median_absolute_deviation(m, ta, region, rng),
                lambda ta: top_k(m, ta, region, 20, rng).tobytes(),
            ):
                out.append(stat(m.place_zorder(x, region)))
            return out

        ref, fast = _same_run(run)
        assert ref == fast

    @pytest.mark.parametrize("side", (8, 16, 32))
    def test_quicksort2d(self, side):
        x = np.random.default_rng(side).standard_normal(side * side)
        region = Region(0, 0, side, side)
        ref, fast = _same_run(lambda m: quicksort_2d(m, x, region, np.random.default_rng(3)))
        assert_tracked_equal(ref, fast)
        np.testing.assert_array_equal(fast.payload, np.sort(x))


def _selection_input(m, x, region, moved):
    """``x`` in Z-order on ``region``; ``moved`` places it row-major one row
    lower first and sends each entry to its Z-order cell, so the input
    metadata is nonzero and varies."""
    target = m.place_zorder(x, region)
    if not moved:
        return target
    below = Region(region.row + 1, region.col, region.height, region.width)
    return m.send(m.place_rowmajor(x, below), target.rows, target.cols)


class TestClosedFormSelection:
    """``rank_select``'s closed-form rounds against the copies body: the
    result, the stats and the cost tree must agree exactly."""

    @staticmethod
    def _check(x, rank, seed, c=3.0, moved=False):
        side = int(np.sqrt(len(x)))
        region = Region(2, 3, side, side)

        def run(m):
            ta = _selection_input(m, x, region, moved)
            return rank_select(m, ta, region, rank, np.random.default_rng(seed), c=c)

        ref, fast = _same_run(run)
        assert ref == fast
        assert fast.value == np.sort(x)[rank - 1]
        return fast

    @pytest.mark.parametrize("moved", (False, True), ids=("placed", "sent"))
    @pytest.mark.parametrize("keys", ("normal", "duplicates"))
    @pytest.mark.parametrize("n", (1, 4, 16, 64, 256, 1024))
    def test_matches_reference(self, n, keys, moved):
        rng = np.random.default_rng([n, len(keys)])
        x = rng.standard_normal(n) if keys == "normal" else rng.integers(0, 3, n) * 1.0
        # below c = 1 a round runs even at n = 1
        for c in (3.0, 1.5) if n > 16 else (3.0, 1.5, 0.5):
            for rank in sorted({1, n // 3 + 1, n // 2 or 1, n}):
                self._check(x, rank, seed=rank, c=c, moved=moved)

    def test_fallback_matches_reference(self):
        x = np.random.default_rng([256, 1]).standard_normal(256)
        assert self._check(x, 100, seed=1, c=1.0).fell_back

    def test_runs_no_scan_or_reduce_kernel(self, monkeypatch):
        """A clean fast selection's rounds read their scan and reduce
        figures from tables: the fast kernels of both may not run."""

        def refuse(*args, **kwargs):
            raise AssertionError("a closed-form round ran a per-element kernel")

        monkeypatch.setattr(scan_mod, "_scan_fast", refuse)
        monkeypatch.setattr(machine_mod, "quadrant_reduce_fast", refuse)
        monkeypatch.setattr(fastpath, "quadrant_reduce_fast", refuse)
        x = np.random.default_rng(0).standard_normal(1024)
        region = Region(0, 0, 32, 32)
        m = fast_machine()
        res = rank_select(m, m.place_zorder(x, region), region, 512, np.random.default_rng(1))
        assert res.value == np.sort(x)[511]
        assert res.iterations >= 1 and not res.fell_back

    @pytest.mark.parametrize(
        "region, message",
        (
            (Region(0, 0, 4, 4), r"Z-order cell of .*: entry 2 sits at \(0, 2\), not \(1, 0\)"),
            (Region(0, 0, 2, 8), "scan needs a square region"),
            (Region(0, 0, 4, 8), "scan input size must be a power of 4, got 32"),
        ),
        ids=("rowmajor", "non-square", "non-power-of-4"),
    )
    def test_layout_errors_match_reference(self, region, message):
        for m in (ReferenceMachine(), fast_machine()):
            ta = m.place_rowmajor(np.arange(region.size, dtype=float), region)
            with pytest.raises(ValueError, match=message):
                rank_select(m, ta, region, 3, np.random.default_rng(0))
            assert m.stats == MachineStats()


# ---------------------------------------------------------------------------
# guard dispatch: impure machines must take the reference path
# ---------------------------------------------------------------------------
class TestGuardDispatch:
    @pytest.mark.parametrize(
        "kwargs",
        (
            {"strict": True},
            {"trace": True},
            {"profile": True},
        ),
        ids=("strict", "tracer", "profiler"),
    )
    def test_instrumented_machines_match_reference_counters(self, kwargs):
        side = 4
        region = Region(0, 0, side, side)
        x = np.random.default_rng(1).random(side * side)
        mi = SpatialMachine(fast=True, **kwargs)
        reduce_2d(mi, mi.place_rowmajor(x, region), region, ADD)
        mr = ReferenceMachine()
        reduce_2d(mr, mr.place_rowmajor(x, region), region, ADD)
        assert mi.stats == mr.stats
