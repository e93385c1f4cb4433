"""The one clean-fast predicate: every batched fast body sits behind it.

``SpatialMachine.clean_fast`` is true only for a fast, non-strict machine
with no tracer, no profiler and no fault-injecting plan.  Each site that has
a vectorized body (``send_many``, the quadrant pair, ``broadcast_1d``,
``broadcast``, ``broadcast_onto``, the all-pairs rank, the
level-synchronous merge tree: mergesort levels, merge levels and batched
selection, the per-shape closed forms of the bitonic network and the scan,
and the closed-form rounds of rank selection) must take it on a clean
machine and fall back to its reference loop or depth-first body when any
single clause is turned off.  The public batched entry points have no
reference loop and refuse such machines.
"""

import importlib

import numpy as np
import pytest

from repro.core import collectives, selection
from repro.core.selection import rank_select
from repro.core.sorting import allpairs, bitonic, merge2d, mergesort2d, two_sorted_select
from repro.core.sorting.sortutil import as_sort_payload, with_tiebreak
from repro.machine import FaultPlan, Region, SpatialMachine
from repro.machine import machine as machine_mod
from repro.machine.machine import concat_tracked

# the package re-exports the scan function under the module's name
scan_mod = importlib.import_module("repro.core.scan")

#: one machine per clause turned off (the rest stay clean)
CLAUSES = {
    "reference": dict(fast=False),
    "strict": dict(strict=True),
    "tracer": dict(trace=True),
    "profiler": dict(profile=True),
    "faults": dict(faults=FaultPlan.seeded(0, drop_prob=0.05)),
}


def _row(m):
    return m.place_rowmajor(np.arange(4.0), Region(0, 0, 1, 4))


def _send_many(m):
    ta = _row(m)
    m.send_many((ta, ta.rows + 1, ta.cols), starts=np.array([0]))


def _quadrant_broadcast(m):
    # a square broadcast: the closed form on a clean machine, else the
    # machine's quadrant doubling loop
    value = m.place(np.array([1.0]), np.array([0]), np.array([0]))
    collectives.broadcast(m, value, Region(0, 0, 4, 4))


def _quadrant_reduce(m):
    m.quadrant_reduce(m.place_rowmajor(np.arange(16.0), Region(0, 0, 4, 4)), 2, np.add)


def _broadcast_1d(m):
    value = m.place(np.array([1.0]), np.array([0]), np.array([0]))
    collectives.broadcast_1d(m, value, Region(0, 0, 1, 8))


def _broadcast(m):
    value = m.place(np.array([1.0]), np.array([0]), np.array([0]))
    collectives.broadcast(m, value, Region(0, 0, 4, 8))


def _broadcast_onto(m):
    value = m.place(np.array([1.0]), np.array([0]), np.array([0]))
    region = Region(0, 0, 4, 8)
    collectives.broadcast_onto(m, value, region, m.place_rowmajor(np.arange(32.0), region))


def _allpairs_rank(m):
    ta = m.place_rowmajor(as_sort_payload(np.arange(4.0)[::-1]), Region(0, 0, 2, 2))
    ta, key_cols = with_tiebreak(ta, 1)
    allpairs.allpairs_rank(m, ta, key_cols)


def _sorted_halves(m):
    """Two sorted 16-element runs on the halves of a 4 x 8 region."""
    rows, cols = Region(0, 0, 4, 8).rowmajor_coords()
    keys = np.concatenate([np.arange(0.0, 32.0, 2.0), np.arange(1.0, 33.0, 2.0)])
    ta = m.place(as_sort_payload(keys), rows, cols)
    return ta[:16], ta[16:]


def _mergesort_levels(m):
    region = Region(0, 0, 8, 8)
    ta = m.place_rowmajor(as_sort_payload(np.arange(64.0)[::-1]), region)
    mergesort2d.mergesort_2d(m, ta, region, base_case=4)


def _merge_levels(m):
    A, B = _sorted_halves(m)
    merge2d.merge_sorted_2d(m, A, B, Region(0, 0, 4, 8), base_case=4)


def _batched_selection(m):
    A, B = _sorted_halves(m)
    two_sorted_select.select_ranks_two_sorted(m, A, B, [8, 16, 24])


def _bitonic_network(m):
    region = Region(0, 0, 2, 4)
    ta = m.place_rowmajor(as_sort_payload(np.arange(8.0)[::-1]), region)
    bitonic.bitonic_sort(m, ta, region)


def _scan(m):
    region = Region(0, 0, 4, 4)
    scan_mod.scan(m, m.place_zorder(np.arange(16.0), region), region)


def _selection_rounds(m):
    region = Region(0, 0, 4, 4)
    rank_select(m, m.place_zorder(np.arange(16.0), region), region, 5, np.random.default_rng(0))


#: site -> (owner of the fast body, its attribute name, a call exercising it)
SITES = {
    "send_many": (machine_mod.SpatialMachine, "_send_segments_fast", _send_many),
    "quadrant_broadcast": (collectives, "_charge_broadcasts", _quadrant_broadcast),
    "quadrant_reduce": (machine_mod, "quadrant_reduce_fast", _quadrant_reduce),
    "broadcast_1d": (collectives, "_charge_broadcasts", _broadcast_1d),
    "broadcast": (collectives, "_charge_broadcasts", _broadcast),
    "broadcast_onto": (collectives, "_charge_broadcasts", _broadcast_onto),
    "allpairs_rank": (allpairs, "_rank_segments", _allpairs_rank),
    "mergesort_levels": (mergesort2d, "_sort_levels", _mergesort_levels),
    "merge_levels": (merge2d, "_merge_level", _merge_levels),
    "batched_selection": (
        two_sorted_select,
        "select_ranks_two_sorted_many",
        _batched_selection,
    ),
    "bitonic_network": (bitonic, "_network_fast", _bitonic_network),
    "scan": (scan_mod, "_scan_fast", _scan),
    "selection_rounds": (selection, "_ClosedForm", _selection_rounds),
}


def _fast_calls(monkeypatch, site, **machine_kw) -> int:
    owner, attr, call = SITES[site]
    body = getattr(owner, attr)
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return body(*args, **kwargs)

    monkeypatch.setattr(owner, attr, spy)
    call(SpatialMachine(**machine_kw))
    return len(calls)


def test_clean_machine_satisfies_the_predicate():
    assert SpatialMachine(fast=True, strict=False).clean_fast
    assert SpatialMachine(fast=True, strict=False, faults=FaultPlan.seeded(0)).clean_fast
    for kw in CLAUSES.values():
        assert not SpatialMachine(**{"fast": True, "strict": False, **kw}).clean_fast


@pytest.mark.parametrize("site", sorted(SITES))
def test_clean_machine_takes_the_fast_body(monkeypatch, site):
    assert _fast_calls(monkeypatch, site, fast=True, strict=False) >= 1


@pytest.mark.parametrize("clause", sorted(CLAUSES))
@pytest.mark.parametrize("site", sorted(SITES))
def test_any_clause_off_takes_the_reference_loop(monkeypatch, site, clause):
    kw = {"fast": True, "strict": False, **CLAUSES[clause]}
    assert _fast_calls(monkeypatch, site, **kw) == 0


def _sort_many(m):
    ta = m.place_rowmajor(as_sort_payload(np.arange(4.0)[::-1]), Region(0, 0, 2, 2))
    zero = np.zeros(1, dtype=np.int64)
    allpairs.allpairs_sort_many(m, ta, np.array([4]), 1, zero, zero, np.array([2]), zero, zero)


def _select_many(m):
    A, B = _sorted_halves(m)
    zero = np.zeros(1, dtype=np.int64)
    two_sorted_select.select_ranks_two_sorted_many(
        m, A, np.array([16]), B, np.array([16]), np.array([[8, 16, 24]]), 1, zero, zero
    )


def _sort_ranked(m):
    ta = m.place_rowmajor(as_sort_payload(np.arange(4.0)[::-1]), Region(0, 0, 2, 2))
    zero = np.zeros(1, dtype=np.int64)
    ranks = np.arange(4)[::-1].copy()
    allpairs.allpairs_sort_ranked(
        m, ta, np.array([4]), ranks, zero, zero, np.array([2]), zero, zero
    )


def _merge_many(m):
    A, B = _sorted_halves(m)
    merge2d.merge_sorted_2d_many(
        m, concat_tracked([A, B]), np.array([16]), np.array([16]), np.array([[0, 0, 4, 8]])
    )


def _broadcast_many(m):
    zero = np.zeros(1, dtype=np.int64)
    collectives.broadcast_many(m, 4, 8, zero, zero)


#: public batched entry points, which charge closed forms only
BATCHED = {
    "allpairs_sort_many": _sort_many,
    "allpairs_sort_ranked": _sort_ranked,
    "select_ranks_two_sorted_many": _select_many,
    "merge_sorted_2d_many": _merge_many,
    "broadcast_many": _broadcast_many,
}


@pytest.mark.parametrize("entry", sorted(BATCHED))
def test_batched_entry_point_runs_on_a_clean_machine(entry):
    m = SpatialMachine(fast=True, strict=False)
    BATCHED[entry](m)
    assert m.stats.energy > 0


@pytest.mark.parametrize("clause", sorted(CLAUSES))
@pytest.mark.parametrize("entry", sorted(BATCHED))
def test_batched_entry_point_refuses_other_machines(entry, clause):
    m = SpatialMachine(**{"fast": True, "strict": False, **CLAUSES[clause]})
    with pytest.raises(ValueError, match="clean fast machines only"):
        BATCHED[entry](m)
    assert m.stats.energy == 0


def test_clean_selection_builds_no_broadcast_copies(monkeypatch):
    """A clean-fast selection gates its elements on the pivot and count
    broadcasts through their closed form and materializes no copies."""
    copies = []
    body = collectives._corner_copies

    def spy(*args):
        copies.append(1)
        return body(*args)

    monkeypatch.setattr(collectives, "_corner_copies", spy)
    region = Region(0, 0, 32, 32)
    x = np.random.default_rng(0).standard_normal(1024)
    m = SpatialMachine(fast=True, strict=False)
    res = rank_select(m, m.place_zorder(x, region), region, 512, np.random.default_rng(1))
    assert res.value == np.sort(x)[511]
    assert res.iterations >= 1 and not res.fell_back
    assert copies == []
