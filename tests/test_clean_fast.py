"""The one clean-fast predicate: every batched fast body sits behind it.

``SpatialMachine.clean_fast`` is true only for a fast, non-strict machine
with no tracer, no profiler and no fault-injecting plan.  Each site that has
a vectorized body (``send_shifts``, ``send_many``, the quadrant pair,
``broadcast_1d`` and the all-pairs rank) must take it on a clean machine and
fall back to its reference loop when any single clause is turned off.
"""

import numpy as np
import pytest

from repro.core import collectives
from repro.core.sorting import allpairs
from repro.core.sorting.sortutil import as_sort_payload, with_tiebreak
from repro.machine import FaultPlan, Region, SpatialMachine
from repro.machine import machine as machine_mod

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


def _send_shifts(m):
    m.send_shifts(_row(m), [(1, 0), (0, 1)])


def _send_many(m):
    ta = _row(m)
    m.send_many([(ta, ta.rows + 1, ta.cols)])


def _quadrant_broadcast(m):
    m.quadrant_broadcast(_row(m), 2, 4)


def _quadrant_reduce(m):
    m.quadrant_reduce(m.place_rowmajor(np.arange(16.0), Region(0, 0, 4, 4)), 2, np.add)


def _broadcast_1d(m):
    value = m.place(np.array([1.0]), np.array([0]), np.array([0]))
    collectives.broadcast_1d(m, value, Region(0, 0, 1, 8))


def _allpairs_rank(m):
    ta = m.place_rowmajor(as_sort_payload(np.arange(4.0)[::-1]), Region(0, 0, 2, 2))
    ta, key_cols = with_tiebreak(ta, 1)
    allpairs.allpairs_rank(m, ta, key_cols)


#: site -> (owner of the fast body, its attribute name, a call exercising it)
SITES = {
    "send_shifts": (machine_mod.SpatialMachine, "_send_shifts_fast", _send_shifts),
    "send_many": (machine_mod.SpatialMachine, "_send_many_fast", _send_many),
    "quadrant_broadcast": (machine_mod, "quadrant_broadcast_fast", _quadrant_broadcast),
    "quadrant_reduce": (machine_mod, "quadrant_reduce_fast", _quadrant_reduce),
    "broadcast_1d": (collectives, "_broadcast_1d_fast", _broadcast_1d),
    "allpairs_rank": (allpairs, "_allpairs_rank_fast", _allpairs_rank),
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
