"""The witness search against the per-message dictionary search it replaced.

:meth:`SpatialProfiler._search_witness` finds each hop's predecessor by
binary search in two sorted orders of every recorded hop.  The search rule
is the one the dictionary search below implements: the latest eligible hop
strictly before, by cell first, then by value with the hop flagged
``relinked``, starting from the first frame and message that reach the
target.  Every non-graph registry entry must give hop-for-hop equal
witnesses, flags included.
"""

import dataclasses

import numpy as np
import pytest

from repro import workloads
from repro.machine import SpatialMachine
from repro.machine.profiler import Witness, WitnessHop
from repro.runner.chaos import run_entry

GRAPH_ENTRIES = {"graph", "bfs", "pagerank"}
ENTRIES = [name for name in workloads.names() if name not in GRAPH_ENTRIES]
#: entries whose witnesses relink at side 8 (n = 64)
RELINKING = {"mergesort", "merge2d", "quicksort", "spmv"}


def dict_witness(prof, metric: str) -> Witness:
    """The dictionary search: two ``setdefault`` calls per recorded hop."""
    frames = prof.frames
    if not frames:
        return Witness(metric=metric, target=0)

    def vals(f):
        return f.depth_after if metric == "depth" else f.dist_after

    def incs(f):
        return f.attempts if metric == "depth" else f.wire * f.attempts

    by_val_cell: dict = {}
    by_val: dict = {}
    target = 0
    start = None
    for fi, f in enumerate(frames):
        v = vals(f)
        for mi in range(len(f)):
            key = (int(v[mi]), int(f.dst_rows[mi]), int(f.dst_cols[mi]))
            by_val_cell.setdefault(key, []).append((fi, mi))
            by_val.setdefault(int(v[mi]), []).append((fi, mi))
        fmax = int(v.max())
        if fmax > target:
            target = fmax
            start = (fi, int(np.argmax(v)))

    def find_pred(candidates, fi, mi):
        for cfi, cmi in reversed(candidates or []):
            if cfi < fi or (cfi == fi and cmi < mi):
                return (cfi, cmi)
        return None

    wit = Witness(metric=metric, target=target)
    if start is None:
        return wit
    fi, mi = start
    chain = []
    while True:
        f = frames[fi]
        hop = WitnessHop(
            src=(int(f.src_rows[mi]), int(f.src_cols[mi])),
            dst=(int(f.dst_rows[mi]), int(f.dst_cols[mi])),
            wire=int(f.wire[mi]),
            attempts=int(f.attempts[mi]),
            depth_after=int(f.depth_after[mi]),
            dist_after=int(f.dist_after[mi]),
            phase=f.phase,
            kind=f.kind,
            round=f.round,
            tick=f.tick,
        )
        chain.append(hop)
        remaining = int(vals(f)[mi]) - int(incs(f)[mi])
        if remaining <= 0:
            break
        nxt = find_pred(by_val_cell.get((remaining, *hop.src)), fi, mi)
        if nxt is None:
            nxt = find_pred(by_val.get(remaining), fi, mi)
            if nxt is None:
                wit.complete = False
                break
            chain[-1] = dataclasses.replace(hop, relinked=True)
            wit.contiguous = False
        fi, mi = nxt
    wit.hops = list(reversed(chain))
    return wit


def _profiled(name: str, seed: int = 0) -> SpatialMachine:
    m = SpatialMachine(profile=True)
    run_entry(workloads.lookup(name), m, 8, seed)
    return m


@pytest.mark.parametrize("name", ENTRIES)
def test_matches_the_dictionary_search(name):
    prof = _profiled(name).profiler
    for metric in ("depth", "distance"):
        got = prof.depth_witness() if metric == "depth" else prof.distance_witness()
        want = dict_witness(prof, metric)
        assert got.hops == want.hops, metric
        assert (got.target, got.complete, got.contiguous) == (
            want.target, want.complete, want.contiguous
        ), metric
    if name in RELINKING:
        assert not (prof.depth_witness().contiguous and prof.distance_witness().contiguous)


def test_searched_once_per_recorded_state():
    m = _profiled("scan")
    prof = m.profiler
    first = prof.depth_witness()
    assert prof.depth_witness() is first
    assert prof.summary()["witness"]["depth"] == first.summary()
    # a later batch is a new state: the witness is searched again
    ta = m.place(np.zeros((1, 1)), np.array([0]), np.array([0]))
    deep = ta.depending_on_meta(first.target + 5, 0)
    m.send(deep, np.array([0]), np.array([1]))
    again = prof.depth_witness()
    assert again is not first and again.target == first.target + 6
    assert again.hops == dict_witness(prof, "depth").hops


def test_no_frames_and_overflow():
    from repro.machine.profiler import SpatialProfiler

    empty = SpatialProfiler()
    assert empty.depth_witness().target == 0 and empty.depth_witness().hops == []
    m = SpatialMachine(profile=SpatialProfiler(max_witness_messages=10))
    run_entry(workloads.lookup("scan"), m, 8, 0)
    assert m.profiler.witness_overflow
    assert m.profiler.depth_witness() is None and m.profiler.distance_witness() is None
