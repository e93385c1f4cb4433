"""2D Quicksort — the Section IX "simplification" direction, implemented.

The paper's conclusion asks for a *simpler* energy-optimal sorter: the 2D
Mergesort needs the two-sorted-array multiselection machinery (Lemma V.6)
inside every merge node.  This module shows that the paper's *own*
primitives already yield one: a quadrant quicksort whose splitters come from
the Section VI randomized rank selection and whose partition is two scans.

Per square region of n elements:

1. select the rank n/4, n/2, 3n/4 elements with :func:`rank_select`
   (Θ(n) energy, O(log² n) depth each, w.h.p.);
2. broadcast the pivots; each element decides its quadrant locally, with
   pivot ties broken by Z-position via one tie-indicator scan (so splits are
   exactly n/4 even with duplicate keys);
3. one more scan assigns every element its slot inside its quadrant;
4. route all elements to their quadrant (n messages over the region
   diameter — the same geometric series as the mergesort's Lemma V.7) and
   recurse; tiny blocks finish with the All-Pairs sorter.

Costs: routing dominates — ``Θ(n^{3/2})`` energy, ``O(log³ n)`` depth,
``O(sqrt(n))`` distance, now *with high probability* (the selection is
randomized) instead of deterministically.  No multiselection, no mirrored-L
geometry, no rectangle merges: every recursion step is square.

``bench_ablation_quicksort.py`` compares the constants against the
deterministic mergesort.  Keys only (no satellite columns): ties are
interchangeable, which is what lets the partition rule stay local.
"""

from __future__ import annotations

import numpy as np

from ...machine.geometry import Region
from ...machine.machine import SpatialMachine, TrackedArray, concat_tracked
from ...machine.zorder import is_power_of_two, zorder_coords
from ..collectives import broadcast_onto, reduce
from ..ops import ADD
from ..scan import scan
from ..validate import check_finite_values
from .allpairs import allpairs_sort
from .sortutil import as_sort_payload

__all__ = ["quicksort_2d"]


def quicksort_2d(
    machine: SpatialMachine,
    values: np.ndarray,
    region: Region,
    rng: np.random.Generator,
    base_case: int = 16,
) -> TrackedArray:
    """Sort ``values`` into row-major order on the square ``region``.

    ``values`` is a 1-D array with one element per cell.  Randomized
    (splitter selection); exact output for every input, w.h.p. cost bounds.
    """
    if not region.is_square or not is_power_of_two(region.width):
        raise ValueError(f"quicksort_2d needs a power-of-two square region, got {region}")
    values = np.asarray(values, dtype=np.float64)
    check_finite_values(machine, values, "quicksort_2d input")
    n = len(values)
    if n != region.size:
        raise ValueError(f"expected one value per cell ({region.size}), got {n}")
    ta = machine.place_zorder(values, region)

    with machine.phase("quicksort2d"):
        placed_parts: list[TrackedArray] = []
        rank_parts: list[np.ndarray] = []
        _rec(machine, ta, region, rng, max(4, base_case), 0, placed_parts, rank_parts)
        placed = concat_tracked(placed_parts)
        ranks = np.concatenate(rank_parts)
        rows, cols = region.rowmajor_coords(n)
        out = machine.send(placed, rows[ranks], cols[ranks])
        return out[np.argsort(ranks, kind="stable")]


def _rec(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    rng: np.random.Generator,
    base_case: int,
    offset: int,
    placed_parts: list[TrackedArray],
    rank_parts: list[np.ndarray],
) -> None:
    """``ta`` holds one value per cell of ``region`` in Z-order entry order."""
    n = len(ta)
    if n <= base_case:
        out = allpairs_sort(
            machine,
            ta.with_payload(as_sort_payload(ta.payload)),
            out_region=region,
            key_cols=1,
            workspace=Region(region.row, region.col, 1, 1),
        )
        placed_parts.append(out.with_payload(out.payload[:, 0]))
        rank_parts.append(offset + np.arange(n, dtype=np.int64))
        return

    quarter = n // 4
    vals = ta.payload

    # deferred import: selection itself sorts its samples (cycle breaker)
    from ..selection import rank_select

    # ---- 1: three splitters via randomized rank selection (Section VI)
    pivots = []
    sel_depth = sel_dist = 0
    for q in (1, 2, 3):
        sel = rank_select(machine, ta, region, q * quarter, rng)
        pivots.append(sel.value)
        sel_depth = max(sel_depth, sel.depth)
        sel_dist = max(sel_dist, sel.dist)

    # ---- 2: broadcast the pivots; elements classify themselves locally
    piv_ta = machine.place(np.array([1.0]), [region.row], [region.col])
    piv_ta = piv_ta.depending_on_meta(sel_depth, sel_dist)
    ta = broadcast_onto(machine, piv_ta, region, ta)

    # tie-indicator scan: Z-position rank among elements tied with each pivot
    tie_cols = np.stack([(vals == p).astype(np.float64) for p in pivots], axis=1)
    tie_scan = scan(machine, ta.with_payload(tie_cols), region, ADD)
    tie_rank = tie_scan.inclusive.payload  # 1-based among ties, in Z order

    # global strictly-below counts per pivot: an all-reduce, so every element
    # learns how many tied elements each cut still needs
    less_cols = np.stack([(vals < p).astype(np.float64) for p in pivots], axis=1)
    with machine.phase("all_reduce"):
        totals = reduce(machine, ta.with_payload(less_cols), region, ADD)
        ta = broadcast_onto(machine, totals, region, ta)
    counts_less = np.rint(totals.payload[0]).astype(np.int64)
    in_first = np.zeros((n, 3), dtype=bool)
    for i, p in enumerate(pivots):
        need = i + 1
        k_i = need * quarter
        need_ties = k_i - counts_less[i]
        in_first[:, i] = (vals < p) | ((vals == p) & (tie_rank[:, i] <= need_ties))
    quadrant = 3 - in_first.sum(axis=1)

    # ---- 3: slot inside the quadrant via one more scan
    slot_cols = np.stack(
        [(quadrant == q).astype(np.float64) for q in range(4)], axis=1
    )
    slot_scan = scan(machine, ta.with_payload(slot_cols), region, ADD)
    slot = (
        slot_scan.inclusive.payload[np.arange(n), quadrant].astype(np.int64) - 1
    )
    ta = ta.depending_on(tie_scan.inclusive).depending_on(slot_scan.inclusive)

    # ---- 4: route to the quadrants (Z-order cells) and recurse
    quads = region.quadrants()
    for q in range(4):
        mask = quadrant == q
        sub = quads[q]
        zr, zc = zorder_coords(sub)
        part = machine.send(ta[mask], zr[slot[mask]], zc[slot[mask]])
        part = part[np.argsort(slot[mask], kind="stable")]
        _rec(
            machine,
            part,
            sub,
            rng,
            base_case,
            offset + q * quarter,
            placed_parts,
            rank_parts,
        )
