"""Scan baselines the paper argues against (Section IV.C).

* :func:`sequential_scan` — pass one accumulator along the Z-order curve:
  ``O(n)`` energy (optimal) but ``Θ(n)`` depth (no parallelism).
* :func:`tree_scan_1d` — the classic Blelloch binary-tree scan over the array
  in **row-major** order, ignoring the grid's second dimension: ``O(log n)``
  depth but ``Ω(n log n)`` energy, "similar to the energy cost of a binary
  tree broadcast".

The energy-optimal 2D scan (:mod:`repro.core.scan`) dominates both:
``Θ(n)`` energy *and* ``O(log n)`` depth.  The ablation bench
``benchmarks/bench_ablation_scan.py`` regenerates the three-way comparison.
"""

from __future__ import annotations

import numpy as np

from ..machine.geometry import Region, manhattan_arrays
from ..machine.machine import SpatialMachine, TrackedArray
from ..machine.metrics import META_DTYPE
from ..machine.zorder import zorder_coords
from .ops import ADD, Monoid

__all__ = ["sequential_scan", "tree_scan_1d"]


def sequential_scan(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    monoid: Monoid = ADD,
) -> TrackedArray:
    """Single accumulator walking the Z-order curve (inclusive scan).

    Entry ``i`` must sit at the i-th Z-order cell.  The i-th output's depth is
    exactly ``i`` messages and its chain distance the curve length up to cell
    ``i``; total energy is the full curve length (Observation 1: ``O(n)``).

    The chain is charged as one :meth:`SpatialMachine.relay` along the
    curve rather than as n Python-level ``send`` calls, so the flat
    counters, the active phase, the tracer and the profiler all see it.
    """
    n = len(ta)
    if n != region.size:
        raise ValueError("sequential_scan expects one value per cell")
    zrows, zcols = zorder_coords(region)
    hop = manhattan_arrays(zrows[:-1], zcols[:-1], zrows[1:], zcols[1:])

    # inclusive prefix values (local accumulation at each hop)
    if monoid.op is np.add:
        payload = np.cumsum(ta.payload, axis=0)
    elif monoid.op is np.maximum:
        payload = np.maximum.accumulate(ta.payload, axis=0)
    elif monoid.op is np.minimum:
        payload = np.minimum.accumulate(ta.payload, axis=0)
    else:  # generic associative op: explicit left fold
        payload = np.empty_like(ta.payload)
        payload[0] = ta.payload[0]
        for i in range(1, n):
            payload[i] = monoid(payload[i - 1 : i], ta.payload[i : i + 1])[0]

    depth0, dist0 = int(ta.depth.max()), int(ta.dist.max())
    machine.relay((zrows[0], zcols[0]), zrows[1:], zcols[1:], depth0, dist0)
    depth = np.arange(n, dtype=META_DTYPE) + depth0
    dist = np.concatenate([[0], np.cumsum(hop)]).astype(META_DTYPE) + dist0
    return TrackedArray(machine, payload, ta.rows, ta.cols, depth, dist)


def tree_scan_1d(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    monoid: Monoid = ADD,
) -> TrackedArray:
    """Blelloch binary-tree scan over the array in row-major order.

    This is the "naive 1D parallel prefix sum, implemented via a binary tree
    over the array in row-major order" of Section IV.C: logarithmic depth but
    ``Ω(n log n)`` energy, because high tree levels pair indices that are far
    apart in row-major order.  Returns the inclusive scan at the original
    cells.
    """
    n = len(ta)
    if n != region.size:
        raise ValueError("tree_scan_1d expects one value per cell")
    if n & (n - 1):
        raise ValueError("tree_scan_1d needs a power-of-two input size")
    rows, cols = region.rowmajor_coords(n)

    # working state indexed by row-major position
    work = TrackedArray(
        machine, ta.payload.copy(), rows.copy(), cols.copy(), ta.depth.copy(), ta.dist.copy()
    )

    def scatter(idx: np.ndarray, sub: TrackedArray) -> None:
        work.payload[idx] = sub.payload
        work.depth[idx] = sub.depth
        work.dist[idx] = sub.dist

    levels = int(np.log2(n))
    # ---- up-sweep: work[dst] = work[src] ∘ work[dst]
    for d in range(levels):
        step = 1 << (d + 1)
        src = np.arange((1 << d) - 1, n, step, dtype=np.int64)
        dst = src + (1 << d)
        moved = machine.send(work[src], rows[dst], cols[dst])
        tgt = work[dst]
        merged = tgt.combined_with(moved, payload=monoid(moved.payload, tgt.payload))
        scatter(dst, merged)

    # ---- down-sweep (exclusive): clear root, then swap-and-combine
    root = n - 1
    work.payload[root : root + 1] = monoid.identity(1, like=work.payload)
    for d in range(levels - 1, -1, -1):
        step = 1 << (d + 1)
        src = np.arange((1 << d) - 1, n, step, dtype=np.int64)
        dst = src + (1 << d)
        left = work[src]
        right = work[dst]
        to_dst = machine.send(left, rows[dst], cols[dst])
        to_src = machine.send(right, rows[src], cols[src])
        new_dst = to_dst.combined_with(
            right, payload=monoid(right.payload, to_dst.payload)
        )
        scatter(src, to_src)
        scatter(dst, new_dst)

    exclusive = work
    return exclusive.combined_with(
        ta, payload=monoid(exclusive.payload, ta.payload)
    )
