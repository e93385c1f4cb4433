"""Low-depth SpMV on the Spatial Computer Model (paper, Section VIII).

``y = A x`` for a COO matrix with ``m`` non-zeros on a ``sqrt(m) x sqrt(m)``
subgrid and ``x`` on a ``sqrt(n) x sqrt(n)`` subgrid next to it:

1. 2D-Mergesort the triples by **column** — same-column entries become
   contiguous segments;
2. each entry learns whether it leads its segment from its predecessor
   (one neighbour message);
3. column leaders fetch ``x_j`` (request/reply messages) and a **segmented
   broadcast** (a parallel scan, Section IV.C) spreads it over the segment;
4. every entry forms ``A_ij * x_j`` locally;
5. 2D-Mergesort the partial products by **row**;
6. row leaders are identified as in step 2;
7. a **segmented scan** sums each row's products; the tail of each segment
   holds ``(A x)_i`` and ships it to the output cell.

Costs (Theorem VIII.2): ``O(m^{3/2})`` energy, ``O(log^3 n)`` depth,
``O(sqrt(m))`` distance — sorting and scanning dominate, improving the PRAM
simulation route (:mod:`repro.spmv.spmv_pram`) by a ``Θ(log n)`` factor in
depth and distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.ops import ADD, Monoid
from ..core.scan import segmented_broadcast, segmented_scan
from ..core.validate import check_finite_values
from ..core.sorting.mergesort2d import mergesort_2d
from ..machine.geometry import Region
from ..machine.machine import SpatialMachine, TrackedArray
from ..machine.zorder import zorder_coords
from .coo import COOMatrix

__all__ = ["SpMVLayout", "spmv_spatial"]


@dataclass(frozen=True)
class SpMVLayout:
    """Grid placement of the SpMV operands."""

    entry_region: Region
    x_region: Region
    y_region: Region

    @classmethod
    def default(cls, n: int, nnz: int) -> "SpMVLayout":
        es = 1
        while es * es < nnz:
            es *= 2
        xs = 1
        while xs * xs < n:
            xs *= 2
        return cls(
            entry_region=Region(0, 0, es, es),
            x_region=Region(0, es, xs, xs),
            y_region=Region(xs, es, xs, xs),
        )


def _neighbour_leaders(
    machine: SpatialMachine, sorted_t: TrackedArray, col: int
) -> tuple[np.ndarray, TrackedArray]:
    """Step 2/6: flag entries whose payload[col] differs from the predecessor."""
    n = len(sorted_t)
    flags = np.ones(n, dtype=bool)
    informed = sorted_t.copy()
    if n > 1:
        shifted = machine.send(sorted_t[: n - 1], sorted_t.rows[1:], sorted_t.cols[1:])
        flags[1:] = sorted_t.payload[1:, col] != shifted.payload[:, col]
        informed.depth[1:] = np.maximum(informed.depth[1:], shifted.depth)
        informed.dist[1:] = np.maximum(informed.dist[1:], shifted.dist)
    return flags, informed


def spmv_spatial(
    machine: SpatialMachine,
    matrix: COOMatrix,
    x: np.ndarray,
    layout: SpMVLayout | None = None,
    base_case: int = 16,
    rng: np.random.Generator | None = None,
    combine: Monoid = ADD,
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.multiply,
) -> TrackedArray:
    """Compute ``y = A x`` over a semiring; ``y`` lands row-major on the
    output subgrid.

    Entries are placed in a random arbitrary order (the paper's input model)
    unless ``rng`` is None, in which case input order is used.  ``base_case``
    is forwarded to the mergesorts.

    The scan primitive works "for any associative operator" (Section IV.C),
    so SpMV inherits semiring generality: ``combine`` is the row-accumulation
    monoid (default ``ADD``) and ``multiply`` the elementwise product (e.g.
    ``combine=MIN, multiply=lambda a, x: x`` gives the min-label propagation
    used for connected components in :mod:`repro.graphs`).  Rows with no
    entries receive ``combine.identity_scalar``.

    Fault-transparent: ``y`` is bit-identical under any
    :class:`~repro.machine.FaultPlan`; recovery only inflates costs.
    """
    n, nnz = matrix.n, matrix.nnz
    check_finite_values(machine, np.asarray(x), "spmv x vector")
    check_finite_values(machine, matrix.vals, "spmv matrix values")
    if nnz == 0:
        raise ValueError("SpMV needs at least one non-zero")
    layout = layout or SpMVLayout.default(n, nnz)
    ereg = layout.entry_region

    # ---- place operands; pad entries with +inf sentinels to fill the square
    triples = np.stack(
        [
            matrix.cols.astype(np.float64),
            matrix.rows.astype(np.float64),
            matrix.vals,
        ],
        axis=1,
    )
    if rng is not None:
        triples = triples[rng.permutation(nnz)]
    pad = ereg.size - nnz
    if pad:
        triples = np.concatenate(
            [triples, np.full((pad, 3), np.inf)], axis=0
        )
    entries = machine.place_rowmajor(triples, ereg)
    x_ta = machine.place_rowmajor(np.asarray(x, dtype=np.float64), layout.x_region)
    xr, xc = layout.x_region.rowmajor_coords(n)

    with machine.phase("spmv"):
        # ---- 1-2: sort by column, find column leaders
        with machine.phase("sort_by_col"):
            by_col = mergesort_2d(machine, entries, ereg, key_cols=1, base_case=base_case)
            col_flags, by_col = _neighbour_leaders(machine, by_col, col=0)
        real = by_col.payload[:, 0] != np.inf
        leaders = np.nonzero(col_flags & real)[0]

        # ---- 3: leaders fetch x_j, segmented broadcast spreads it
        with machine.phase("fetch_x"):
            j = by_col.payload[leaders, 0].astype(np.int64)
            req = machine.send(by_col[leaders], xr[j], xc[j])
            reply = x_ta[j].combined_with(req, payload=x_ta.payload[j])
            back = machine.send(reply, by_col.rows[leaders], by_col.cols[leaders])
        carried = np.full(len(by_col), np.nan)
        carried[leaders] = back.payload
        holder = by_col.with_payload(
            np.concatenate([by_col.payload, carried[:, None]], axis=1)
        )
        holder.depth[leaders] = np.maximum(holder.depth[leaders], back.depth)
        holder.dist[leaders] = np.maximum(holder.dist[leaders], back.dist)
        with machine.phase("spread_x"):
            # permute once to Z-order for the scan-based broadcast
            zr, zc = zorder_coords(ereg)
            z_entries = machine.send(holder, zr, zc)
            spread = segmented_broadcast(
                machine,
                col_flags.astype(np.float64),
                z_entries.with_payload(z_entries.payload[:, 3]),
                ereg,
            )

        # ---- 4: local partial products A_ij (x) x_j  (payload -> (row, product))
        real_mask = z_entries.payload[:, 2] != np.inf
        products = np.full(len(z_entries), np.inf)
        products[real_mask] = multiply(
            z_entries.payload[real_mask, 2], spread.payload[real_mask]
        )
        prod = z_entries.combined_with(
            spread,
            payload=np.stack([z_entries.payload[:, 1], products], axis=1),
        )

        # ---- 5-6: sort by row, find row leaders; order entries row-major first
        with machine.phase("sort_by_row"):
            order = ereg.rowmajor_index(prod.rows, prod.cols)
            prod = prod[np.argsort(order, kind="stable")]
            by_row = mergesort_2d(machine, prod, ereg, key_cols=1, base_case=base_case)
            row_flags, by_row = _neighbour_leaders(machine, by_row, col=0)

        # ---- 7: segmented scan combines each row; segment tails hold (Ax)_i
        with machine.phase("row_sum"):
            z_prod = machine.send(by_row, zr, zc)
            seg_vals = z_prod.with_payload(
                np.where(
                    z_prod.payload[:, 0] != np.inf,
                    z_prod.payload[:, 1],
                    float(combine.identity_scalar),
                )
            )
            scanned = segmented_scan(
                machine, row_flags.astype(np.float64), seg_vals, ereg, combine
            )
        tails = np.ones(len(by_row), dtype=bool)
        tails[:-1] = row_flags[1:]
        real_rows = by_row.payload[:, 0] != np.inf
        out_src = np.nonzero(tails & real_rows)[0]
        i_idx = by_row.payload[out_src, 0].astype(np.int64)
        yr, yc = layout.y_region.rowmajor_coords(n)
        with machine.phase("ship_y"):
            shipped = machine.send(scanned.inclusive[out_src], yr[i_idx], yc[i_idx])

    # assemble dense y: rows with no entries hold the identity (local, free)
    payload = np.full(n, float(combine.identity_scalar))
    depth = np.zeros(n, dtype=np.int64)
    dist = np.zeros(n, dtype=np.int64)
    payload[i_idx] = shipped.payload
    depth[i_idx] = shipped.depth
    dist[i_idx] = shipped.dist
    return TrackedArray(machine, payload, yr, yc, depth, dist)
