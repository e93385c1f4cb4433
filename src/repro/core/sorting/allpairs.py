"""All-Pairs Sort (paper, Section V.C(a), Lemma V.5).

A brute-force ``O(log n)``-depth sorter used on *small* inputs (the samples
of the rank-selection subroutines): the computation "explodes" onto an
``n x n`` processor grid divided into ``n`` subgrids ``Γ_i`` of ``√n x √n``
processors each.

1. scatter element ``A_i`` to the first processor of ``Γ_i``;
2. broadcast ``A_i`` inside ``Γ_i``;
3. replicate the whole array ``A`` into every ``Γ_i`` with the recursive
   quadrant pattern of the 2D broadcast, treating subgrids as units;
4. every processor compares its two elements (free, local);
5. reduce the comparison bits inside each ``Γ_i`` — the result is the rank of
   ``A_i`` — and route each element straight to its ranked output cell.

Costs: ``O(n^{5/2})`` energy, ``O(log n)`` depth, ``O(n)`` distance — cheap
when ``n`` is a square-root-sized sample, hopeless as a general sorter (which
is exactly how Sections V-VI use it).

Two implementations share the rank entry point.  The *reference* body (any
non-fast machine, and fast machines under strict mode, tracer/profiler, or a
fault plan) runs the operation-by-operation construction: per-call sends, the
explicit quadrupling loop, lexsort regrouping, padding, and the generic 2D
reduce.  The *fast* body exploits that every index permutation is fixed by
the exploded-grid geometry: it charges the identical counters in closed form
and composes the metadata from precomputed quadrant offset tables, never
materializing the ``n^2`` intermediate placements.  ``repro conformance``
asserts the two produce bit-identical ranks and exactly equal cost books.
"""

from __future__ import annotations


import numpy as np

from ...machine.fastpath import (
    quad_broadcast_charge,
    quad_offsets,
    quad_reduce_charge,
    quad_reduce_offsets,
)
from ...machine.geometry import Region
from ...machine.machine import SpatialMachine, TrackedArray, _tracked, concat_tracked
from ...machine.zorder import zorder_encode
from ..collectives import broadcast_2d, reduce_2d
from ..ops import ADD
from .sortutil import lex_less, strip_tiebreak, with_tiebreak

__all__ = ["allpairs_sort", "allpairs_rank"]


def _subgrid_side(n: int) -> int:
    """Power-of-two side of each Γ_i (and of the subgrid lattice)."""
    side = 1
    while side * side < n:
        side *= 2
    return side


# every index permutation used by the fast body depends only on (s, n) — the
# scatter corners, replication orders and pad cells are fixed by the
# exploded-grid geometry, not the data — so each is computed once and reused
# (coordinates are cached relative to the workspace corner)
_LAYOUT_CACHE: dict[tuple[int, int], dict[str, np.ndarray]] = {}


def _layout(s: int, n: int) -> dict[str, np.ndarray]:
    lay = _LAYOUT_CACHE.get((s, n))
    if lay is None:
        i = np.arange(n, dtype=np.int64)
        lay = {
            "corner_r": (i // s) * s,
            "corner_c": (i % s) * s,
            "home_r": i // s,
            "home_c": i % s,
        }
        _LAYOUT_CACHE[(s, n)] = lay
    return lay


def allpairs_rank(
    machine: SpatialMachine,
    ta: TrackedArray,
    key_cols: int,
    workspace: Region | None = None,
) -> tuple[TrackedArray, np.ndarray]:
    """Rank every element against every other on the exploded grid.

    Returns the elements (one per subgrid corner, input order preserved) with
    the comparison reduction folded into their metadata, plus the integer
    ranks.  Keys must already be strict (use :func:`with_tiebreak`).
    """
    n = len(ta)
    s = _subgrid_side(n)
    if workspace is None:
        workspace = Region(int(ta.rows.min()), int(ta.cols.min()), s * s, s * s)
    R, C = workspace.row, workspace.col
    if machine.clean_fast:
        return _allpairs_rank_fast(machine, ta, key_cols, R, C, s, n)
    return _allpairs_rank_reference(machine, ta, key_cols, R, C, s, n)


def _allpairs_rank_fast(
    machine: SpatialMachine,
    ta: TrackedArray,
    key_cols: int,
    R: int,
    C: int,
    s: int,
    n: int,
) -> tuple[TrackedArray, np.ndarray]:
    """Closed-form rank: same counters and ranks, no ``n^2`` placements.

    After the reference regroups its replicas by (subgrid, cell), the entry
    at cell ``j`` of ``Γ_i`` holds the pair ``(A_i, A_j)``: the blanket copy
    of ``A_i`` arrived via the quadrant whose offset lands on cell ``j``, and
    the replicated copy of ``A_j`` via the quadrant landing on subgrid ``i``.
    Every metadata field is therefore an offset-table update of the two send
    outputs, and the per-block maxima of the reduce collapse to O(n) vector
    maxima.  The ranks themselves need no arithmetic at all: summing strict
    0/1 comparison bits is exact in float64, so the reduce output *is* the
    element's lexicographic rank — one ``np.lexsort`` of the (strict) keys.
    """
    lay = _layout(s, n)
    per = s * s

    # -- 1. scatter A_i to the corner of Γ_i; charge its blanket broadcast
    pivots = machine.send(ta, R + lay["corner_r"], C + lay["corner_c"])
    pd_max, ps_max = int(pivots.depth.max()), int(pivots.dist.max())
    quad_broadcast_charge(machine, n, s, 1, pd_max, ps_max)

    # -- 3. compact A into Γ_0; charge its subgrid-lattice replication
    copies0 = machine.send(ta, R + lay["home_r"], C + lay["home_c"])
    cd_max, cs_max = int(copies0.depth.max()), int(copies0.dist.max())
    quad_broadcast_charge(machine, n, s, s, cd_max, cs_max)

    doff = lay.get("doff")
    if doff is None:
        row_off, col_off, depth_off, dist_off = quad_offsets(s)
        # quadrant index landing on local row-major cell 0..n-1
        perm = np.argsort(row_off * s + col_off, kind="stable")[:n]
        doff = depth_off[perm]
        dstoff = dist_off[perm]
        lay["doff"], lay["dstoff"] = doff, dstoff
        lay["dstoff_s"] = dstoff * s
        lay["doff_max"] = int(doff.max())
        lay["dstoff_max"] = int(dstoff.max())
        # reduce offsets re-indexed by local row-major cell (tables are
        # Z-indexed); pads occupy cells n..per-1 with zero metadata
        rdo_z, rso_z, _ = quad_reduce_offsets(s)
        cells = np.arange(per, dtype=np.int64)
        z = zorder_encode(cells // s, cells % s)
        rdo_cell, rso_cell = rdo_z[z], rso_z[z]
        lay["c_rdo"], lay["c_rso"] = rdo_cell[:n].copy(), rso_cell[:n].copy()
        lay["a_dep"] = int((doff + rdo_cell[:n]).max())
        lay["a_dst"] = int((dstoff + rso_cell[:n]).max())
        lay["pad_dep"] = int(rdo_cell[n:].max()) if per != n else 0
        lay["pad_dst"] = int(rso_cell[n:].max()) if per != n else 0
    dstoff = lay["dstoff"]

    # -- 2-4. the compare at cell j of Γ_i sees metadata
    #         max(pivot[i] + off[j], copy[j] + off[i]); observe its maxima
    machine.observe_maxima(
        max(pd_max, cd_max) + lay["doff_max"],
        max(ps_max + lay["dstoff_max"], cs_max + s * lay["dstoff_max"]),
    )

    # -- 5. per-block reduce metadata: max over cells j of (bit meta + reduce
    #       carry offset), split over the two bit terms + the zero-meta pads
    quad_reduce_charge(machine, n, s)
    rdep = np.maximum(pivots.depth + lay["a_dep"], doff + int((copies0.depth + lay["c_rdo"]).max()))
    rdst = np.maximum(pivots.dist + lay["a_dst"], lay["dstoff_s"] + int((copies0.dist + lay["c_rso"]).max()))
    if per != n:
        np.maximum(rdep, rdep.dtype.type(lay["pad_dep"]), out=rdep)
        np.maximum(rdst, rdst.dtype.type(lay["pad_dst"]), out=rdst)
    machine.observe(rdep, rdst)

    # rank = number of strictly smaller rows = position in the sorted order
    P = ta.payload
    order = np.lexsort(tuple(P[:, c] for c in range(key_cols - 1, -1, -1)))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)

    # fold the reduction's metadata into the element sitting at the corner
    out_dep = np.maximum(pivots.depth, rdep)
    out_dst = np.maximum(pivots.dist, rdst)
    machine.observe(out_dep, out_dst)
    ranked = _tracked(machine, pivots.payload, pivots.rows, pivots.cols, out_dep, out_dst)
    return ranked, ranks


def _allpairs_rank_reference(
    machine: SpatialMachine,
    ta: TrackedArray,
    key_cols: int,
    R: int,
    C: int,
    s: int,
    n: int,
) -> tuple[TrackedArray, np.ndarray]:
    """The per-operation construction (conformance oracle for the fast body)."""
    # -- 1. scatter A_i to the corner of Γ_i (subgrids in row-major order)
    i = np.arange(n, dtype=np.int64)
    corner_rows = R + (i // s) * s
    corner_cols = C + (i % s) * s
    pivots = machine.send(ta, corner_rows, corner_cols)

    # -- 2. broadcast A_i within Γ_i (all subgrids in lockstep); trim to the
    #       first n cells of each subgrid, which is all the copies will fill.
    blanket = broadcast_2d(machine, pivots, Region(R, C, s, s))
    # blanket entries: for each expansion they stay grouped by subgrid only
    # implicitly; regroup by (subgrid, local row-major cell) for the compare.
    local_r = (blanket.rows - R) % s
    local_c = (blanket.cols - C) % s
    sub_id = ((blanket.rows - R) // s) * s + (blanket.cols - C) // s
    cell_id = local_r * s + local_c
    order = np.lexsort((cell_id, sub_id))
    blanket = blanket[order]
    keep = (cell_id[order] < n) & (sub_id[order] < n)
    blanket = blanket[keep]  # (n used subgrids) x (n used cells)

    # -- 3. replicate the array into every subgrid: copy j of A sits at the
    #       j-th row-major cell of each Γ_i, spread by recursive quadrupling.
    home_rows = R + i // s
    home_cols = C + i % s
    copies = machine.send(ta, home_rows, home_cols)  # A compacted into Γ_0
    lat = s
    while lat > 1:
        half = lat // 2
        parts = [copies]
        for dr, dc in ((0, half), (half, 0), (half, half)):
            parts.append(
                machine.send(copies, copies.rows + dr * s, copies.cols + dc * s)
            )
        copies = concat_tracked(parts)
        lat = half
    c_sub = ((copies.rows - R) // s) * s + (copies.cols - C) // s
    c_cell = ((copies.rows - R) % s) * s + (copies.cols - C) % s
    c_order = np.lexsort((c_cell, c_sub))
    copies = copies[c_order]
    copies = copies[c_sub[c_order] < n]  # drop replicas in unused subgrids

    if len(copies) != len(blanket):
        raise AssertionError("replication/broadcast cell mismatch")

    # -- 4. local comparison: bit = [A_j < A_i] at cell j of subgrid i
    bits = blanket.combined_with(
        copies,
        payload=lex_less(copies.payload, blanket.payload, key_cols).astype(np.float64),
    )

    # -- 5. per-subgrid reduce of the bits = rank of A_i; subgrids not full
    #       square (n < s*s cells used) are padded with zero-contribution
    #       bits at the unused cells (free placement, identity values).
    full = _pad_subgrids(machine, bits, R, C, s, n)
    ranks_ta = reduce_2d(machine, full, Region(R, C, s, s), ADD)
    ranks = np.rint(
        ranks_ta.payload[:, 0] if ranks_ta.payload.ndim > 1 else ranks_ta.payload
    ).astype(np.int64)

    # fold the reduction's metadata into the element sitting at the corner
    ranked = pivots.combined_with(ranks_ta.with_payload(pivots.payload), payload=pivots.payload)
    return ranked, ranks


def _pad_subgrids(
    machine: SpatialMachine, bits: TrackedArray, R: int, C: int, s: int, n: int
) -> TrackedArray:
    """Fill unused cells of each used subgrid with zero bits (local, free)."""
    per = s * s
    if per == n:
        return bits
    pads: list[TrackedArray] = [bits]
    pad_cell = np.arange(n, per, dtype=np.int64)
    for sub in range(n):
        rows = R + (sub // s) * s + pad_cell // s
        cols = C + (sub % s) * s + pad_cell % s
        payload = np.zeros((len(pad_cell),) + bits.payload.shape[1:])
        pads.append(machine.place(payload, rows, cols))
    out = concat_tracked(pads)
    sub_id = ((out.rows - R) // s) * s + (out.cols - C) // s
    cell_id = ((out.rows - R) % s) * s + (out.cols - C) % s
    order = np.lexsort((cell_id, sub_id))
    return out[order]


def allpairs_sort(
    machine: SpatialMachine,
    ta: TrackedArray,
    out_region: Region | None = None,
    key_cols: int = 1,
    workspace: Region | None = None,
) -> TrackedArray:
    """Sort ``ta`` (any placement) into row-major order on ``out_region``.

    ``out_region`` defaults to the smallest square at the input's corner.
    Returns entries ordered by rank, entry ``r`` at the r-th row-major cell.
    """
    n = len(ta)
    if ta.payload.ndim != 2:
        raise ValueError("sort payloads are (n, k) arrays")
    with machine.phase("allpairs"):
        keyed, kc = with_tiebreak(ta, key_cols)
        if out_region is None:
            side = _subgrid_side(n)
            out_region = Region(int(ta.rows.min()), int(ta.cols.min()), side, side)
        if n == 1:
            out = machine.send(keyed, *out_region.rowmajor_coords(1))
            return strip_tiebreak(out, kc)
        ranked, ranks = allpairs_rank(machine, keyed, kc, workspace)
        out_rows, out_cols = out_region.rowmajor_coords(n)
        # element with rank r goes to output cell r
        placed = machine.send(ranked, out_rows[ranks], out_cols[ranks])
        order = np.argsort(ranks, kind="stable")
        return strip_tiebreak(placed[order], kc)
