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

Two implementations share the entry points.  The *reference* body (any
non-fast machine, and fast machines under strict mode, tracer/profiler, or a
fault plan) runs the operation-by-operation construction: per-call sends, the
explicit quadrupling loop, lexsort regrouping, padding, and the generic 2D
reduce.  The *batched* body (:func:`allpairs_sort_many`; a single call is one
segment) sorts many independent inputs at once.  It exploits that every
index permutation is fixed by the exploded-grid geometry: it charges the
identical counters in closed form and composes the metadata from
precomputed quadrant offset tables, never materializing the ``n^2``
intermediate placements.  ``repro conformance`` asserts the two produce
bit-identical ranks and exactly equal cost books.
"""

from __future__ import annotations


import numpy as np

from ...machine.fastpath import (
    quad_broadcast_energy,
    quad_offsets,
    quad_reduce_offsets,
    ragged,
    segment_starts,
)
from ...machine.geometry import Region
from ...machine.machine import SpatialMachine, TrackedArray, _tracked, concat_tracked
from ...machine.metrics import META_DTYPE
from ...machine.zorder import zorder_encode
from ..collectives import broadcast_2d, reduce_2d
from ..ops import ADD
from .sortutil import lex_less, strip_tiebreak, with_tiebreak

__all__ = ["allpairs_sort", "allpairs_sort_many", "allpairs_sort_ranked", "allpairs_rank"]


def _subgrid_side(n: int) -> int:
    """Power-of-two side of each Γ_i (and of the subgrid lattice)."""
    side = 1
    while side * side < n:
        side *= 2
    return side


def _side_tables(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form tables of an ``s x s`` exploded grid: every table the
    batched body reads depends only on the subgrid side ``s`` -- scatter
    corners, replication orders and pad cells are fixed by the geometry,
    not the data.

    Returns the per local row-major cell offsets ``(doff, dstoff, rdo,
    rso)``, the per segment size maxima of the rank's closed form ``(doff_max,
    dstoff_max, a_dep, a_dst, pad_dep, pad_dst)``, indexed by size
    ``0..s*s``, and the scalars ``(k, energy, messages)``.
    """
    per = s * s
    row_off, col_off, depth_off, dist_off = quad_offsets(s)
    # quadrant index landing on local row-major cell 0..per-1
    perm = np.argsort(row_off * s + col_off, kind="stable")
    doff, dstoff = depth_off[perm], dist_off[perm]
    # reduce offsets re-indexed by local row-major cell (tables are Z-indexed)
    rdo_z, rso_z, block_energy = quad_reduce_offsets(s)
    cells = np.arange(per, dtype=np.int64)
    z = zorder_encode(cells // s, cells % s)
    rdo, rso = rdo_z[z], rso_z[z]

    def prefix_max(x: np.ndarray) -> np.ndarray:
        """Entry n: max of x[:n] (0 for n = 0)."""
        return np.concatenate([[0], np.maximum.accumulate(x)])

    def suffix_max(x: np.ndarray) -> np.ndarray:
        """Entry n: max of x[n:] (0 for n = per), the zero-meta pad cells."""
        return np.concatenate([np.maximum.accumulate(x[::-1])[::-1], [0]])

    return (
        np.stack([doff, dstoff, rdo, rso]),
        np.stack([
            prefix_max(doff),
            prefix_max(dstoff),
            prefix_max(doff + rdo),
            prefix_max(dstoff + rso),
            suffix_max(rdo),
            suffix_max(rso),
        ]),
        np.array([
            s.bit_length() - 1,
            # two quadrant broadcasts (strides 1 and s) and one quadrant reduce
            quad_broadcast_energy(s) + quad_broadcast_energy(s, s) + block_energy,
            3 * (per - 1),
        ]),
    )


# _side_tables of every side 1, 2, 4, ... up to the largest seen, stacked:
# side 2**k's cell c at column cell_base[k] + c of "cell", its size n at
# column size_base[k] + n of "size", its scalars in column k of "scalar";
# read-only, and replaced whole when a larger side shows up
_STACKED: dict = {"cell": np.zeros((4, 0), dtype=META_DTYPE)}


def _stacked_tables(kmax: int) -> dict:
    """The stacked side tables for every side up to ``2**kmax`` (cached;
    built for sides up to 32 at least, which covers the samples and windows
    of merges of up to ~30k entries)."""
    global _STACKED
    t = _STACKED
    if t["cell"].shape[1] >= (4 ** (kmax + 1) - 1) // 3:
        return t
    cell, size, scalar = zip(*(_side_tables(1 << k) for k in range(max(kmax, 5) + 1)))
    t = {
        "cell": np.concatenate(cell, 1).astype(META_DTYPE),
        "size": np.concatenate(size, 1).astype(META_DTYPE),
        "scalar": np.stack(scalar, 1).astype(np.int64),
        "cell_base": segment_starts([c.shape[1] for c in cell]),
        "size_base": segment_starts([c.shape[1] for c in size]),
    }
    for table in t.values():
        table.flags.writeable = False
    _STACKED = t
    return t


def _subgrid_sides(sizes: np.ndarray) -> np.ndarray:
    """Vector form of :func:`_subgrid_side`: ``2 ** ceil(log2(n) / 2)``."""
    ceil_log2 = np.frexp(np.asarray(sizes, dtype=np.float64) - 1)[1]
    return np.left_shift(1, (ceil_log2 + 1) // 2).astype(np.int64)


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
        pos = np.arange(n, dtype=np.int64)
        ranks = _segment_ranks(ta.payload, key_cols, np.zeros(n, dtype=np.int64), pos)
        ranked = _rank_segments(machine, ta, np.array([n]), np.array([R]), np.array([C]))
        return ranked, ranks
    return _allpairs_rank_reference(machine, ta, key_cols, R, C, s, n)


def _segment_ranks(
    payload: np.ndarray, key_cols: int, seg: np.ndarray, pos: np.ndarray
) -> np.ndarray:
    """Rank of every entry within its segment under the lexicographic order
    of its ``key_cols`` leading columns, which must be strict (``seg, pos``
    from :func:`~repro.machine.fastpath.ragged`)."""
    order = np.lexsort((*(payload[:, c] for c in range(key_cols - 1, -1, -1)), seg))
    ranks = np.empty(len(seg), dtype=np.int64)
    ranks[order] = pos  # sorted slot t lies in segment seg[t] at index pos[t]
    return ranks


def _rank_segments(
    machine: SpatialMachine,
    ta: TrackedArray,
    sizes: np.ndarray,
    ws_rows: np.ndarray,
    ws_cols: np.ndarray,
) -> TrackedArray:
    """Closed-form rank of every segment: same counters as one reference
    rank per segment, no ``n^2`` placements.

    Segment ``i`` holds the next ``sizes[i]`` entries of ``ta`` and explodes
    onto a workspace cornered at ``(ws_rows[i], ws_cols[i])``.  Returns the
    ranked elements in input order.

    After the reference regroups its replicas by (subgrid, cell), the entry
    at cell ``j`` of ``Γ_i`` holds the pair ``(A_i, A_j)``: the blanket copy
    of ``A_i`` arrived via the quadrant whose offset lands on cell ``j``, and
    the replicated copy of ``A_j`` via the quadrant landing on subgrid ``i``.
    Every metadata field is therefore an offset-table update of the two send
    outputs, and the per-block maxima of the reduce collapse to per-segment
    vector maxima.  The ranks themselves need no arithmetic at all: summing
    strict 0/1 comparison bits is exact in float64, so the reduce output *is*
    the element's rank under the strict key order, and the caller supplies
    it: one ``np.lexsort`` of the keys (:func:`_segment_ranks`), or
    arithmetic on a merged order it already holds.
    """
    starts, seg, pos = ragged(sizes)
    s_seg = _subgrid_sides(sizes)
    k_seg = np.frexp(s_seg)[1] - 1  # log2 of each segment's side
    s = s_seg[seg]

    # per-element cell offsets and per-segment closed-form scalars, read
    # from every side's tables at once
    t = _stacked_tables(int(k_seg.max()))
    e_doff, e_dstoff, e_rdo, e_rso = t["cell"][:, t["cell_base"][k_seg][seg] + pos]
    doff_max, dstoff_max, a_dep, a_dst, pad_dep, pad_dst = t["size"][
        :, t["size_base"][k_seg] + sizes
    ]
    k, energy, messages = t["scalar"][:, k_seg]

    # -- 1. scatter A_i to the corner of Γ_i; 3. compact A into Γ_0
    R, C = ws_rows[seg], ws_cols[seg]
    sub_r, sub_c = np.divmod(pos, s)
    pivots = machine.send_many((ta, R + sub_r * s, C + sub_c * s), starts=starts)
    copies0 = machine.send_many((ta, R + sub_r, C + sub_c), starts=starts)
    pd_max = np.maximum.reduceat(pivots.depth, starts)
    ps_max = np.maximum.reduceat(pivots.dist, starts)
    cd_max = np.maximum.reduceat(copies0.depth, starts)
    cs_max = np.maximum.reduceat(copies0.dist, starts)

    # -- 2-5. blanket broadcast, subgrid-lattice replication and the
    #         per-block reduce: closed-form counters; every compare at cell
    #         j of Γ_i sees max(pivot[i] + off[j], copy[j] + off[i])
    machine._charge(
        int(np.dot(sizes, energy)), int(np.dot(sizes, messages)), 9 * int(k.sum())
    )
    dmax = np.maximum(np.maximum(pd_max, cd_max) + k, np.maximum(pd_max, cd_max) + doff_max)
    smax = np.maximum.reduce([
        ps_max + 2 * (s_seg - 1),
        cs_max + 2 * (s_seg - 1) * s_seg,
        ps_max + dstoff_max,
        cs_max + s_seg * dstoff_max,
    ])
    machine.observe_maxima(int(dmax.max()), int(smax.max()))

    # per-block reduce metadata: max over cells j of (bit meta + reduce
    # carry offset), split over the two bit terms + the zero-meta pads
    rdep = np.maximum(
        pivots.depth + a_dep[seg],
        e_doff + np.maximum.reduceat(copies0.depth + e_rdo, starts)[seg],
    )
    rdst = np.maximum(
        pivots.dist + a_dst[seg],
        e_dstoff * s + np.maximum.reduceat(copies0.dist + e_rso, starts)[seg],
    )
    np.maximum(rdep, pad_dep[seg], out=rdep)
    np.maximum(rdst, pad_dst[seg], out=rdst)
    # fold the reduction's metadata into the element sitting at the corner
    out_dep = np.maximum(pivots.depth, rdep)
    out_dst = np.maximum(pivots.dist, rdst)
    machine.observe(out_dep, out_dst)

    return _tracked(machine, pivots.payload, pivots.rows, pivots.cols, out_dep, out_dst)


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
    if out_region is None:
        side = _subgrid_side(n)
        out_region = Region(int(ta.rows.min()), int(ta.cols.min()), side, side)
    if machine.clean_fast:
        if workspace is None:
            workspace = Region(int(ta.rows.min()), int(ta.cols.min()), 1, 1)
        return allpairs_sort_many(
            machine,
            ta,
            np.array([n]),
            key_cols,
            np.array([out_region.row]),
            np.array([out_region.col]),
            np.array([out_region.width]),
            np.array([workspace.row]),
            np.array([workspace.col]),
        )
    with machine.phase("allpairs"):
        keyed, kc = with_tiebreak(ta, key_cols)
        if n == 1:
            out = machine.send(keyed, *out_region.rowmajor_coords(1))
            return strip_tiebreak(out, kc)
        ranked, ranks = allpairs_rank(machine, keyed, kc, workspace)
        out_rows, out_cols = out_region.rowmajor_coords(n)
        # element with rank r goes to output cell r
        placed = machine.send(ranked, out_rows[ranks], out_cols[ranks])
        order = np.argsort(ranks, kind="stable")
        return strip_tiebreak(placed[order], kc)


def allpairs_sort_many(
    machine: SpatialMachine,
    ta: TrackedArray,
    sizes: np.ndarray,
    key_cols: int,
    out_rows: np.ndarray,
    out_cols: np.ndarray,
    out_width: np.ndarray,
    ws_rows: np.ndarray,
    ws_cols: np.ndarray,
) -> TrackedArray:
    """Sort many independent segments of ``ta`` at once (clean fast machines).

    Segment ``i`` holds the next ``sizes[i] >= 1`` entries; it sorts onto the
    row-major cells of a region cornered at ``(out_rows[i], out_cols[i])``
    of width ``out_width[i]``, exploding onto a workspace cornered at
    ``(ws_rows[i], ws_cols[i])``.  Every counter equals one
    :func:`allpairs_sort` call per segment.  Returns the segments in order,
    each sorted (ties by input position, as the tie-break column orders
    them); no segment at all returns an empty array and charges nothing.
    """
    if not machine.clean_fast:
        raise ValueError("allpairs_sort_many charges closed forms: clean fast machines only")
    sizes = np.asarray(sizes, dtype=np.int64)
    starts, seg, pos = ragged(sizes)
    ranks = _segment_ranks(ta.payload, key_cols, seg, pos)
    placed = allpairs_sort_ranked(
        machine, ta, sizes, ranks, out_rows, out_cols, out_width, ws_rows, ws_cols
    )
    order = np.empty(len(ta), dtype=np.int64)
    order[starts[seg] + ranks] = np.arange(len(ta), dtype=np.int64)
    out = placed[order]
    out.payload = np.asarray(out.payload, dtype=np.float64)
    return out


def allpairs_sort_ranked(
    machine: SpatialMachine,
    ta: TrackedArray,
    sizes: np.ndarray,
    ranks: np.ndarray,
    out_rows: np.ndarray,
    out_cols: np.ndarray,
    out_width: np.ndarray,
    ws_rows: np.ndarray,
    ws_cols: np.ndarray,
) -> TrackedArray:
    """:func:`allpairs_sort_many` for segments whose ranks the caller knows.

    ``ranks[i]`` is entry ``i``'s rank within its segment under the strict
    key order; the payload is carried, never compared.  Charges exactly
    what :func:`allpairs_sort_many` charges and returns the placed entries
    in input order: entry ``i`` sits at output cell ``ranks[i]`` of its
    segment's region.
    """
    if not machine.clean_fast:
        raise ValueError("allpairs_sort_ranked charges closed forms: clean fast machines only")
    if not len(sizes):
        return ta[:0]  # no segment: nothing moves and nothing is charged
    with machine.phase("allpairs"):
        starts, seg, _ = ragged(sizes)
        src = ta
        multi = sizes > 1
        if multi.all():
            src = _rank_segments(machine, ta, sizes, ws_rows, ws_cols)
        elif multi.any():
            # a one-element segment skips the rank and just moves to its cell
            at = multi[seg]
            ranked = _rank_segments(
                machine, ta[at], sizes[multi], ws_rows[multi], ws_cols[multi]
            )
            src = ta.copy()
            for name in ("rows", "cols", "depth", "dist"):
                getattr(src, name)[at] = getattr(ranked, name)
        # element with rank r goes to output cell r
        width = out_width[seg]
        return machine.send_many(
            (src, out_rows[seg] + ranks // width, out_cols[seg] + ranks % width),
            starts=starts,
        )
