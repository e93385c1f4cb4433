"""2D merge of two sorted arrays (paper, Section V.C(b), Fig. 3, Lemma V.7).

Classical merges recurse on *unbalanced* halves and need binary searches with
suboptimal distance; the spatial merge instead splits **by rank**: the rank
``n/4``, ``n/2`` and ``3n/4`` elements of ``A || B`` (found with the
two-sorted-array selection of Lemma V.6) split both arrays into four chunk
pairs of exactly ``n/4`` elements, which move into the region's four
sub-quadrants and merge recursively.  After the recursion the array is sorted
along the recursion's space-filling traversal; a final permutation delivers
row-major order (Fig. 3d).

Region shapes stay in the family {square, 2:1 rectangle}: a square splits
into its four quadrants (Z-order), a wide rectangle into four tall strips
(left to right), a tall rectangle into four wide strips (top to bottom) — so
every level's sub-regions are congruent and the per-level permutation cost is
``#elements x O(level diameter)``, a geometric series summing to
``O(n^{3/2})`` energy (Lemma V.7).  Depth is ``O(log^2 n)`` (a Lemma V.6
selection per level), distance ``O(sqrt(n))``.

The split decision is *broadcast* over the region and threaded into every
element's metadata before it moves, so measured depth reflects the control
dependency "no routing before the splitters are known".

Two bodies charge identical counters.  The depth-first body (the reference,
and every strict, traced, profiled or faulted run, whose send order fixes
the retry rng stream) makes one call per subproblem.  On a clean fast
machine :func:`merge_sorted_2d_many` runs the recursion level by level over
many merges at once: every subproblem of a level shares one batched
selection, one decision send, one broadcast charge and one segmented send
each for chunk moves and leaf parks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ...machine.fastpath import interleave, ragged, segment_starts
from ...machine.geometry import Region
from ...machine.machine import SpatialMachine, TrackedArray, _tracked, concat_tracked
from ...machine.metrics import META_DTYPE
from ..collectives import _broadcast_tables, broadcast
from ..validate import check_keys
from .sortutil import merged_ranks
from .two_sorted_select import select_ranked, select_ranks_two_sorted

__all__ = ["merge_sorted_2d", "merge_sorted_2d_many", "merge_subregions"]


def merge_subregions(region: Region) -> tuple[Region, Region, Region, Region]:
    """Split a square / 2:1 region into four congruent ordered sub-regions."""
    h, w = region.height, region.width
    if h == w:
        return region.quadrants()
    if w == 2 * h:
        q = w // 4
        return tuple(Region(region.row, region.col + i * q, h, q) for i in range(4))
    if h == 2 * w:
        q = h // 4
        return tuple(Region(region.row + i * q, region.col, q, w) for i in range(4))
    raise ValueError(f"merge regions must be square or 2:1, got {region}")


def merge_sorted_2d(
    machine: SpatialMachine,
    A: TrackedArray,
    B: TrackedArray,
    out_region: Region,
    key_cols: int = 1,
    base_case: int = 16,
) -> TrackedArray:
    """Merge sorted ``A`` and ``B`` into row-major order on ``out_region``.

    Both inputs must lie inside ``out_region`` (typically on its two halves)
    and satisfy ``len(A) + len(B) == out_region.size``.  Ties order ``A``
    before ``B`` (and by position within each array), consistent with the
    selection subroutine, so the output is a deterministic permutation.
    ``base_case`` (>= 4) stops the recursion once a chunk fits a tiny region.
    A NaN key raises ``ValueError`` on every machine.
    """
    n = len(A) + len(B)
    if n != out_region.size:
        raise ValueError(f"{n} elements vs region size {out_region.size}")
    if base_case < 4:
        raise ValueError("base_case must be at least 4")
    for name, part in (("A", A), ("B", B)):
        outside = ~out_region.contains(part.rows, part.cols)
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(
                f"merge_sorted_2d: {name}[{i}] at ({int(part.rows[i])}, "
                f"{int(part.cols[i])}) lies outside {out_region}; both inputs "
                "must lie inside out_region"
            )
        check_keys(part.payload, key_cols, f"merge_sorted_2d {name}")
    if machine.clean_fast:
        r = out_region
        return merge_sorted_2d_many(
            machine,
            concat_tracked([A, B]),
            np.array([len(A)]),
            np.array([len(B)]),
            np.array([[r.row, r.col, r.height, r.width]]),
            key_cols,
            base_case,
        )
    with machine.phase("merge2d"):
        placed_parts: list[TrackedArray] = []
        rank_parts: list[np.ndarray] = []
        _merge_rec(machine, A, B, out_region, key_cols, base_case, 0, placed_parts, rank_parts)
        placed = concat_tracked(placed_parts)
        ranks = np.concatenate(rank_parts)
        # Fig. 3d: permute from the recursion's traversal order into row-major.
        rows, cols = out_region.rowmajor_coords(n)
        out = machine.send(placed, rows[ranks], cols[ranks])
        return out[np.argsort(ranks, kind="stable")]


def merge_sorted_2d_many(
    machine: SpatialMachine,
    ta: TrackedArray,
    a_sizes: np.ndarray,
    b_sizes: np.ndarray,
    regions: np.ndarray,
    key_cols: int = 1,
    base_case: int = 16,
) -> TrackedArray:
    """Merge many sorted pairs at once, level by level (clean fast machines).

    Merge ``i`` takes the next ``a_sizes[i]`` entries of ``ta`` as ``A`` and
    the ``b_sizes[i]`` after them as ``B``, and fills the region in row ``i``
    of the ``(merges, 4)`` array ``regions`` (row, col, height, width); the
    caller has checked the :func:`merge_sorted_2d` preconditions.  Every
    counter equals one :func:`merge_sorted_2d` call per merge.  Returns each
    merge's output in row-major order of its region, merges in order.

    Each merge is sorted once, under the selection's strict key, and every
    entry carries its rank within its subproblem through the levels: the
    splits are exact rank splits, so a subproblem holds exactly the ranks
    ``[off, off + n)`` of its merge, and every order a level needs is read
    off the ranks.  For the same reason every subproblem's size, offset,
    region and broadcast are fixed by the merge shapes; they come from a
    cached plan (:func:`_merge_plan`), and a level computes only what depends on
    the keys: the A/B split, the cuts and the moves.
    """
    if not machine.clean_fast:
        raise ValueError("merge_sorted_2d_many charges closed forms: clean fast machines only")
    a_sizes = np.asarray(a_sizes, dtype=np.int64)
    b_sizes = np.asarray(b_sizes, dtype=np.int64)
    regions = np.asarray(regions, dtype=np.int64)
    sizes = a_sizes + b_sizes
    if not np.array_equal(sizes, regions[:, 2] * regions[:, 3]):
        raise ValueError("every merge must fill its region: |A| + |B| == height * width")
    origin = (int(regions[0, 0]), int(regions[0, 1])) if len(regions) else (0, 0)
    plan = _merge_plan(regions, base_case)
    parked: list[tuple[TrackedArray, np.ndarray]] = []
    with machine.phase("merge2d"):
        starts, merge, pos = ragged(sizes)
        in_b = pos >= a_sizes[merge]
        rank = merged_ranks(
            ta.payload, key_cols, merge, in_b, pos - np.where(in_b, a_sizes[merge], 0), starts
        )
        # each entry's row-major cell in its region; after the first level
        # every entry sits at the cell of its index in its subproblem
        row, col, width = regions[merge, 0], regions[merge, 1], regions[merge, 3]
        cell = (ta.rows - row) * width + (ta.cols - col)
        state = (ta, rank, a_sizes, merge, pos, cell)
        for level in plan:
            state = _merge_level(machine, *state, level, origin, parked)

        # Fig. 3d: permute from the recursion's traversal order into row-major
        placed = concat_tracked([p[0] for p in parked])
        at = np.concatenate([p[1] for p in parked])
        del parked
        order = np.empty(len(at), dtype=np.int64)
        order[at] = np.arange(len(at), dtype=np.int64)
        placed = placed[order]
        return machine.send_many(
            (placed, row + pos // width, col + pos % width), starts=starts
        )


class _Level:
    """One level of the merge tree, from the merge shapes alone.

    Subproblems are in layout order (the previous level's children, in
    order), regions relative to the first merge's corner.  Columns over all
    ``S`` subproblems:

    - ``n`` entries and ``region`` (row, col, height, width);
    - ``leaf``: parks without splitting; ``park_at``: where its rank 0 lands
      in the merges' concatenated output (merge start + offset);
      ``leaf_starts``: each leaf's first entry among the leaves' entries;
    - ``split_of``: each subproblem's index among the splitting ones.

    Columns over the ``P`` splitting subproblems, ``split`` (their indices
    into the level), in order:

    - ``seg_start``: first entry in the layout of the splitting subproblems;
    - ``ks``: the three splitter ranks (multiples of the quarter);
    - ``child_row``/``child_col`` (``4P``), ``child_h``/``child_w``: the
      sub-regions (square: Z-order quadrants, wide/tall: four strips);
    - ``child_start`` (``4P``): each child's first entry in the next level;
    - the broadcast of the routing decision: ``bc_dep``/``bc_dst`` per-cell
      offsets of every shape at the level stacked into one array, each
      subproblem's table at ``bc_base``, its largest offsets ``bc_dmax``/
      ``bc_smax``, and the summed ``bc_charge`` (energy, messages, sends).
    """

    __slots__ = (
        "n", "region", "leaf", "park_at", "leaf_starts", "split", "split_of", "seg_start",
        "ks", "child_row", "child_col", "child_h", "child_w", "child_start",
        "bc_dep", "bc_dst", "bc_base", "bc_dmax", "bc_smax", "bc_charge",
    )  # fmt: skip


def _plan_array(values) -> np.ndarray:
    """A read-only int32 plan column."""
    out = np.ascontiguousarray(values, dtype=np.int32)
    out.flags.writeable = False
    return out


#: how many plans the cache keeps (least recently used goes first)
_PLAN_CACHE_SIZE = 64
_PLANS: OrderedDict[tuple[bytes, int], tuple[_Level, ...]] = OrderedDict()
_PLANS_LOCK = threading.Lock()


def _merge_plan(regions: np.ndarray, base_case: int) -> tuple[_Level, ...]:
    """The cached plan of a batch of merges onto ``regions`` (``(merges,
    4)``: row, col, height, width; merge ``i`` fills region ``i``): one
    :class:`_Level` per level of the merge tree.

    Plans are keyed by the regions taken relative to the first corner and by
    ``base_case``, so the same shapes anywhere on the grid share one plan.
    A region that splits must be a power-of-two square or 2:1 rectangle;
    any other raises ``ValueError`` and caches nothing.
    """
    regions = np.asarray(regions, dtype=np.int64)
    origin = regions[0, :2] if len(regions) else np.zeros(2, dtype=np.int64)
    rel = regions.copy()
    rel[:, :2] -= origin
    key = (rel.tobytes(), int(base_case))
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
        if plan is not None:
            _PLANS.move_to_end(key)
            return plan
    plan = _build_plan(rel, base_case, origin)
    with _PLANS_LOCK:
        _PLANS[key] = plan
        while len(_PLANS) > _PLAN_CACHE_SIZE:
            _PLANS.popitem(last=False)
    return plan


def _build_plan(rel: np.ndarray, base_case: int, origin: np.ndarray) -> tuple[_Level, ...]:
    """Walk the recursion over shapes alone (``origin`` only names a bad
    region in the error)."""
    row, col, h, w = rel.T
    n = h * w
    at = segment_starts(n)  # where each subproblem's rank 0 lands
    levels = []
    while len(n):
        lv = _Level()
        leaf = (n <= base_case) | (h == 1) | (w == 1) | (n < 4)
        split = np.flatnonzero(~leaf)
        lv.n, lv.region = _plan_array(n), _plan_array(np.column_stack([row, col, h, w]))
        lv.leaf, lv.park_at = leaf, _plan_array(at)
        lv.leaf.flags.writeable = False
        lv.leaf_starts = _plan_array(segment_starts(n[leaf]))
        lv.split, lv.split_of = _plan_array(split), _plan_array(np.cumsum(~leaf) - 1)
        levels.append(lv)
        if not len(split):
            break
        n, row, col, h, w, at = n[split], row[split], col[split], h[split], w[split], at[split]
        # a split region is broadcast over, so its sides are powers of two,
        # and it splits into four congruent parts, so it is a square or 2:1
        pow2 = ((h & (h - 1)) == 0) & ((w & (w - 1)) == 0)
        shape_ok = pow2 & ((h == w) | (w == 2 * h) | (h == 2 * w))
        if not shape_ok.all():
            i = int(np.argmin(shape_ok))
            bad = Region(int(row[i] + origin[0]), int(col[i] + origin[1]), int(h[i]), int(w[i]))
            raise ValueError(
                f"merge regions must be power-of-two squares or 2:1 rectangles, got {bad}"
            )
        lv.seg_start = _plan_array(segment_starts(n))
        quarter = n // 4
        lv.ks = _plan_array(quarter[:, None] * np.arange(1, 4))
        # sub-region q: square -> Z-order quadrants, wide/tall -> four strips
        q4 = np.arange(4, dtype=np.int64)
        sq, wide = (h == w)[:, None], (w > h)[:, None]
        sub_h = np.where(sq[:, 0], h // 2, np.where(wide[:, 0], h, h // 4))
        sub_w = np.where(sq[:, 0], w // 2, np.where(wide[:, 0], w // 4, w))
        sub_row = row[:, None] + np.where(sq, (q4 >= 2), np.where(wide, 0, q4)) * sub_h[:, None]
        sub_col = col[:, None] + np.where(sq, (q4 & 1), np.where(wide, q4, 0)) * sub_w[:, None]
        lv.child_row, lv.child_col = _plan_array(sub_row.ravel()), _plan_array(sub_col.ravel())
        lv.child_h, lv.child_w = _plan_array(sub_h), _plan_array(sub_w)
        # chunk q holds the ranks [q * quarter, (q + 1) * quarter), the last
        # chunk the rest; children follow in order, each A part then B part
        child_n = np.column_stack([quarter, quarter, quarter, n - 3 * quarter])
        lv.child_start = _plan_array(segment_starts(child_n.ravel()))
        _plan_broadcasts(lv, h, w)
        n, h, w = child_n.ravel(), np.repeat(sub_h, 4), np.repeat(sub_w, 4)
        row, col = sub_row.ravel(), sub_col.ravel()
        at = (at[:, None] + q4 * quarter[:, None]).ravel()
    return tuple(levels)


def _plan_broadcasts(lv: _Level, h: np.ndarray, w: np.ndarray) -> None:
    """The level's broadcasts, one per splitting subproblem: every shape's
    closed form (:func:`~repro.core.collectives._broadcast_tables`) once."""
    _, first, shape_of = np.unique(
        h * (int(w.max()) + 1) + w, return_index=True, return_inverse=True
    )
    tables = [_broadcast_tables(int(h[i]), int(w[i])) for i in first]
    sizes = [len(t[0]) for t in tables]
    if len(tables) == 1:  # the common case: views of the closed form's arrays
        lv.bc_dep, lv.bc_dst = (t.view() for t in tables[0][:2])
    else:
        lv.bc_dep = np.concatenate([t[0] for t in tables])
        lv.bc_dst = np.concatenate([t[1] for t in tables])
    lv.bc_dep.flags.writeable = lv.bc_dst.flags.writeable = False
    lv.bc_base = _plan_array(segment_starts(sizes)[shape_of])
    energy, messages, sends, dmax, smax = (
        np.array([t[i] for t in tables], dtype=np.int64)[shape_of] for i in range(2, 7)
    )
    lv.bc_dmax, lv.bc_smax = _plan_array(dmax), _plan_array(smax)
    lv.bc_charge = (int(energy.sum()), int(messages.sum()), int(sends.sum()))


def _merge_level(
    machine: SpatialMachine,
    cur: TrackedArray,
    rho: np.ndarray,
    na: np.ndarray,
    seg: np.ndarray,
    pos: np.ndarray,
    cell: np.ndarray,
    lv: _Level,
    origin: tuple[int, int],
    parked: list[tuple[TrackedArray, np.ndarray]],
) -> tuple:
    """One level of :func:`_merge_rec` over every live subproblem.

    ``cur`` holds each subproblem's ``A`` then ``B`` entries, subproblems in
    the plan's order; per entry, ``rho`` is its rank in its subproblem,
    ``seg`` its subproblem, ``pos`` its index there and ``cell`` the
    row-major index of its cell in the subproblem's region; ``na`` is each
    subproblem's ``|A|``.  Parks the leaves (appending ``(parked, index in
    the merges' output)`` to ``parked``) and returns the next level's
    ``(cur, rho, na, seg, pos, cell)``.
    """
    r0, c0 = origin
    # ---- leaves: park the merged chunk in row-major order of its region
    if lv.leaf.any():
        at = lv.leaf[seg]
        ls, lr = seg[at], rho[at]
        lrow, lcol, _, lw = lv.region[ls].T
        out = machine.send_many(
            (cur[at], r0 + lrow + lr // lw, c0 + lcol + lr % lw), starts=lv.leaf_starts
        )
        parked.append((out, lv.park_at[ls] + lr))
        keep = ~at
        cur, rho, pos, cell = cur[keep], rho[keep], pos[keep], cell[keep]
        seg, na = lv.split_of[seg[keep]], na[lv.split]
    if not len(lv.split):
        return cur, rho, na, seg, pos, cell
    nb = lv.n[lv.split] - na
    ks = lv.ks
    S = len(ks)
    row = r0 + lv.region[lv.split, 0]
    col = c0 + lv.region[lv.split, 1]
    seg_start = lv.seg_start

    # ---- find the three rank splitters of every subproblem (Lemma V.6)
    cut_a = np.zeros((S, 5), dtype=np.int64)
    cut_b = np.zeros((S, 5), dtype=np.int64)
    cut_a[:, 4], cut_b[:, 4] = na, nb
    split_d = np.empty(S, dtype=META_DTYPE)
    split_s = np.empty(S, dtype=META_DTYPE)
    where_r = np.empty(S, dtype=np.int64)
    where_c = np.empty(S, dtype=np.int64)
    two = (na > 0) & (nb > 0)
    one = ~two
    if one.any():
        # a one-sided pair splits for free: the whole chunk is its decision
        cut_a[one, 1:4] = np.where(nb[one, None] == 0, ks[one], 0)
        cut_b[one, 1:4] = np.where(nb[one, None] == 0, 0, ks[one])
        split_d[one] = np.maximum.reduceat(cur.depth, seg_start)[one]
        split_s[one] = np.maximum.reduceat(cur.dist, seg_start)[one]
        where_r[one] = cur.rows[seg_start[one]]
        where_c[one] = cur.cols[seg_start[one]]
        node = machine._phase_node
        if node is not None and one[0] and "two_sorted_select" not in node.children:
            # the depth-first body reaches this one-sided subproblem's
            # broadcast before any selection: keep the phases in that order
            with machine.phase("broadcast"):
                pass
    if two.any():
        ca, cb, dd, ds, wr, wc, _ = select_ranked(
            machine,
            cur,
            rho,
            seg_start[two],
            na[two],
            seg_start[two] + na[two],
            nb[two],
            ks[two],
            row[two],
            col[two],
        )
        cut_a[two, 1:4], cut_b[two, 1:4] = ca, cb
        split_d[two], split_s[two] = dd.max(1), ds.max(1)
        where_r[two], where_c[two] = wr[:, 2], wc[:, 2]

    # ---- broadcast the routing decision over each region, then move chunks
    corner = machine.send_many(
        (_tracked(machine, np.ones(S), where_r, where_c, split_d, split_s), row, col),
        starts=np.arange(S, dtype=np.int64),
    )
    with machine.phase("broadcast"):
        machine._charge(*lv.bc_charge)
        machine.observe_maxima(
            int((corner.depth + lv.bc_dmax).max()), int((corner.dist + lv.bc_smax).max())
        )
    at = lv.bc_base[seg] + cell
    ctl_d = corner.depth[seg] + lv.bc_dep[at]
    ctl_s = corner.dist[seg] + lv.bc_dst[at]

    # chunk q of a subproblem is A[cut_a[q]:cut_a[q+1]] || B[cut_b[q]:cut_b[q+1]]:
    # the ranks [q * quarter, (q + 1) * quarter), the last chunk taking the rest;
    # an entry's index j in its chunk is pos plus a shift per (child, side)
    quarter = ks[:, 0][seg]
    q = np.minimum(rho // quarter, 3)
    chunk_a = np.diff(cut_a, axis=1)
    shift = interleave((-cut_a[:, :4]).ravel(), (chunk_a - cut_b[:, :4] - na[:, None]).ravel())
    in_b = pos >= na[seg]
    child = 4 * seg + q
    j = pos + shift[2 * child + in_b]
    # sub-region q: square -> Z-order quadrants, wide/tall -> four strips
    jr, jc = np.divmod(j, lv.child_w[seg])
    dest_r = r0 + lv.child_row[child] + jr
    dest_c = c0 + lv.child_col[child] + jc

    # one send per (subproblem, chunk, side); entries regroup into the next
    # level's layout: children in order, each child's A part then B part
    child_start = lv.child_start
    order = np.empty(len(seg), dtype=np.int64)
    order[child_start[child] + j] = np.arange(len(seg), dtype=np.int64)
    moving = _tracked(
        machine,
        cur.payload[order],
        cur.rows[order],
        cur.cols[order],
        np.maximum(cur.depth, ctl_d)[order],
        np.maximum(cur.dist, ctl_s)[order],
    )
    moved = machine.send_many(
        (moving, dest_r[order], dest_c[order]),
        starts=interleave(child_start, child_start + chunk_a.ravel()),
    )
    pos = j[order]
    return moved, (rho - q * quarter)[order], chunk_a.ravel(), child[order], pos, pos


def _merged_order(A: TrackedArray, B: TrackedArray, key_cols: int) -> np.ndarray:
    """Indices into A||B in merged order, ties A-first then by position."""
    na, nb = len(A), len(B)
    keys = np.concatenate([A.payload[:, :key_cols], B.payload[:, :key_cols]])
    arr = np.concatenate([np.zeros(na), np.ones(nb)])
    pos = np.concatenate([np.arange(na), np.arange(nb)])
    return np.lexsort((pos, arr, *reversed([keys[:, c] for c in range(key_cols)])))


def _merge_rec(
    machine: SpatialMachine,
    A: TrackedArray,
    B: TrackedArray,
    region: Region,
    key_cols: int,
    base_case: int,
    offset: int,
    placed_parts: list[TrackedArray],
    rank_parts: list[np.ndarray],
) -> None:
    n = len(A) + len(B)
    if n == 0:
        return
    if n <= base_case or region.height == 1 or region.width == 1 or n < 4:
        # park the merged chunk in row-major order of its (tiny) region
        union = concat_tracked([p for p in (A, B) if len(p)])
        order = _merged_order(A, B, key_cols)
        rows, cols = region.rowmajor_coords(n)
        inv = np.empty(n, dtype=np.int64)
        inv[order] = np.arange(n, dtype=np.int64)
        parked = machine.send(union, rows[inv], cols[inv])
        placed_parts.append(parked)
        rank_parts.append(offset + inv)
        return

    # ---- find the three rank splitters with one shared sample (Lemma V.6)
    quarter = n // 4
    splits = select_ranks_two_sorted(
        machine,
        A,
        B,
        [quarter, 2 * quarter, 3 * quarter],
        key_cols=key_cols,
        staging=Region(region.row, region.col, 1, 1),
    )
    cuts_a = [0, *(s.cut_a for s in splits), len(A)]
    cuts_b = [0, *(s.cut_b for s in splits), len(B)]
    split_depth = max(s.depth for s in splits)
    split_dist = max(s.dist for s in splits)
    split_where = splits[-1].where

    # ---- broadcast the routing decision over the region, then move chunks
    decision = machine.place(np.array([1.0]), [split_where[0]], [split_where[1]])
    decision = decision.depending_on_meta(split_depth, split_dist)
    corner_val = machine.send(
        decision, np.array([region.row]), np.array([region.col])
    )
    blanket = broadcast(machine, corner_val, region)

    subregions = merge_subregions(region)
    for q in range(4):
        aq = A[cuts_a[q] : cuts_a[q + 1]]
        bq = B[cuts_b[q] : cuts_b[q + 1]]
        sub = subregions[q]
        rows, cols = sub.rowmajor_coords(len(aq) + len(bq))
        moved: list[TrackedArray] = []
        if len(aq):
            aq = aq.depending_on(blanket[region.rowmajor_index(aq.rows, aq.cols)])
            moved.append(machine.send(aq, rows[: len(aq)], cols[: len(aq)]))
        if len(bq):
            bq = bq.depending_on(blanket[region.rowmajor_index(bq.rows, bq.cols)])
            moved.append(machine.send(bq, rows[len(aq) :], cols[len(aq) :]))
        _merge_rec(
            machine,
            moved[0] if len(aq) else moved[0][0:0],
            moved[1] if len(aq) and len(bq) else (moved[0][0:0] if len(aq) else moved[0]),
            sub,
            key_cols,
            base_case,
            offset + q * quarter,
            placed_parts,
            rank_parts,
        )
