"""Rank (multi)selection in two sorted arrays (paper, Section V.C(c), Lemma V.6).

Given sorted arrays ``A`` and ``B``, find the rank-``k`` element(s) of their
union — the multiselection problem [Deo et al.], the splitter-finding engine
of the 2D merge.  The trick: rank a sqrt-sized *deterministic* sample with
the All-Pairs Sort, search the chosen sample element back into both arrays,
and finish inside two ``O(sqrt(n))``-sized windows:

1. gather every ``⌊√n⌋``-th element of ``A`` and ``B`` into a sample ``S``;
2. All-Pairs-Sort ``S`` (shared by all requested ranks — the 2D merge asks
   for ranks ``n/4``, ``n/2`` and ``3n/4`` of the same pair at once);
3. ``l = ⌊(k-1)/⌊√n⌋⌋``;
4. locate the ``l``-th ranked sample in ``A`` and in ``B`` with a *two-level*
   binary search whose probes are relayed messages with geometrically
   shrinking hops (a flat binary search from a fixed source would cost
   ``Θ(sqrt(n) log n)`` distance — the suboptimality the paper warns about);
5. narrow to windows of ``k - a - b`` elements past the located positions
   (the prefix-exclusion bound gives ``k - a - b <= 3⌊√n⌋ + 1``);
6. All-Pairs-Sort the windows and read off the rank-``(k - a - b)`` element.

Costs: ``O(n^{5/4})`` energy, ``O(log n)`` depth, ``O(sqrt(n))`` distance —
dominated by the All-Pairs Sorts of ``O(sqrt(n))`` elements (Lemma V.5).

Ties are resolved by the strict total order ``(keys, which-array, index)``,
so every rank is unique and the split sizes are exact.

A clean fast machine runs :func:`select_ranks_two_sorted_many`, which
selects in many pairs at once with identical counters; every other machine
runs the per-call body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...machine.fastpath import interleave, ragged, relay_flat, segment_starts
from ...machine.geometry import Region
from ...machine.machine import SpatialMachine, TrackedArray, _tracked, concat_tracked
from ...machine.metrics import META_DTYPE
from ..validate import check_keys
from .allpairs import _subgrid_sides, allpairs_sort, allpairs_sort_ranked
from .sortutil import merged_ranks

__all__ = [
    "select_rank_two_sorted",
    "select_ranks_two_sorted",
    "select_ranks_two_sorted_many",
    "TwoArraySplit",
]


@dataclass(frozen=True)
class TwoArraySplit:
    """Result of a two-sorted-array rank selection.

    ``cut_a + cut_b == k``: the ``k`` smallest elements of ``A || B`` are
    exactly ``A[:cut_a]`` and ``B[:cut_b]``.  ``depth``/``dist`` is the cost
    metadata of the decision (available at ``where``), which callers must
    thread into everything that depends on the split.
    """

    cut_a: int
    cut_b: int
    depth: int
    dist: int
    where: tuple[int, int]
    used_fallback: bool = False


def _augment(ta: TrackedArray, key_cols: int, arr_id: float) -> TrackedArray:
    """Append (which-array, index) columns — tie-break and identity at once."""
    n = len(ta)
    p = ta.payload
    out = np.empty((n, key_cols + 2), dtype=np.float64)
    out[:, :key_cols] = p[:, :key_cols]
    out[:, key_cols] = arr_id
    out[:, key_cols + 1] = np.arange(n, dtype=np.float64)
    return ta.with_payload(out)


def _probe_plan(
    arr: TrackedArray, target_row: np.ndarray, kc: int
) -> tuple[int, np.ndarray]:
    """#elements of ``arr`` strictly below ``target_row``, plus the probe
    index sequence of the relayed two-level (block anchors, then
    within-block) binary search.  Pure planning — the caller charges the
    probes as one chain of a batched :meth:`SpatialMachine.relay_many`."""
    n = len(arr)
    if n == 0:
        return 0, np.empty(0, dtype=np.int64)
    # arr is sorted under the strict key order, so "strictly below target"
    # is a prefix: count is its lower-bound index (O(kc log n) scalar
    # compares) and any probed index i is below iff i < count
    P = arr.payload
    t = tuple(target_row[:kc])
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if tuple(P[mid, :kc]) < t:
            lo = mid + 1
        else:
            hi = mid
    count = lo

    stride = max(1, math.isqrt(n))
    probes: list[int] = []

    def bisect(lo: int, hi: int, step: int) -> int:
        """Probe indices lo, lo+step, ... to find the first not-below."""
        lo_i, hi_i = 0, (hi - lo + step - 1) // step  # block count
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            idx = min(lo + mid * step, n - 1)
            probes.append(idx)
            if idx < count:
                lo_i = mid + 1
            else:
                hi_i = mid
        return lo + lo_i * step

    first_block = bisect(0, n, stride)  # anchor level
    block_lo = max(0, first_block - stride)
    bisect(block_lo, min(n, block_lo + 2 * stride), 1)  # within-block level
    return count, np.asarray(probes, dtype=np.int64)


def select_ranks_two_sorted(
    machine: SpatialMachine,
    A: TrackedArray,
    B: TrackedArray,
    ks: list[int],
    key_cols: int = 1,
    staging: Region | None = None,
) -> list[TwoArraySplit]:
    """Split sorted ``A`` and ``B`` at several ranks, sharing one sample sort.

    Ranks are 1-based.  Returns one :class:`TwoArraySplit` per requested rank,
    in order.  A NaN key raises ``ValueError`` on every machine.  A clean
    fast machine runs the batched body (:func:`select_ranks_two_sorted_many`)
    on this one pair.
    """
    na, nb = len(A), len(B)
    n = na + nb
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"rank k={k} out of range 1..{n}")
    check_keys(A.payload, key_cols, "select_ranks_two_sorted A")
    check_keys(B.payload, key_cols, "select_ranks_two_sorted B")
    if na == 0 or nb == 0:
        full = A if nb == 0 else B
        where = (int(full.rows[0]), int(full.cols[0]))
        meta = (int(full.depth.max()), int(full.dist.max()))
        return [
            TwoArraySplit(k if nb == 0 else 0, 0 if nb == 0 else k, *meta, where)
            for k in ks
        ]
    if staging is None:
        r0 = int(min(A.rows.min(), B.rows.min()))
        c0 = int(min(A.cols.min(), B.cols.min()))
        staging = Region(r0, c0, 1, 1)
    if machine.clean_fast:
        cut_a, cut_b, depth, dist, where_r, where_c, fallback = select_ranks_two_sorted_many(
            machine,
            A,
            np.array([na]),
            B,
            np.array([nb]),
            np.array([ks], dtype=np.int64).reshape(1, len(ks)),
            key_cols,
            np.array([staging.row]),
            np.array([staging.col]),
        )
        return [
            TwoArraySplit(
                int(cut_a[0, j]),
                int(cut_b[0, j]),
                int(depth[0, j]),
                int(dist[0, j]),
                (int(where_r[0, j]), int(where_c[0, j])),
                used_fallback=bool(fallback[0, j]),
            )
            for j in range(len(ks))
        ]
    return _select_depth_first(machine, A, B, ks, key_cols, staging)


def _select_depth_first(
    machine: SpatialMachine,
    A: TrackedArray,
    B: TrackedArray,
    ks: list[int],
    key_cols: int,
    staging: Region,
) -> list[TwoArraySplit]:
    """The per-call body: one sample sort, relay round and window sort per
    rank (the conformance oracle for the batched body)."""
    na, nb = len(A), len(B)
    n = na + nb
    Aa = _augment(A, key_cols, 0.0)
    Bb = _augment(B, key_cols, 1.0)
    kc = key_cols + 2  # strict keys: (user keys, which-array, index)

    with machine.phase("two_sorted_select"):
        step = max(1, math.isqrt(n))
        if n <= 16 or step <= 1:
            return [
                _window_select(machine, Aa, Bb, k, 0, 0, kc, key_cols, staging, 0, 0, None)
                for k in ks
            ]

        # -- 1-2: gather and All-Pairs-Sort the deterministic sample (shared)
        sa = Aa[np.arange(0, na, step, dtype=np.int64)]
        sb = Bb[np.arange(0, nb, step, dtype=np.int64)]
        sample = concat_tracked([sa, sb])
        sorted_s = allpairs_sort(
            machine,
            sample,
            out_region=None,
            key_cols=kc,
            workspace=Region(staging.row, staging.col, 1, 1),
        )

        # -- 3-4: pick each rank's l-th ranked sample and plan its A- and
        #    B-search probe chains; every chain of the round is charged in
        #    one batched relay_many call.  The B-chain starts from the
        #    A-chain's end metadata (carry), matching the sequential search.
        chains: list[tuple] = []
        carry: list[bool] = []
        per_k: list[tuple[int, int, int] | None] = []
        for k in ks:
            l = min((k - 1) // step, len(sorted_s))
            if l == 0:
                per_k.append(None)
                continue
            sl = sorted_s[l - 1 : l]
            src = (int(sl.rows[0]), int(sl.cols[0]))
            depth, dist = int(sl.depth[0]), int(sl.dist[0])
            target = sl.payload[0]
            a, pa = _probe_plan(Aa, target, kc)
            b, pb = _probe_plan(Bb, target, kc)
            chains.append((src, Aa.rows[pa], Aa.cols[pa], depth, dist))
            carry.append(False)
            chains.append((src, Bb.rows[pb], Bb.cols[pb], 0, 0))
            carry.append(True)
            per_k.append((len(chains) - 1, a, b))
        ends = machine.relay_many(chains, carry) if chains else []

        out: list[TwoArraySplit] = []
        for k, info in zip(ks, per_k):
            if info is None:
                a = b = 0
                depth = int(sorted_s.depth.max())
                dist = int(sorted_s.dist.max())
            else:
                bi, a, b = info
                depth, dist = ends[bi]
            # -- 5-6: solve inside the windows
            out.append(
                _window_select(
                    machine, Aa, Bb, k, a, b, kc, key_cols, staging, depth, dist, step
                )
            )
        return out


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.isqrt`, at least 1."""
    r = np.sqrt(n).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return np.maximum(1, r)


def _bisect_steps(
    lo: np.ndarray, hi: np.ndarray, t: np.ndarray, width: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Bisect ``[lo, hi)`` in lockstep, ``t`` blocks below the target, until
    every interval is at most ``width`` blocks wide.  Returns the probed
    block of each step (-1 where a search did not probe) and the final
    intervals."""
    steps = []
    while True:
        active = hi - lo > width
        if not active.any():
            return steps, lo, hi
        mid = (lo + hi) >> 1
        steps.append(np.where(active, mid, -1))
        below = mid < t
        lo = np.where(active & below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)


#: widest bisection :func:`_bisect_table` holds (~600 KB of int16 cells)
_BISECT_CAP = 256

# every bisection over [0, h) blocks, stacked for each h up to the largest
# seen: row h * (h + 1) // 2 + t lists, in probe order, the blocks probed when
# the first t blocks lie below the target (-1 pads a row); read-only, and
# replaced whole when a wider h shows up
_BISECT = np.full((1, 0), -1, dtype=np.int16)


def _bisect_table(hmax: int) -> np.ndarray:
    """The stacked bisection probes for every ``h <= hmax <= _BISECT_CAP``
    (built for ``h <= 64`` at least)."""
    global _BISECT
    table = _BISECT
    if len(table) > hmax * (hmax + 1) // 2 + hmax:
        return table
    hmax = min(_BISECT_CAP, max(64, 1 << (hmax - 1).bit_length()))
    h = np.repeat(np.arange(hmax + 1, dtype=np.int64), np.arange(1, hmax + 2))
    t = np.arange(len(h), dtype=np.int64) - h * (h + 1) // 2
    steps, _, _ = _bisect_steps(np.zeros_like(h), h, t, 0)
    table = np.stack(steps, 1).astype(np.int16)
    table.flags.writeable = False
    _BISECT = table
    return table


def _bisections(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Blocks probed by bisections over ``[0, h[i])`` with the first ``t[i]``
    below the target: one row per search, -1 where it did not probe.  A
    search wider than the table steps in lockstep until it fits."""
    head, lo, hi = _bisect_steps(np.zeros_like(h), h, t, _BISECT_CAP)
    w = hi - lo
    tail = _bisect_table(int(w.max(initial=0)))[w * (w + 1) // 2 + t - lo]
    if not head:
        return tail
    return np.concatenate([np.stack(head, 1), np.where(tail < 0, -1, tail + lo[:, None])], 1)


def _probe_chains(n: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched form of :func:`_probe_plan` over many searches.

    Search ``i`` looks for the first index of an ``n[i] >= 1``-long sorted
    array not below a target with ``count[i]`` entries strictly below it.
    Returns the probe indices grouped by search in probe order, plus the
    number of probes per search.  Where each level's bisection ends is
    arithmetic (the probes below the target are a prefix), so both levels
    read their probes from :func:`_bisections`.
    """
    stride = _isqrt(n)
    # anchor level: block b probes index min(b * stride, n - 1), below the
    # target for the first ceil(count / stride) blocks
    t1 = (count + stride - 1) // stride
    p1 = _bisections((n + stride - 1) // stride, t1)
    # within-block level: index block_lo + b, below for the first count - block_lo
    block_lo = np.maximum(0, (t1 - 1) * stride)
    h2 = np.minimum(n, block_lo + 2 * stride) - block_lo
    p2 = _bisections(h2, np.clip(count - block_lo, 0, h2))
    probed = np.concatenate([p1 >= 0, p2 >= 0], 1)
    at = np.concatenate(
        [np.minimum(p1 * stride[:, None], (n - 1)[:, None]), block_lo[:, None] + p2], 1
    )
    return at[probed], probed.sum(1)


def select_ranks_two_sorted_many(
    machine: SpatialMachine,
    A: TrackedArray,
    a_sizes: np.ndarray,
    B: TrackedArray,
    b_sizes: np.ndarray,
    ks: np.ndarray,
    key_cols: int,
    staging_rows: np.ndarray,
    staging_cols: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Select ranks in many independent pairs at once (clean fast machines).

    Pair ``p`` is the next ``a_sizes[p] >= 1`` entries of ``A`` and the next
    ``b_sizes[p] >= 1`` entries of ``B``, staged at ``(staging_rows[p],
    staging_cols[p])``; row ``p`` of the ``(pairs, ranks)`` array ``ks``
    holds its 1-based ranks.  Every counter equals one
    :func:`select_ranks_two_sorted` call per pair.  Sorts every pair's
    union once (:func:`merged_ranks`) and hands the ranks to
    :func:`select_ranked`.  Returns ``(cut_a, cut_b, depth, dist,
    where_rows, where_cols, used_fallback)``, each shaped like ``ks``.
    """
    if not machine.clean_fast:
        raise ValueError(
            "select_ranks_two_sorted_many charges closed forms: clean fast machines only"
        )
    na = np.asarray(a_sizes, dtype=np.int64)
    nb = np.asarray(b_sizes, dtype=np.int64)
    a_start, a_pair, a_pos = ragged(na)
    b_start, b_pair, b_pos = ragged(nb)
    b_start += len(A)  # B entries follow A's in the union layout U = A || B
    U = concat_tracked([A, B])
    rank = merged_ranks(
        np.concatenate([A.payload[:, :key_cols], B.payload[:, :key_cols]]),
        key_cols,
        np.concatenate([a_pair, b_pair]),
        np.repeat([False, True], [len(A), len(B)]),
        np.concatenate([a_pos, b_pos]),
        segment_starts(na + nb),
    )
    return select_ranked(
        machine, U, rank, a_start, na, b_start, nb, ks, staging_rows, staging_cols
    )


def select_ranked(
    machine: SpatialMachine,
    U: TrackedArray,
    rank: np.ndarray,
    a_start: np.ndarray,
    na: np.ndarray,
    b_start: np.ndarray,
    nb: np.ndarray,
    ks: np.ndarray,
    staging_rows: np.ndarray,
    staging_cols: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The batched selection body, given every entry's merged rank.

    ``A`` of pair ``p`` is ``U[a_start[p] : a_start[p] + na[p]]`` and ``B``
    is ``U[b_start[p] : b_start[p] + nb[p]]``; ``rank[i]`` is entry ``i``'s
    0-based rank in its pair's merged strict order (:func:`merged_ranks`).
    Only ``U``'s cells and metadata are read: the ranks fix every order the
    selection needs.  An entry at position ``p`` of its own side with rank
    ``r`` has ``r - p`` entries of the other side below it, so the target's
    A/B counts, the sample ranks and the window ranks are arithmetic, and
    every All-Pairs Sort of the round (samples and windows: the windows
    depend only on these host-known counts) is one segmented charge.  All
    probe chains are one relay charge.  Returns what
    :func:`select_ranks_two_sorted_many` returns.
    """
    ks = np.asarray(ks, dtype=np.int64)
    npairs, nk = ks.shape
    n = na + nb
    step = _isqrt(n)
    big = (n > 16) & (step > 1)
    pair_k = np.repeat(np.arange(npairs, dtype=np.int64), nk)
    k = ks.ravel()
    a = np.zeros(len(k), dtype=np.int64)
    b = np.zeros(len(k), dtype=np.int64)
    depth = np.zeros(len(k), dtype=META_DTYPE)
    dist = np.zeros(len(k), dtype=META_DTYPE)
    if not npairs:
        z = np.zeros(0, dtype=np.int64)
        return a, b, depth, dist, z, z, np.zeros(0, dtype=bool)

    # -- 1: every big pair's deterministic sample A[::step] || B[::step];
    #    side 0 is A, side 1 is B, and own = position within the side
    bp = np.flatnonzero(big)
    st_p = step[bp]
    count_a, count_b = (na[bp] + st_p - 1) // st_p, (nb[bp] + st_p - 1) // st_p
    s_sizes = count_a + count_b
    _, s_grp, s_i = ragged(interleave(count_a, count_b))
    s_step = st_p[s_grp // 2]
    s_own = s_i * s_step
    s_idx = interleave(a_start[bp], b_start[bp])[s_grp] + s_own
    # sample rank: i samples of its own side below it, and ceil(c / step) of
    # the other side, whose first c = rank - own entries are below it
    s_rank = s_i + (rank[s_idx] - s_own + s_step - 1) // s_step

    # -- 3: the l-th ranked sample of each requested rank, and its A/B counts
    s_start = segment_starts(s_sizes)
    s_at = np.empty(len(s_idx), dtype=np.int64)  # sample slot of each sample rank
    s_at[s_start[s_grp // 2] + s_rank] = np.arange(len(s_idx), dtype=np.int64)
    slot = np.full(npairs, -1, dtype=np.int64)
    slot[bp] = np.arange(len(bp), dtype=np.int64)
    kb = np.flatnonzero(big[pair_k])
    sp = slot[pair_k[kb]]
    l = np.minimum((k[kb] - 1) // step[pair_k[kb]], s_sizes[sp])
    none = l == 0
    kt = kb[~none]
    t = s_at[s_start[sp[~none]] + l[~none] - 1]
    other = rank[s_idx[t]] - s_own[t]
    from_b = (s_grp[t] & 1).astype(bool)
    a[kt] = np.where(from_b, other, s_own[t])
    b[kt] = np.where(from_b, s_own[t], other)
    probe_a, probe_b = a[kt], b[kt]

    # -- 5: windows of kp entries past the counts on each side (the sampling
    #    guarantee bounds kp; a violation, impossible under the strict total
    #    order, falls back to the full arrays)
    kp = k - a - b
    fallback = big[pair_k] & ((kp < 1) | (kp > 3 * step[pair_k] + 2))
    a[fallback] = 0
    b[fallback] = 0
    kp[fallback] = k[fallback]
    wa = np.minimum(na[pair_k], a + kp) - a
    wb = np.minimum(nb[pair_k], b + kp) - b
    w_sizes = wa + wb
    _, w_grp, w_i = ragged(interleave(wa, wb))
    w_k = w_grp // 2
    w_b = (w_grp & 1).astype(bool)
    lo = interleave(a, b)
    w_own = lo[w_grp] + w_i
    w_idx = interleave(a_start[pair_k], b_start[pair_k])[w_grp] + w_own
    # window rank: its own side's window entries before it, plus the other
    # side's window entries among the rank - own entries below it
    other_lo = lo[w_grp ^ 1]
    other_n = np.where(w_b, wa[w_k], wb[w_k])
    w_rank = w_i + np.clip(rank[w_idx] - w_own - other_lo, 0, other_n)

    with machine.phase("two_sorted_select"):
        # -- 2, 6: one segmented All-Pairs Sort of every sample and window,
        #    each sorted onto the square at its own corner
        sizes = np.concatenate([s_sizes, w_sizes])
        idx = np.concatenate([s_idx, w_idx])
        seg_pair = np.concatenate([bp, pair_k])
        starts = segment_starts(sizes)
        rows, cols = U.rows[idx], U.cols[idx]
        placed = _tracked(machine, np.empty((len(idx), 0)), rows, cols, U.depth[idx], U.dist[idx])
        if len(sizes):  # no ranks requested of small pairs: nothing to sort
            placed = allpairs_sort_ranked(
                machine,
                placed,
                sizes,
                np.concatenate([s_rank, w_rank]),
                np.minimum.reduceat(rows, starts),
                np.minimum.reduceat(cols, starts),
                _subgrid_sides(sizes),
                staging_rows[seg_pair],
                staging_cols[seg_pair],
            )
        if none.any():
            # no sample below the rank: the window waits for the whole sample sort
            ns = len(s_idx)
            depth[kb[none]] = np.maximum.reduceat(placed.depth[:ns], s_start)[sp[none]]
            dist[kb[none]] = np.maximum.reduceat(placed.dist[:ns], s_start)[sp[none]]
        if len(kt):
            # -- 4: two-level probe chains from the target, A then B
            #    (carrying A's end)
            pt = pair_k[kt]
            probes, hops = _probe_chains(
                interleave(na[pt], nb[pt]), interleave(probe_a, probe_b)
            )
            probe_at = probes + np.repeat(interleave(a_start[pt], b_start[pt]), hops)
            end_d, end_s = relay_flat(
                machine,
                np.repeat(placed.rows[t], 2),
                np.repeat(placed.cols[t], 2),
                U.rows[probe_at],
                U.cols[probe_at],
                hops,
                interleave(placed.depth[t], np.zeros_like(t)),
                interleave(placed.dist[t], np.zeros_like(t)),
                np.tile([False, True], len(kt)),
            )
            depth[kt] = end_d[1::2]
            dist[kt] = end_s[1::2]

    # -- 6: the kp-th smallest of each window decides its rank
    w_start = segment_starts(w_sizes)
    w_at = np.empty(len(w_idx), dtype=np.int64)
    w_at[w_start[w_k] + w_rank] = np.arange(len(w_idx), dtype=np.int64)
    e = w_at[w_start + kp - 1]
    pe = len(s_idx) + e
    depth = np.maximum(depth, placed.depth[pe])
    dist = np.maximum(dist, placed.dist[pe])
    cut_a = np.where(w_b[e], k - (w_own[e] + 1), w_own[e] + 1)
    return tuple(
        v.reshape(ks.shape)
        for v in (
            cut_a, k - cut_a, depth, dist, placed.rows[pe], placed.cols[pe], fallback
        )
    )


def select_rank_two_sorted(
    machine: SpatialMachine,
    A: TrackedArray,
    B: TrackedArray,
    k: int,
    key_cols: int = 1,
    staging: Region | None = None,
) -> TwoArraySplit:
    """Single-rank convenience wrapper around :func:`select_ranks_two_sorted`."""
    return select_ranks_two_sorted(machine, A, B, [k], key_cols, staging)[0]


def _window_select(
    machine: SpatialMachine,
    Aa: TrackedArray,
    Bb: TrackedArray,
    k: int,
    a: int,
    b: int,
    kc: int,
    key_cols: int,
    staging: Region,
    depth: int,
    dist: int,
    step: int | None,
) -> TwoArraySplit:
    na, nb = len(Aa), len(Bb)
    kp = k - a - b
    fallback = False
    if step is not None and not 1 <= kp <= 3 * step + 2:
        # sampling guarantee violated (cannot happen under the strict total
        # order; kept as a correctness net): sort the full arrays.
        a = b = 0
        kp = k
        fallback = True
    # the kp-th smallest of A[a:] || B[b:] needs only kp elements of each
    awin = Aa[a : min(na, a + kp)]
    bwin = Bb[b : min(nb, b + kp)]
    union = concat_tracked([p for p in (awin, bwin) if len(p)])
    sorted_u = allpairs_sort(
        machine,
        union,
        out_region=None,
        key_cols=kc,
        workspace=Region(staging.row, staging.col, 1, 1),
    )
    e = sorted_u[kp - 1 : kp]
    depth = max(depth, int(e.depth[0]))
    dist = max(dist, int(e.dist[0]))
    arr_id = e.payload[0, key_cols]
    idx = int(round(e.payload[0, key_cols + 1]))
    cut_a = idx + 1 if arr_id == 0.0 else k - (idx + 1)
    cut_b = k - cut_a
    return TwoArraySplit(
        cut_a,
        cut_b,
        depth,
        dist,
        (int(e.rows[0]), int(e.cols[0])),
        used_fallback=fallback,
    )
