"""Randomized rank selection with linear energy (paper, Section VI).

Selecting the rank-``k`` element (e.g. the median) takes only ``Θ(n)`` energy
— a polynomial-factor separation from sorting's ``Θ(n^{3/2})``.  Since
gathering one element across the ``sqrt(n)``-diameter grid costs
``O(sqrt(n))`` energy, the largest sample collectable in ``O(n)`` energy has
``O(sqrt(n))`` elements; the algorithm (in the spirit of Reischuk's selection)
repeats, until at most ``c*sqrt(n)`` elements remain *active*:

1. sample each active element independently with probability ``c/sqrt(N)``;
2. gather the sample into a square subgrid — a parallel scan assigns indices,
   a broadcast announces the sample size;
3. choose two pivot ranks ``r = min(|S|, c k N^{-1/2} + (c/2) N^{1/4} sqrt(ln n))``
   and ``l = c k N^{-1/2} - (c/2) N^{1/4} sqrt(ln n)`` (the low pivot is the
   dummy ``-inf`` when ``k < 0.5 N^{3/4} sqrt(ln n)``); Bitonic-Sort the
   sample to read them off;
4. broadcast both pivots;
5. count actives below ``s_l`` / above ``s_r`` with an all-reduce; if the
   pivots missed (probability ``<= 2 n^{-c/6}``, Lemma VI.1) fall back to a
   full 2D Mergesort; otherwise adjust ``k``;
6. deactivate elements outside ``(s_l, s_r)``;
7. all-reduce the new ``N``; if ``k > ceil(N/2)`` flip the comparison order
   (negate keys, locally) and set ``k = N - k + 1``.

Each iteration costs ``O(n)`` energy and the active count drops like
``N -> N^{4/5}`` w.h.p. (Lemma VI.2), so ``O(1)`` iterations suffice:
``O(n)`` energy, ``O(log^2 n)`` depth (the sample's bitonic sort),
``O(sqrt(n))`` distance, all w.h.p. (Theorem VI.3).

Ties are handled by an internal ``(value, z-position)`` total order, so exact
counts and ranks are well-defined for duplicate-heavy inputs.

One loop runs the rounds over one of two bodies, which hold the elements and
serve its three requests: gather a masked sample (steps 1-2), gate every
element on a value broadcast from the region corner (step 4), and
all-reduce 0/1 flags, then gate on the sums (steps 5 and 7).

* :class:`_Copies` runs on every machine that is not
  :attr:`~repro.machine.SpatialMachine.clean_fast` (reference, strict,
  traced, profiled or fault-injecting).  It calls
  :func:`~repro.core.gather.gather_masked`,
  :func:`~repro.core.collectives.broadcast_onto` and
  :func:`~repro.core.collectives.reduce` on a tracked array, and it is the
  oracle of the other body.
* :class:`_ClosedForm` runs on a clean fast machine.  Depth and distance
  are ``(max, +)`` quantities, and every gate is a broadcast from the same
  corner over the same region, so each element carries
  ``max(m0, C + off[cell])``: its input metadata, the largest gate root so
  far (one scalar per field) and the region's broadcast offset.  The gather
  scan's outputs at the sampled cells, each reduce's root and every phase
  maximum follow from ``C`` and tables fixed by the side; a round touches
  ``n``-sized arrays only for its random draws, compares and counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..machine.fastpath import quad_reduce_charge, quad_reduce_offsets
from ..machine.geometry import Region
from ..machine.machine import SpatialMachine, TrackedArray, _tracked, concat_tracked
from .collectives import _broadcast_tables, broadcast_many, broadcast_onto, reduce
from .gather import gather_masked, staging_square
from .ops import ADD
from .scan import _SHIFT, _layout_plan, _ScanPlan, _sweep_meta
from .sorting.bitonic import bitonic_sort
from .sorting.mergesort2d import mergesort_2d
from .sorting.sortutil import lex_less

__all__ = ["rank_select", "SelectionResult"]


@dataclass
class SelectionResult:
    """Outcome of one rank selection run."""

    value: float
    iterations: int
    fell_back: bool
    #: decision metadata: depth/distance of the chain producing the answer
    depth: int
    dist: int
    #: active-element count before each iteration plus the final count —
    #: the N_t trajectory of Lemma VI.2
    active_history: list[int] | None = None


class _Copies:
    """The elements as a tracked array, gated and counted by the collectives
    themselves; every machine that is not clean fast runs this body."""

    def __init__(self, machine: SpatialMachine, ta: TrackedArray, region: Region) -> None:
        self.machine, self.elems, self.region = machine, ta, region

    def gather(self, payload: np.ndarray, mask: np.ndarray) -> TrackedArray:
        """Park the ``mask``-selected elements, carrying ``payload``, on the
        staging square (paper, step 2: a scan assigns the slots and a
        broadcast announces the count)."""
        return gather_masked(self.machine, self.elems.with_payload(payload), mask, self.region)

    def gate(self, root: TrackedArray) -> None:
        """Make every element depend on ``root``, broadcast from the corner."""
        self.elems = broadcast_onto(self.machine, root, self.region, self.elems)

    def all_reduce(self, *flags: np.ndarray) -> list[int]:
        """Sum each 0/1 flag array to the corner, then gate on the sums."""
        payload = np.stack([f.astype(np.float64) for f in flags], axis=1)
        totals = reduce(self.machine, self.elems.with_payload(payload), self.region, ADD)
        self.gate(totals)
        return [int(round(v)) for v in totals.payload[0]]


class _Sweeps(NamedTuple):
    """What a round's collectives make of elements carrying some metadata:
    ``(depth, dist)`` pairs of the gather scan's per-element inclusive
    prefixes, its up-sweep root and the largest exclusive and inclusive
    prefix, and the root of a reduce to the corner."""

    inc: np.ndarray  # (2, n), Z-order
    root: tuple[int, int]
    excl_max: tuple[int, int]
    inc_max: tuple[int, int]
    reduce_root: tuple[int, int]


def _sweeps(plan: _ScanPlan, side: int, meta: np.ndarray) -> _Sweeps:
    """The :class:`_Sweeps` of elements carrying the ``(2, n)`` ``meta``."""
    root, excl = _sweep_meta(plan, meta)
    inc = np.maximum(excl, meta)
    reduce_root = (meta + np.stack(quad_reduce_offsets(side)[:2])).max(axis=1)
    return _Sweeps(
        inc,
        tuple(root[:, 0].tolist()),
        tuple(excl.max(axis=1).tolist()),
        tuple(inc.max(axis=1).tolist()),
        tuple(reduce_root.tolist()),
    )


# per side: the region's broadcast offsets in Z-order and their _Sweeps
_ROUND_TABLES: dict[int, tuple[np.ndarray, _Sweeps]] = {}


def _round_tables(side: int, plan: _ScanPlan) -> tuple[np.ndarray, _Sweeps]:
    """Per-side tables of the closed-form rounds (cached; read-only).

    ``off`` is the ``(2, n)`` broadcast offset at each Z-ordered cell of a
    ``side x side`` region.  The second entry is :func:`_sweeps` of ``off``
    with the scan's zero-root term dropped: ``(max, +)`` arithmetic is
    linear in a shift of its input, so elements carrying ``C + off`` have
    ``C`` plus these offsets.
    """
    cached = _ROUND_TABLES.get(side)
    if cached is not None:
        return cached
    depth_off, dist_off = _broadcast_tables(side, side)[:2]
    cells = plan.rows * side + plan.cols
    off = np.stack([depth_off[cells], dist_off[cells]])
    sw = _sweeps(plan, side, off + _SHIFT)
    inc = sw.inc - _SHIFT
    off.flags.writeable = inc.flags.writeable = False
    tables = off, _Sweeps(inc, *(tuple(v - _SHIFT for v in f) for f in sw[1:]))
    _ROUND_TABLES[side] = tables
    return tables


class _ClosedForm:
    """The elements as their input metadata ``m0`` and one running scalar per
    field, ``C``, the largest gate root so far: element ``i`` carries
    ``max(m0[i], C + off[i])``.  Every figure a round charges or observes is
    ``max(own, C + table)`` of :func:`_sweeps` of ``m0`` (``own``, swept
    once per call) and of :func:`_round_tables`, so no round sweeps the
    metadata of all ``n`` elements.  Clean fast machines only.
    """

    def __init__(
        self, machine: SpatialMachine, ta: TrackedArray, region: Region, plan: _ScanPlan
    ) -> None:
        self.machine, self.region, self.plan = machine, region, plan
        self.side = region.width
        self.rows, self.cols = ta.rows, ta.cols
        self.off, self.table = _round_tables(self.side, plan)
        self.own = _sweeps(plan, self.side, np.stack([ta.depth, ta.dist]))
        self.cd = self.cs = -_SHIFT  # no gate yet

    def _lift(self, own: tuple[int, int], table: tuple[int, int]) -> tuple[int, int]:
        return max(own[0], self.cd + table[0]), max(own[1], self.cs + table[1])

    def gather(self, payload: np.ndarray, mask: np.ndarray) -> TrackedArray:
        """:meth:`_Copies.gather`: the scan's sweeps and the count's send
        and gate are charged whole; the slots are the mask's order and the
        metadata is read at the sampled cells only."""
        m, region, plan = self.machine, self.region, self.plan
        idx = np.flatnonzero(mask)
        with m.phase("gather"):
            root = self._lift(self.own.root, self.table.root)
            if plan.inc:  # a one-cell scan has no tree
                with m.phase("scan"):
                    with m.phase("up_sweep"):
                        m._charge(plan.energy, plan.messages, plan.sends)
                        m.observe_maxima(*root)
                    with m.phase("down_sweep"):
                        m._charge(plan.energy, plan.messages, plan.sends)
                        m.observe_maxima(*self._lift(self.own.excl_max, self.table.excl_max))
                    m.observe_maxima(*self._lift(self.own.inc_max, self.table.inc_max))
            at = slice(plan.root, plan.root + 1)  # the scan's total, at the root
            total = _tracked(m, np.zeros(1), self.rows[at], self.cols[at], *np.array([root]).T)
            total = m.send(total, np.array([region.row]), np.array([region.col]))
            rows, cols = staging_square(len(idx), region).rowmajor_coords(len(idx))
            own, table = self.own.inc, self.table.inc
            depth = np.maximum(own[0, idx], self.cd + table[0, idx])
            dist = np.maximum(own[1, idx], self.cs + table[1, idx])
            broadcast_many(m, self.side, self.side, total.depth, total.dist)
            np.maximum(depth, int(total.depth[0]) + self.off[0, idx], out=depth)
            np.maximum(dist, int(total.dist[0]) + self.off[1, idx], out=dist)
            picked = _tracked(m, payload[idx], self.rows[idx], self.cols[idx], depth, dist)
            return m.send(picked, rows, cols)

    def gate(self, root: TrackedArray) -> None:
        """:meth:`_Copies.gate`: charge the broadcast, raise ``C`` to the
        root's metadata."""
        self._gate(int(root.depth[0]), int(root.dist[0]))

    def _gate(self, depth: int, dist: int) -> None:
        broadcast_many(self.machine, self.side, self.side, np.array([depth]), np.array([dist]))
        self.cd, self.cs = max(self.cd, depth), max(self.cs, dist)

    def all_reduce(self, *flags: np.ndarray) -> list[int]:
        """:meth:`_Copies.all_reduce`: sums of 0/1 flags are exact in any
        order, so the counts are the reduce's sums."""
        m = self.machine
        root = self._lift(self.own.reduce_root, self.table.reduce_root)
        with m.phase("reduce"):
            if self.side > 1:
                quad_reduce_charge(m, 1, self.side)
                m.observe_maxima(*root)
        self._gate(*root)
        return [int(np.count_nonzero(f)) for f in flags]


def _pad_and_bitonic(
    machine: SpatialMachine, sample: TrackedArray, region: Region
) -> TrackedArray:
    """Bitonic-sort a gathered sample, padding to a power of two with +inf."""
    ns = len(sample)
    staging = staging_square(ns, region)
    full = staging.size  # pad to fill the whole square (one wire per cell)
    rows, cols = staging.rowmajor_coords(full)
    sample = machine.send(sample, rows[:ns], cols[:ns])
    if full > ns:
        pad = np.full((full - ns, sample.payload.shape[1]), np.inf)
        padding = machine.place(pad, rows[ns:], cols[ns:])
        sample = concat_tracked([sample, padding])
    out = bitonic_sort(machine, sample, staging, key_cols=2, tiebreak=False)
    return out[:ns]


def rank_select(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    k: int,
    rng: np.random.Generator,
    c: float = 3.0,
    max_iterations: int = 60,
) -> SelectionResult:
    """Find the ``k``-th smallest (1-based) value of ``ta`` on ``region``.

    ``ta`` holds one value per cell (payload ``(n,)`` or ``(n, 1)``), placed
    along the Z-order curve of the square power-of-two ``region`` (scans run
    over that curve; any other layout raises the scan's ``ValueError``).
    ``c >= 3`` trades energy constants for failure probability (Theorem
    VI.3).

    Fault-transparent: given the same ``rng`` seed, the selected value is
    bit-identical under any :class:`~repro.machine.FaultPlan` (recovery
    resends never alter payloads); only costs inflate.
    """
    n = len(ta)
    if n != region.size:
        raise ValueError("rank_select expects one value per cell")
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} out of range 1..{n}")
    plan = _layout_plan(ta, region)
    if machine.clean_fast:
        elems = _ClosedForm(machine, ta, region, plan)
    else:
        elems = _Copies(machine, ta, region)
    values = ta.payload.reshape(n, -1)[:, 0].astype(np.float64)
    uid = np.arange(n, dtype=np.float64)
    payload = np.stack([values, uid], axis=1)

    ln_n = max(math.log(n), 1.0)
    active = np.ones(n, dtype=bool)
    N = n
    sign = 1.0
    iterations = 0
    threshold = c * math.sqrt(n)

    # w.l.o.g. k <= ceil(n/2) (paper, Section VI): flip the comparator up
    # front, otherwise ranks near n trip the step-5 guard immediately
    if k > (n + 1) // 2:
        sign = -sign
        payload = -payload
        k = n - k + 1

    history: list[int] = []
    with machine.phase("select"):
        while N > threshold and iterations < max_iterations:
            iterations += 1
            history.append(N)

            # -- 1-2: sample actives, gather them into a compact square
            p = min(1.0, c / math.sqrt(N))
            mask = active & (rng.random(n) < p)
            if not mask.any():
                continue
            with machine.phase("sample_gather"):
                sample = elems.gather(payload, mask)
            ns = len(sample)

            # -- 3: pivot ranks (1-based), bitonic sort of the sample
            with machine.phase("sample_sort"):
                sorted_s = _pad_and_bitonic(machine, sample, region)
            spread = 0.5 * c * N**0.25 * math.sqrt(ln_n)
            center = c * k / math.sqrt(N)
            r = max(1, min(ns, math.ceil(center + spread)))
            use_low = k >= 0.5 * N**0.75 * math.sqrt(ln_n)
            l = max(1, math.floor(center - spread)) if use_low else 0
            s_r = sorted_s.payload[r - 1]
            if use_low and l >= 1:
                s_l = sorted_s.payload[l - 1]
            else:
                s_l = np.array([-np.inf, -np.inf])

            # -- 4: broadcast both pivots over the original subgrid
            with machine.phase("pivot_broadcast"):
                piv_payload = np.concatenate([s_l, s_r])[None, :]
                piv = sorted_s[r - 1 : r].with_payload(piv_payload)
                elems.gate(machine.send(piv, np.array([region.row]), np.array([region.col])))

            # -- 5: all-reduce the counts below/above the pivots
            below = active & lex_less(payload, np.broadcast_to(s_l, payload.shape), 2)
            above = active & lex_less(np.broadcast_to(s_r, payload.shape), payload, 2)
            with machine.phase("count"), machine.phase("all_reduce"):
                n_below, n_above = elems.all_reduce(below, above)

            if n_below >= k or n_above >= N - k:
                with machine.phase("fallback_sort"):
                    gathered = elems.gather(payload, active)
                    return _fallback_sort(machine, gathered, region, k, sign, iterations, history)
            k -= n_below

            # -- 6: deactivate everything outside (s_l, s_r)
            active = active & ~below & ~above

            # -- 7: all-reduce the new N, flip the order if k is in the top half
            with machine.phase("count"), machine.phase("all_reduce"):
                (N,) = elems.all_reduce(active)
            if k > (N + 1) // 2:
                sign = -sign
                payload = -payload
                k = N - k + 1

        # -- epilogue: gather survivors, sort, read off rank k
        with machine.phase("finalize"):
            survivors = elems.gather(payload, active)
            sorted_s = _pad_and_bitonic(machine, survivors, region)
        e = sorted_s[k - 1 : k]
    value = sign * float(e.payload[0, 0])
    history.append(N)
    return SelectionResult(
        value=value,
        iterations=iterations,
        fell_back=False,
        depth=int(e.depth[0]),
        dist=int(e.dist[0]),
        active_history=history,
    )


def _fallback_sort(
    machine: SpatialMachine,
    gathered: TrackedArray,
    region: Region,
    k: int,
    sign: float,
    iterations: int,
    history: list[int] | None = None,
) -> SelectionResult:
    """Pivot miss: 2D-Mergesort the gathered active elements and read off
    rank k."""
    ns = len(gathered)
    side = 1
    while side * side < ns:
        side *= 2
    square = Region(region.row, region.col, side, side)
    rows, cols = square.rowmajor_coords(square.size)
    parked = machine.send(gathered, rows[:ns], cols[:ns])
    if square.size > ns:
        pad = np.full((square.size - ns, parked.payload.shape[1]), np.inf)
        parked = concat_tracked([parked, machine.place(pad, rows[ns:], cols[ns:])])
    out = mergesort_2d(machine, parked, square, key_cols=2)
    e = out[k - 1 : k]
    return SelectionResult(
        value=sign * float(e.payload[0, 0]),
        iterations=iterations,
        fell_back=True,
        depth=int(e.depth[0]),
        dist=int(e.dist[0]),
        active_history=history,
    )
