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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..machine.geometry import Region
from ..machine.machine import SpatialMachine, TrackedArray, concat_tracked
from .collectives import broadcast_onto, reduce
from .gather import gather_masked as _gather_compact_impl
from .gather import staging_square as _staging_square_impl
from .ops import ADD
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



def _staging_square(count: int, region: Region) -> Region:
    return _staging_square_impl(count, region)


def _gather_compact(
    machine: SpatialMachine,
    elems: TrackedArray,
    mask: np.ndarray,
    region: Region,
) -> TrackedArray:
    """Gather the masked elements into a square at the region's corner.

    The paper's step 2: a scan assigns each sampled element its slot index
    and a broadcast announces the sample size (see
    :func:`repro.core.gather.gather_masked`).
    """
    return _gather_compact_impl(machine, elems, mask, region)


def _pad_and_bitonic(
    machine: SpatialMachine, sample: TrackedArray, region: Region
) -> TrackedArray:
    """Bitonic-sort a gathered sample, padding to a power of two with +inf."""
    ns = len(sample)
    staging = _staging_square(ns, region)
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
    over that curve).  ``c >= 3`` trades energy constants for failure
    probability (Theorem VI.3).

    Fault-transparent: given the same ``rng`` seed, the selected value is
    bit-identical under any :class:`~repro.machine.FaultPlan` (recovery
    resends never alter payloads); only costs inflate.
    """
    n = len(ta)
    if n != region.size:
        raise ValueError("rank_select expects one value per cell")
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} out of range 1..{n}")
    values = ta.payload.reshape(n, -1)[:, 0].astype(np.float64)
    uid = np.arange(n, dtype=np.float64)
    payload = np.stack([values, uid], axis=1)
    elems = ta.with_payload(payload)

    ln_n = max(math.log(n), 1.0)
    active = np.ones(n, dtype=bool)
    sign = 1.0
    iterations = 0
    threshold = c * math.sqrt(n)

    # w.l.o.g. k <= ceil(n/2) (paper, Section VI): flip the comparator up
    # front, otherwise ranks near n trip the step-5 guard immediately
    if k > (n + 1) // 2:
        sign = -sign
        payload = -payload
        elems = elems.with_payload(payload)
        k = n - k + 1

    history: list[int] = []
    with machine.phase("select"):
        while active.sum() > threshold and iterations < max_iterations:
            iterations += 1
            history.append(int(active.sum()))
            N = int(active.sum())

            # -- 1-2: sample actives, gather them into a compact square
            p = min(1.0, c / math.sqrt(N))
            mask = active & (rng.random(n) < p)
            if not mask.any():
                continue
            with machine.phase("sample_gather"):
                sample = _gather_compact(machine, elems, mask, region)
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
                corner = machine.send(piv, np.array([region.row]), np.array([region.col]))
                elems = broadcast_onto(machine, corner, region, elems)

            # -- 5: all-reduce the counts below/above the pivots
            below = active & lex_less(payload, np.broadcast_to(s_l, payload.shape), 2)
            above = active & lex_less(np.broadcast_to(s_r, payload.shape), payload, 2)
            counts = elems.with_payload(
                np.stack([below.astype(np.float64), above.astype(np.float64)], axis=1)
            )
            with machine.phase("count"), machine.phase("all_reduce"):
                totals = reduce(machine, counts, region, ADD)
                elems = broadcast_onto(machine, totals, region, elems)
            n_below = int(round(totals.payload[0, 0]))
            n_above = int(round(totals.payload[0, 1]))

            if n_below >= k or n_above >= N - k:
                with machine.phase("fallback_sort"):
                    return _fallback_sort(
                        machine, elems, active, region, k, sign, iterations, history
                    )
            k -= n_below

            # -- 6: deactivate everything outside (s_l, s_r)
            active = active & ~below & ~above

            # -- 7: all-reduce the new N, flip the order if k is in the top half
            live = elems.with_payload(active.astype(np.float64))
            with machine.phase("count"), machine.phase("all_reduce"):
                n_live = reduce(machine, live, region, ADD)
                elems = broadcast_onto(machine, n_live, region, elems)
            N = int(round(n_live.payload[0]))
            if k > (N + 1) // 2:
                sign = -sign
                payload = -payload
                elems = elems.with_payload(payload)
                k = N - k + 1

        # -- epilogue: gather survivors, sort, read off rank k
        mask = active
        with machine.phase("finalize"):
            survivors = _gather_compact(machine, elems, mask, region)
            sorted_s = _pad_and_bitonic(machine, survivors, region)
        e = sorted_s[k - 1 : k]
    value = sign * float(e.payload[0, 0])
    history.append(int(active.sum()))
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
    elems: TrackedArray,
    active: np.ndarray,
    region: Region,
    k: int,
    sign: float,
    iterations: int,
    history: list[int] | None = None,
) -> SelectionResult:
    """Pivot miss: 2D-Mergesort the active elements and read off rank k."""
    gathered = _gather_compact(machine, elems, active, region)
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
