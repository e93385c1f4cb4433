"""Bitonic sorting network on the processor grid (paper, Section V.B).

Wires of Batcher's bitonic network are assigned to processors in **row-major**
order; each compare-exchange step is a pair of messages between the two
wires' processors.  Being data-oblivious, the communication pattern depends
only on the input size — the property that makes sorting networks attractive
on dataflow hardware — but the network "eventually turns into a 1D algorithm",
which costs energy:

* Bitonic Merge (Lemma V.3): ``Θ(h²w + w²h)`` energy, ``Θ(log n)`` depth.
  Exactly: ``hw(h + w - 2)`` energy and ``log₂(hw)`` stages.
* Bitonic Sort (Lemma V.4): ``Θ(h²w + w²h log h)`` energy, ``Θ(log² n)``
  depth, ``Θ(h + w log h)`` distance — a ``Θ(log n)`` energy factor worse
  than the optimal 2D Mergesort on square grids (``Θ(n³ᐟ² log n)`` total).

On a clean fast machine the network runs from a per-shape table
(:func:`_network_table`): every stage of stride ``j`` sends all wires over
the same wire length, so the counters are per-shape constants.  The
per-wire metadata takes one array pass per stride (:func:`_date`), since the
stages are commuting ``(max, +)`` maps: a sort on ``2**m`` wires takes ``m``
passes, not its ``m(m+1)/2`` stages.  The payload is one lexsort whenever
that provably equals the network's output.  Every other machine runs the
stage-by-stage body, the oracle.

``benchmarks/bench_fig2_bitonic_vs_mergesort.py`` regenerates the Fig. 2
comparison.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ...machine.geometry import Region
from ...machine.machine import SpatialMachine, TrackedArray, _tracked
from ...machine.metrics import META_DTYPE
from ...machine.zorder import is_power_of_two
from ..validate import check_cells
from .sortutil import lex_less, strip_tiebreak, with_tiebreak

__all__ = ["bitonic_sort", "bitonic_merge", "compare_exchange_stage", "network_cost"]


def _exchange(
    own: np.ndarray,
    recv: np.ndarray,
    take_min: np.ndarray,
    key_cols: int,
    descending: bool,
) -> np.ndarray:
    """The comparator rule: each wire keeps the lexicographic min (where
    ``take_min``) or max of its own and its partner's payload rows."""
    own_less = lex_less(own, recv, key_cols)
    recv_less = lex_less(recv, own, key_cols)
    if descending:
        own_less, recv_less = recv_less, own_less
    # equal keys never swap (both sides keep their own value), so padded
    # sentinels and duplicate keys stay consistent across the pair
    keep_own = np.where(take_min, ~recv_less, ~own_less)
    return np.where(keep_own[:, None], own, recv)


def compare_exchange_stage(
    machine: SpatialMachine,
    cur: TrackedArray,
    partner: np.ndarray,
    take_min: np.ndarray,
    key_cols: int,
    descending: bool = False,
) -> TrackedArray:
    """One network stage: every wire exchanges with ``partner[i]`` and keeps
    the lexicographic min (where ``take_min``) or max of the pair.

    ``cur`` is ordered by wire index; each wire sends its value to its
    partner's processor (two messages per pair, matching the Θ(wh) messages
    per stage of Lemma V.3's analysis).
    """
    recv = machine.send(cur[partner], cur.rows, cur.cols)
    payload = _exchange(cur.payload, recv.payload, take_min, key_cols, descending)
    return cur.combined_with(recv, payload=payload)


class _Pass(NamedTuple):
    """The ``c`` stages of one stride ``j`` as one step of :func:`_date`:
    wire ``i`` becomes ``max(x[i] + stay, x[i ^ j] + cross)``."""

    partner: np.ndarray  # i ^ j, shared with the stages
    stay: np.ndarray  # (2, 1): 2 * floor(c / 2) * (1, hop)
    cross: np.ndarray  # (2, 1): (2 * ceil(c / 2) - 1) * (1, hop)


class _Network(NamedTuple):
    """The bitonic sort network on ``n`` row-major wires of a region ``w``
    wide.  A standalone merge is its last ``log2(n)`` stages, from
    ``merge_start`` on."""

    rows: np.ndarray  # wire i's cell, relative to the region corner
    cols: np.ndarray
    partner: tuple[np.ndarray, ...]  # per stage
    take_min: tuple[np.ndarray, ...]  # per stage: the wire keeps the min
    sort_passes: tuple[_Pass, ...]  # per stride, for the sort's stages
    merge_passes: tuple[_Pass, ...]  # per stride, for the merge's stages
    merge_start: int
    sort_energy: int
    merge_energy: int


# one network per (wires, width); ~150 KB at 1024 wires
_NETWORKS: dict[tuple[int, int], _Network] = {}


def _network_table(n: int, w: int) -> _Network:
    """The cached network on ``n`` wires ``w`` to a row.

    Merge ``k = 2, 4, .., n`` runs the halving stages ``j = k/2 .. 1``:
    stage ``j`` partners wire ``i`` with ``i ^ j``, and blocks of size ``k``
    alternate direction by bit ``k`` of the wire index, except in the final
    merge, where all of them ascend (a standalone merge).  Wire ``i ^ j``
    differs from wire ``i`` in one bit of the row-major index, so every
    message of the stride-``j`` stage crosses ``j`` columns (``j < w``) or
    ``j / w`` rows: the hop is one number per stride.
    """
    cached = _NETWORKS.get((n, w))
    if cached is not None:
        return cached
    idx = np.arange(n, dtype=np.int64)
    partners: dict[int, np.ndarray] = {}
    partner, take_min, strides = [], [], []
    k = 2
    while k <= n:
        ascending_block = (idx & k) == 0 if k < n else np.ones(n, dtype=bool)
        j = k // 2
        while j >= 1:
            partner.append(partners.setdefault(j, idx ^ j))
            take_min.append(((idx & j) == 0) == ascending_block)
            strides.append(j)
            j //= 2
        k *= 2
    hop = {j: j if j < w else j // w for j in partners}
    hops = [hop[j] for j in strides]
    merge_start = len(hops) - (n.bit_length() - 1)

    def passes(first: int) -> tuple[_Pass, ...]:
        out = []
        for j in partners:  # every stride has c >= 1 stages in either range
            c = strides[first:].count(j)
            a = np.array([[1], [hop[j]]], dtype=META_DTYPE)
            out.append(_Pass(partners[j], c // 2 * 2 * a, ((c + 1) // 2 * 2 - 1) * a))
        return tuple(out)

    table = _Network(
        rows=idx // w,
        cols=idx % w,
        partner=tuple(partner),
        take_min=tuple(take_min),
        sort_passes=passes(0),
        merge_passes=passes(merge_start),
        merge_start=merge_start,
        sort_energy=n * sum(hops),
        merge_energy=n * sum(hops[merge_start:]),
    )
    _NETWORKS[(n, w)] = table
    return table


def network_cost(n: int, width: int) -> tuple[int, int]:
    """``(energy, stages)`` of the bitonic sort of ``n`` row-major wires on a
    region ``width`` wide; the stage count is also the output depth of an
    input with zero metadata."""
    table = _network_table(n, width)
    return table.sort_energy, len(table.partner)


def _lexsorted(payload: np.ndarray, key_cols: int, descending: bool) -> np.ndarray | None:
    """The network's output payload as one lexsort, or ``None`` if the
    network could place rows differently: a NaN key breaks the order, and
    equal keys on rows that differ (``0.0`` and ``-0.0``, or satellite
    columns) land wherever the comparators leave them."""
    keys = payload[:, :key_cols]
    if keys.dtype.kind == "f" and np.isnan(keys).any():
        return None
    out = payload[np.lexsort(keys.T[::-1])]
    sk = out[:, :key_cols]
    tied = (sk[1:] == sk[:-1]).all(axis=1)
    if tied.any():
        raw = np.ascontiguousarray(out).view(np.uint8).reshape(len(out), -1)
        if not (raw[1:][tied] == raw[:-1][tied]).all():
            return None
    return out[::-1].copy() if descending else out


def _date(meta: np.ndarray, passes: tuple[_Pass, ...]) -> np.ndarray:
    """The ``(2, n)`` wire metadata ``meta`` after the stages that
    ``passes`` stand for (updated in place, and returned).

    A stride-``j`` stage maps ``x`` to ``max(x, x[i ^ j] + a)`` with
    ``a = (1, hop) >= 0``.  The wire permutations ``i -> i ^ j`` commute,
    so these ``(max, +)`` maps commute too, and the stages may be taken
    grouped by stride.  ``c`` stages of one stride leave each wire the
    longest of its paths with ``t <= c`` crossings: an even ``t`` ends on
    the wire itself and an odd one on its partner, and since ``a >= 0`` the
    largest ``t`` of each parity wins, which is :class:`_Pass`'s
    ``max(x + stay, x[i ^ j] + cross)``.
    """
    recv = np.empty_like(meta)
    for partner, stay, cross in passes:
        np.take(meta, partner, axis=1, out=recv)
        recv += cross
        meta += stay
        np.maximum(meta, recv, out=meta)
    return meta


def _network_fast(
    machine: SpatialMachine,
    cur: TrackedArray,
    table: _Network,
    stages: range,
    merge: bool,
    key_cols: int,
    descending: bool,
) -> TrackedArray:
    """``stages`` of the network from its per-shape table (clean fast
    machines only).

    Counters are the table's totals; the per-wire metadata takes one
    :func:`_date` pass per stride; the payload of a full sort is one lexsort
    when :func:`_lexsorted` allows it (a merge only sorts bitonic inputs),
    and otherwise runs the comparator rule stage by stage.
    """
    payload = None if merge else _lexsorted(cur.payload, key_cols, descending)
    if payload is None:
        payload = cur.payload
        for s in stages:
            payload = _exchange(
                payload, payload[table.partner[s]], table.take_min[s], key_cols, descending
            )
    passes = table.merge_passes if merge else table.sort_passes
    meta = _date(np.stack([cur.depth, cur.dist]), passes)
    if len(stages):
        n = len(cur)
        energy = table.merge_energy if merge else table.sort_energy
        machine._charge(energy, n * len(stages), len(stages))
        # a wire's metadata never decreases, so the last stage holds the maxima
        dmax, smax = meta.max(axis=1).tolist()
        machine.observe_maxima(dmax, smax)
    return _tracked(machine, payload, cur.rows, cur.cols, meta[0], meta[1])


def _network(
    machine: SpatialMachine,
    cur: TrackedArray,
    region: Region,
    key_cols: int,
    descending: bool,
    merge: bool,
) -> TrackedArray:
    """The sort network, or with ``merge`` its final merge alone."""
    table = _network_table(len(cur), region.width)
    stages = range(table.merge_start if merge else 0, len(table.partner))
    if machine.clean_fast:
        return _network_fast(machine, cur, table, stages, merge, key_cols, descending)
    for s in stages:
        cur = compare_exchange_stage(
            machine, cur, table.partner[s], table.take_min[s], key_cols, descending
        )
    return cur


def bitonic_merge(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    key_cols: int = 1,
    descending: bool = False,
) -> TrackedArray:
    """Merge a bitonic sequence (e.g. sorted-ascending ++ sorted-descending)
    laid out row-major on ``region`` into sorted row-major order.

    Entry ``i`` must sit at the i-th row-major cell (``ValueError``
    otherwise)."""
    _check(ta, region)
    with machine.phase("bitonic_merge"):
        return _network(machine, ta, region, key_cols, descending, merge=True)


def bitonic_sort(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    key_cols: int = 1,
    descending: bool = False,
    tiebreak: bool = True,
) -> TrackedArray:
    """Batcher's bitonic sort of ``ta`` laid out row-major on ``region``.

    Entry ``i`` must sit at the i-th row-major cell (``ValueError``
    otherwise); the sorted output is returned in the same layout.
    ``key_cols`` leading payload columns form the lexicographic key; with
    ``tiebreak`` (default) a unique input-position column is appended so
    duplicate keys still yield a deterministic permutation.
    """
    _check(ta, region)
    if len(ta) == 1:
        return ta
    if tiebreak:
        cur, kc = with_tiebreak(ta, key_cols)
    else:
        cur, kc = ta, key_cols
    with machine.phase("bitonic"):
        cur = _network(machine, cur, region, kc, descending, merge=False)
    if tiebreak:
        cur = strip_tiebreak(cur, kc)
    return cur


def _check(ta: TrackedArray, region: Region) -> None:
    n = len(ta)
    if n != region.size:
        raise ValueError(f"need one wire per cell: {n} values, region {region}")
    if not is_power_of_two(n):
        raise ValueError(f"bitonic network needs power-of-two size, got {n}")
    if ta.payload.ndim != 2:
        raise ValueError("sort payloads are (n, k) arrays; see sortutil.as_sort_payload")
    table = _network_table(n, region.width)
    check_cells(
        ta, region, table.rows, table.cols,
        "bitonic network expects entry i at the i-th row-major cell",
    )
