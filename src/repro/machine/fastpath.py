"""Vectorized fast-path kernels for :class:`~repro.machine.machine.SpatialMachine`.

A clean fast machine (:attr:`~repro.machine.machine.SpatialMachine.clean_fast`)
charges batched operations through flat array programs instead of loops of
``send`` and ``relay`` calls.  The contract (enforced by ``repro
conformance`` and ``tests/test_fast_conformance.py``) is *exact* equivalence
with those loops: identical counters, cost trees and returned metadata.  The
kernels record no trace, profile or recovery, which is why only clean
machines reach them.

Segment reductions use cumulative sums rather than ``np.add.reduceat``:
``reduceat`` returns ``arr[start]`` — not 0 — for an empty segment, and
zero-hop chains are legal inputs.
"""

from __future__ import annotations

import numpy as np

from .metrics import META_DTYPE

__all__ = [
    "interleave",
    "quad_broadcast_energy",
    "quad_offsets",
    "quad_reduce_charge",
    "quad_reduce_offsets",
    "quadrant_reduce_fast",
    "ragged",
    "relay_flat",
    "segment_starts",
    "segment_sums",
]


def segment_starts(sizes: np.ndarray) -> np.ndarray:
    """First entry of each of consecutive segments of ``sizes[i]`` entries."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts


def ragged(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layout of consecutive segments of ``sizes[i]`` entries each.

    Returns ``(starts, seg, pos)``: the first entry of every segment
    (:func:`segment_starts`), and for every entry its segment and its index
    within that segment.
    """
    starts = segment_starts(sizes)
    seg = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
    return starts, seg, np.arange(len(seg), dtype=np.int64) - starts[seg]


def interleave(*cols: np.ndarray) -> np.ndarray:
    """Equal-length arrays taken in turn, ``x[0], y[0], x[1], y[1], ...``:
    ``np.stack(cols, 1).ravel()`` without its per-call overhead."""
    k = len(cols)
    out = np.empty(k * len(cols[0]), dtype=np.result_type(*cols))
    for i, col in enumerate(cols):
        out[i::k] = col
    return out


def segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum ``values`` over the segments ``[starts[i], starts[i+1])``.

    The final segment ends at ``len(values)``.  Empty segments (consecutive
    equal starts) sum to 0.
    """
    cs = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=cs[1:])
    ends = np.empty(len(starts), dtype=np.int64)
    if len(starts):
        ends[:-1] = starts[1:]
        ends[-1] = len(values)
    return cs[ends] - cs[starts]


# quadrant-offset tables keyed by lattice side; a few KB per power of two
_QUAD_TABLES: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def quad_offsets(side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(row_off, col_off, depth_off, dist_off) per final quadrant index
    (cached; read-only).

    The doubling loop appends the three shifted copies after the originals,
    so after ``k = log2(side)`` levels the element that started at position
    ``i`` ends at ``b * m + i``, where base-4 digit ``l-1`` of ``b`` is the
    quadrant choice at level ``l`` (0 stay, 1 east, 2 south, 3 south-east)
    with shift ``h = side >> l``.  The offsets below are those choices summed.
    """
    cached = _QUAD_TABLES.get(side)
    if cached is not None:
        return cached
    k = side.bit_length() - 1
    b = np.arange(side * side, dtype=np.int64)
    row_off = np.zeros(len(b), dtype=np.int64)
    col_off = np.zeros(len(b), dtype=np.int64)
    depth_off = np.zeros(len(b), dtype=META_DTYPE)
    dist_off = np.zeros(len(b), dtype=META_DTYPE)
    for lvl in range(1, k + 1):
        h = side >> lvl
        q = (b >> (2 * (lvl - 1))) & 3
        row_off += np.where(q >= 2, h, 0)
        col_off += np.where(q & 1, h, 0)
        depth_off += q != 0
        dist_off += np.where(q == 3, 2 * h, np.where(q != 0, h, 0))
    tables = (row_off, col_off, depth_off, dist_off)
    _QUAD_TABLES[side] = tables
    return tables


# reduce-side tables: same quadrant digits, but level l of the reduce works
# the SMALLEST quads first (h = 2**(l-1)), the mirror image of the broadcast
_QUAD_REDUCE_TABLES: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}


def _quad_reduce_tables(side: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(depth_off, dist_off, energy_per_block) for a block-local Z index.

    ``depth_off``/``dist_off`` are the metadata increments carried to the
    block corner: entry ``z``'s value is moved (by its successive carriers)
    once per nonzero base-4 digit of ``z``, where digit ``j`` is the
    quadrant choice at scale ``h = 2**j`` (0 stay, 1 east, 2 south, 3
    south-east — hop distance h, h, 2h onto the quad's Z-first cell).
    ``energy_per_block`` counts each level's actual hops once — at level
    ``j`` only the ``per / 4**(j+1)`` quad corners move, not every entry.
    """
    cached = _QUAD_REDUCE_TABLES.get(side)
    if cached is not None:
        return cached
    per = side * side
    k = side.bit_length() - 1
    z = np.arange(per, dtype=np.int64)
    depth_off = np.zeros(len(z), dtype=META_DTYPE)
    dist_off = np.zeros(len(z), dtype=META_DTYPE)
    energy = 0
    for j in range(k):
        h = 1 << j
        q = (z >> (2 * j)) & 3
        depth_off += q != 0
        dist_off += np.where(q == 3, 2 * h, np.where(q != 0, h, 0))
        energy += 4 * h * (per >> (2 * (j + 1)))
    tables = (depth_off, dist_off, energy)
    _QUAD_REDUCE_TABLES[side] = tables
    return tables


def quad_reduce_offsets(side: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Public accessor for the reduce offset tables, Z-indexed (read-only)."""
    return _quad_reduce_tables(side)


def quad_reduce_charge(machine, nblocks, side):
    """Charge a quadrant reduce's exact counters without materializing it.

    ``nblocks`` blocks of ``side * side`` entries each; per block every entry
    but the Z-first moves exactly once along its digit path.  For callers
    that reconstruct the per-block metadata themselves.
    """
    _, _, block_energy = _quad_reduce_tables(side)
    k = side.bit_length() - 1
    machine._charge(nblocks * block_energy, nblocks * (side * side - 1), 3 * k)


def quad_broadcast_energy(side: int, scale: int = 1) -> int:
    """Energy one value pays to be replicated over a ``side x side`` lattice
    of stride ``scale``: three sends per level, costing h, h and 2h each."""
    return sum(
        4 * (side >> lvl) * scale * 4 ** (lvl - 1)
        for lvl in range(1, side.bit_length())
    )


def quadrant_reduce_fast(machine, payload, depth, dist, side, combine):
    """Closed-form quadrant-tree reduce over the raw field arrays.

    Trusts :meth:`SpatialMachine.quadrant_reduce`'s layout contract (one
    entry per cell of each square block, block-local Z-order): every hop
    distance is then fixed by the Z-geometry, so counters and per-entry
    metadata increments come from precomputed offset tables — entry ``z``
    moves once per nonzero base-4 digit of ``z`` (see
    :func:`_quad_reduce_tables`).  Only the payload fold still walks the
    levels, preserving the reference's exact floating-point combination
    order.  Returns the per-block ``(payload, depth, dist)`` — positions are
    the caller's block corners.  Clean runs only; the caller guards.
    """
    depth_off, dist_off, _ = _quad_reduce_tables(side)
    per = side * side
    k = side.bit_length() - 1
    nblocks = len(depth) // per
    quad_reduce_charge(machine, nblocks, side)
    depth = (depth.reshape(nblocks, per) + depth_off).max(axis=1)
    dist = (dist.reshape(nblocks, per) + dist_off).max(axis=1)
    machine.observe(depth, dist)
    for _ in range(k):
        payload = combine(
            combine(combine(payload[0::4], payload[1::4]), payload[2::4]),
            payload[3::4],
        )
    return payload, depth, dist


def relay_flat(machine, src_r, src_c, stop_r, stop_c, hops, depth0, dist0, carry=None):
    """The relay kernel: charge ``len(hops)`` chains from one flat hop layout.

    Chain ``i`` starts at ``(src_r[i], src_c[i])`` with metadata
    ``(depth0[i], dist0[i])`` and visits the next ``hops[i]`` entries of
    ``stop_r``/``stop_c`` in order; ``carry`` links chains as in
    :meth:`SpatialMachine.relay_many`.  Charges the stats and the cost tree
    exactly as that loop of ``relay`` calls would and returns the chains'
    end ``(depth, dist)`` arrays.  It is the batched selection's kernel
    (:func:`~repro.core.sorting.two_sorted_select.select_ranked`), so it
    runs on clean fast machines only and refuses any other before charging.
    """
    if not machine.clean_fast:
        raise ValueError(
            "relay_flat charges unobserved fault-free chains: clean fast machines only"
        )
    K = len(hops)
    hop_start = segment_starts(hops)
    has_hops = hops > 0
    # hop endpoints: the previous stop, or the chain's source for its first hop
    fr_r = np.empty_like(stop_r)
    fr_c = np.empty_like(stop_c)
    fr_r[1:], fr_c[1:] = stop_r[:-1], stop_c[:-1]
    first = hop_start[has_hops]
    fr_r[first], fr_c[first] = src_r[has_hops], src_c[has_hops]
    d = np.abs(stop_r - fr_r) + np.abs(stop_c - fr_c)

    # a clean chain's depth grows by its messages and its distance by its
    # energy; sums and round counts distribute over chains
    inc_d = segment_sums(d > 0, hop_start)
    inc_s = segment_sums(d, hop_start)
    machine._charge(int(inc_s.sum()), int(inc_d.sum()), int(np.count_nonzero(inc_d)))

    # carry resolution: chain i ends at start_i + inc_i, and a carrying chain
    # starts where the previous one ended ((0, 0) before chain 0)
    own_d = np.asarray(depth0, dtype=META_DTYPE)
    own_s = np.asarray(dist0, dtype=META_DTYPE)
    if carry is not None and K:
        own_d = np.where(carry, 0, own_d)
        own_s = np.where(carry, 0, own_s)
        head = np.maximum.accumulate(np.where(carry, 0, np.arange(K)))
        end_d = _run_cumsum(own_d + inc_d, head)
        end_s = _run_cumsum(own_s + inc_s, head)
    else:
        end_d = own_d + inc_d
        end_s = own_s + inc_s
    if has_hops.any():
        machine.observe_maxima(int(end_d[has_hops].max()), int(end_s[has_hops].max()))
    return end_d, end_s


def _run_cumsum(values: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Cumulative sum of ``values`` restarting at each run head."""
    cs = np.cumsum(values)
    before = np.concatenate([[0], cs[:-1]])
    return cs - before[head]
