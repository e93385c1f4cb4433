"""Vectorized fast-path kernels for :class:`~repro.machine.machine.SpatialMachine`.

The machine's fast mode charges batched operations through flat array
programs instead of per-call Python.  The contract (enforced by
``repro conformance`` and ``tests/test_fast_conformance.py``) is *exact*
equivalence with the per-call reference path: identical counters and cost
trees, identical recovery stats, identical tracer/profiler feeds, and —
critically — an identical rng stream under a seeded
:class:`~repro.machine.faults.FaultPlan`.

The rng contract shapes the one remaining Python loop here:
``sample_failures`` draws twice per *call*, and the reference path calls it
once per communicating chain in chain order, so the batched kernel must do
the same.  Everything rng-free (hop distances, sparing and detour extras,
segment sums, maxima) is computed flat over a ``(chain, hop)`` layout.

Segment reductions use cumulative sums rather than ``np.add.reduceat``:
``reduceat`` returns ``arr[start]`` — not 0 — for an empty segment, and
zero-hop chains are legal inputs.
"""

from __future__ import annotations

import numpy as np

from .faults import backoff_ticks, detour_extras, sample_failures, spare_extras
from .metrics import META_DTYPE

__all__ = [
    "quad_broadcast_energy",
    "quad_offsets",
    "quad_reduce_charge",
    "quad_reduce_offsets",
    "quadrant_reduce_fast",
    "ragged",
    "relay_flat",
    "relay_many_fast",
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


def relay_many_fast(machine, chains, carry=None):
    """Batched :meth:`SpatialMachine.relay` over a list of chains.

    See :meth:`SpatialMachine.relay_many` for the API.  Flattens the chains
    and charges them through :func:`relay_flat`.
    """
    K = len(chains)
    src_r = np.zeros(K, dtype=np.int64)
    src_c = np.zeros(K, dtype=np.int64)
    depth0 = np.zeros(K, dtype=META_DTYPE)
    dist0 = np.zeros(K, dtype=META_DTYPE)
    hops = np.zeros(K, dtype=np.int64)
    stops_r: list[np.ndarray] = []
    stops_c: list[np.ndarray] = []
    for i, (src, stop_rows, stop_cols, d0, s0) in enumerate(chains):
        stop_rows, stop_cols = machine._coerce_coords(stop_rows, stop_cols, "relay")
        src_r[i], src_c[i] = src
        depth0[i], dist0[i] = d0, s0
        hops[i] = len(stop_rows)
        stops_r.append(stop_rows)
        stops_c.append(stop_cols)
    empty = np.zeros(0, dtype=np.int64)
    depth, dist = relay_flat(
        machine,
        src_r,
        src_c,
        np.concatenate(stops_r) if K else empty,
        np.concatenate(stops_c) if K else empty,
        hops,
        depth0,
        dist0,
        None if carry is None else np.asarray(carry, dtype=bool),
    )
    return list(zip(depth.tolist(), dist.tolist()))


def relay_flat(machine, src_r, src_c, stop_r, stop_c, hops, depth0, dist0, carry=None):
    """The relay kernel: charge ``len(hops)`` chains from one flat hop layout.

    Chain ``i`` starts at ``(src_r[i], src_c[i])`` with metadata
    ``(depth0[i], dist0[i])`` and visits the next ``hops[i]`` entries of
    ``stop_r``/``stop_c`` in order; ``carry`` links chains as in
    :meth:`SpatialMachine.relay_many`.  Performs all of the charging
    (stats, cost tree, recovery, tracer, profiler) and returns the chains'
    end ``(depth, dist)`` arrays.
    """
    st = machine.stats
    node = machine._phase_node
    K = len(hops)
    hop_start = segment_starts(hops)
    has_hops = hops > 0
    # hop endpoints: the previous stop, or the chain's source for its first hop
    to_r, to_c = stop_r, stop_c
    fr_r = np.empty_like(stop_r)
    fr_c = np.empty_like(stop_c)
    fr_r[1:], fr_c[1:] = stop_r[:-1], stop_c[:-1]
    first = hop_start[has_hops]
    fr_r[first], fr_c[first] = src_r[has_hops], src_c[has_hops]
    d = np.abs(to_r - fr_r) + np.abs(to_c - fr_c)
    nz = d > 0

    messages_per = segment_sums(nz, hop_start)
    total_messages = int(messages_per.sum())

    # ---- fault recovery, flat (rng-free parts) + per-chain rng sampling
    plan = machine.faults
    spare_per = np.zeros(K, dtype=np.int64)
    detour_per = np.zeros(K, dtype=np.int64)
    retries_per = np.zeros(K, dtype=np.int64)
    retry_e_per = np.zeros(K, dtype=np.int64)
    hop_failures = None
    d_eff = d
    if plan is not None and plan.injects_faults and total_messages:
        rec = machine.recovery
        if plan.dead_regions:
            from_extra, _ = spare_extras(plan, fr_r, fr_c)
            to_extra, to_spared = spare_extras(plan, to_r, to_c)
            # each hop pays for both of its endpoints' spares
            sp = from_extra + to_extra
            sp[~nz] = 0
            spare_per = segment_sums(sp, hop_start)
            spare_total = int(spare_per.sum())
            if spare_total:
                d_eff = d_eff + sp
                rec.spared += int((to_spared & nz).sum())
                rec.spare_energy += spare_total
            extra = detour_extras(plan.dead_regions, fr_r, fr_c, to_r, to_c)
            extra[~nz] = 0
            detour_per = segment_sums(extra, hop_start)
            detour_total = int(detour_per.sum())
            if detour_total:
                d_eff = d_eff + extra
                rec.detoured += int((extra > 0).sum())
                rec.detour_energy += detour_total
        if plan.failure_prob > 0.0:
            # one sample_failures call per communicating chain, in chain
            # order: the rng stream must match the sequential relay loop
            fail_flat = np.zeros(len(d), dtype=META_DTYPE)
            any_fail = False
            for j in np.flatnonzero(messages_per).tolist():
                f, dropped, corrupted = sample_failures(plan, int(messages_per[j]))
                if not f.any():
                    continue
                any_fail = True
                seg = slice(int(hop_start[j]), int(hop_start[j] + hops[j]))
                view = fail_flat[seg]
                view[nz[seg]] = f
                rj = int(f.sum())
                retries_per[j] = rj
                rec.dropped += int(dropped.sum())
                rec.corrupted += int(corrupted.sum())
                rec.retries += rj
                rec.backoff_ticks += backoff_ticks(plan, f)
                rec.max_attempts = max(rec.max_attempts, int(f.max()) + 1)
            if any_fail:
                hop_failures = fail_flat
                retry_e_per = segment_sums(d_eff * fail_flat, hop_start)
                rec.retry_energy += int(retry_e_per.sum())

    # ---- flat counters (sums and round counts distribute over chains)
    energy_per = segment_sums(d, hop_start)
    deff_per = energy_per + spare_per + detour_per
    energy_total = int(energy_per.sum())
    retries_total = int(retries_per.sum())
    st.energy += (
        energy_total
        + int(spare_per.sum())
        + int(detour_per.sum())
        + int(retry_e_per.sum())
    )
    st.messages += total_messages + retries_total
    comm = messages_per > 0
    ncomm = int(np.count_nonzero(comm))
    st.rounds += ncomm
    if node is not None:
        node.energy += energy_total
        node.messages += total_messages
        node.sends += ncomm

    # ---- carry resolution: chain i ends at start_i + inc_i, and a carrying
    #      chain starts where the previous one ended ((0, 0) before chain 0)
    inc_d = messages_per + retries_per
    inc_s = deff_per + retry_e_per
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

    tracer = machine.tracer
    profiler = machine.profiler
    if tracer is not None or profiler is not None:
        # chain j's round id as the sequential loop would have assigned it
        round_ids = (st.rounds - ncomm) + np.cumsum(comm)
        phase = machine.current_phase
        start_d, start_s = end_d - inc_d, end_s - inc_s
        for j in np.flatnonzero(has_hops).tolist():
            seg = slice(int(hop_start[j]), int(hop_start[j] + hops[j]))
            if tracer is not None:
                tracer.record(
                    fr_r[seg], fr_c[seg], to_r[seg], to_c[seg],
                    int(round_ids[j]), phase=phase, kind="relay",
                )
            if profiler is not None and messages_per[j]:
                att = nz[seg].astype(META_DTYPE)
                per_hop_dist = d_eff[seg]
                hf = None
                if hop_failures is not None and retries_per[j]:
                    hf = hop_failures[seg]
                    att = att + hf
                    per_hop_dist = d_eff[seg] * (1 + hf)
                profiler.record_send(
                    fr_r[seg], fr_c[seg], to_r[seg], to_c[seg],
                    d_eff[seg], hf, nz[seg],
                    int(start_d[j]) + np.cumsum(att), int(start_s[j]) + np.cumsum(per_hop_dist),
                    phase, "relay", int(round_ids[j]),
                )
    rec_energy = spare_per + detour_per + retry_e_per
    for j in np.flatnonzero(rec_energy | retries_per).tolist():
        machine._charge_recovery(int(rec_energy[j]), int(retries_per[j]), None)
    return end_d, end_s


def _run_cumsum(values: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Cumulative sum of ``values`` restarting at each run head."""
    cs = np.cumsum(values)
    before = np.concatenate([[0], cs[:-1]])
    return cs - before[head]
