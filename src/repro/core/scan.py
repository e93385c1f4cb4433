"""Energy-optimal parallel scan (paper, Section IV.C and Fig. 1).

The input array lives along the Z-order curve of a square subgrid.  A 4-ary
summation tree is laid over the grid: the node of a height-``i`` subtree is
hosted by the ``i``-th processor *in Z-order* of that subtree's quadrant, so
tree edges stay inside quadrants and the total wire length telescopes like the
Z-order curve itself.

* **up-sweep** — each node receives its four children's subtree sums (in
  Z-order) and stores both them and their running prefixes;
* **down-sweep** — each node receives the prefix ``x`` of everything before
  its subtree and forwards ``x``, ``x+s0``, ``x+s0+s1``, ``x+s0+s1+s2`` to its
  children's host processors; a leaf finally adds its own element.

Costs (Lemma IV.3): ``Θ(n)`` energy, ``O(log n)`` depth, ``O(sqrt(n))``
distance.  Works for any associative monoid; in particular the *segmented*
monoid (:func:`repro.core.ops.segmented`) turns it into a segmented scan with
identical costs, which Section VIII's SpMV uses for its row sums and
segmented broadcasts.

The tree is fixed by the side alone, so a clean fast machine charges a
per-side plan (:func:`_scan_plan`) and runs the monoid level by level over
reshaped arrays; every other machine runs the tree one ``send`` per child
slot, the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..machine.geometry import Region
from ..machine.machine import SpatialMachine, TrackedArray, _tracked, concat_tracked
from ..machine.metrics import META_DTYPE
from ..machine.zorder import zorder_cells
from .ops import ADD, Monoid, pack_segmented, segmented, unpack_segmented
from .validate import check_cells

__all__ = ["scan", "scan_any", "segmented_scan", "ScanResult", "segmented_broadcast"]


@dataclass
class ScanResult:
    """Outputs of one scan run.

    ``inclusive[i]`` / ``exclusive[i]`` live at the i-th Z-order cell, i.e.
    exactly where input ``i`` was stored.  ``total`` is the overall sum, at
    the summation-tree root's host processor.
    """

    inclusive: TrackedArray
    exclusive: TrackedArray
    total: TrackedArray


def _levels(n: int) -> int:
    """log4(n) for n a power of 4."""
    lvl = 0
    m = n
    while m > 1:
        if m % 4:
            raise ValueError(f"scan input size must be a power of 4, got {n}")
        m //= 4
        lvl += 1
    return lvl


class _ScanPlan(NamedTuple):
    """The summation tree of a scan over ``n = 4**L`` Z-ordered values.

    A level-``l`` node of block ``p`` sits at Z cell ``p * 4**l + l``; its
    child ``q`` at ``p * 4**l + q * 4**(l-1) + l - 1``.  Blocks are aligned
    squares, so the message from child slot ``q`` to its parent looks the
    same in every block: ``inc[l-1]`` is a ``(2, 1, 4)`` array of the
    ``(depth, dist)`` it adds (``(1, hop)``, or ``(0, 0)`` for the one slot
    already on its parent's cell), broadcast over a level's ``(2, blocks, 4)``
    metadata.
    """

    rows: np.ndarray  # Z-order cells, relative to the region corner
    cols: np.ndarray
    root: int  # Z index of the root's host cell
    inc: tuple[np.ndarray, ...]  # per level
    energy: int  # of one sweep; the down-sweep mirrors the up-sweep
    messages: int
    sends: int


# one plan per input size; its cells are zorder_cells' own arrays
_SCAN_PLANS: dict[int, _ScanPlan] = {}


def _scan_plan(n: int) -> _ScanPlan:
    """The cached plan for ``n`` values (a power of 4, else ``ValueError``)."""
    cached = _SCAN_PLANS.get(n)
    if cached is not None:
        return cached
    nlevels = _levels(n)
    zr, zc = zorder_cells(1 << nlevels)
    inc = []
    energy = messages = sends = 0
    for lvl in range(1, nlevels + 1):
        child = np.arange(4, dtype=np.int64) * 4 ** (lvl - 1) + lvl - 1
        hop = np.abs(zr[child] - zr[lvl]) + np.abs(zc[child] - zc[lvl])
        moved = int(np.count_nonzero(hop))
        blocks = n // 4**lvl
        energy += blocks * int(hop.sum())
        messages += blocks * moved
        sends += moved
        inc.append(np.stack([hop > 0, hop]).astype(META_DTYPE)[:, None, :])
    plan = _ScanPlan(zr, zc, nlevels, tuple(inc), energy, messages, sends)
    _SCAN_PLANS[n] = plan
    return plan


def _layout_plan(ta: TrackedArray, region: Region) -> _ScanPlan:
    """The plan of a scan over ``ta`` on ``region``, after checking its layout.

    Raises ``ValueError`` for an empty input, one not filling the region, a
    size that is not a power of 4, a non-square region, or an entry off its
    Z-order cell; nothing is charged before.
    """
    n = len(ta)
    if n == 0:
        raise ValueError("scan of empty input")
    if n != region.size:
        raise ValueError(f"scan expects one value per cell ({region.size}), got {n}")
    plan = _scan_plan(n)
    if region.height != region.width:
        raise ValueError(f"scan needs a square region, got {region}")
    check_cells(ta, region, plan.rows, plan.cols, "scan expects entry i at the i-th Z-order cell")
    return plan


def scan(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    monoid: Monoid = ADD,
) -> ScanResult:
    """Prefix-``monoid`` over ``ta`` stored in Z-order on square ``region``.

    ``ta`` entry ``i`` must be located at the ``i``-th Z-order cell of
    ``region`` (use :meth:`SpatialMachine.place_zorder`); any other layout
    raises ``ValueError``.  The operator is combined strictly
    left-to-right, so non-commutative monoids (segmented operators) are
    safe.

    Fault-transparent: under a :class:`~repro.machine.FaultPlan` the scan
    outputs are bit-identical to the fault-free run; only costs inflate.
    """
    plan = _layout_plan(ta, region)
    n = len(ta)
    if n == 1:
        return ScanResult(inclusive=ta, exclusive=ta.with_payload(
            monoid.identity(1, like=ta.payload)), total=ta)
    if machine.clean_fast:
        return _scan_fast(machine, ta, region, monoid, plan)

    nlevels = len(plan.inc)
    zrows, zcols = region.row + plan.rows, region.col + plan.cols
    with machine.phase("scan"):
        # ---------------- up-sweep ----------------
        # cur: one value per node of the current level, in Z-order of blocks.
        cur = ta
        child_store: list[tuple[TrackedArray, ...]] = []
        with machine.phase("up_sweep"):
            for lvl in range(1, nlevels + 1):
                nblocks = n // 4**lvl
                parents_z = np.arange(nblocks, dtype=np.int64) * 4**lvl + lvl
                prow, pcol = zrows[parents_z], zcols[parents_z]
                received = tuple(
                    machine.send(cur[q::4], prow, pcol) for q in range(4)
                )
                payload = received[0].payload
                for q in range(1, 4):
                    payload = monoid(payload, received[q].payload)
                cur = received[0].combined_with(*received[1:], payload=payload)
                child_store.append(received)
        total = cur  # single value at the root's host processor

        # ---------------- down-sweep ----------------
        ident = monoid.identity(1, like=ta.payload)
        x = TrackedArray(
            machine,
            ident,
            total.rows.copy(),
            total.cols.copy(),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )
        with machine.phase("down_sweep"):
            for lvl in range(nlevels, 0, -1):
                nblocks = n // 4**lvl
                received = child_store[lvl - 1]
                # running prefixes t_q = x ∘ s_0 ∘ ... ∘ s_{q-1}, local at the node
                prefixes = [x]
                for q in range(1, 4):
                    prev = prefixes[-1]
                    payload = monoid(prev.payload, received[q - 1].payload)
                    prefixes.append(prev.combined_with(received[q - 1], payload=payload))
                # forward prefix q to child q's host processor
                block_starts = np.arange(nblocks, dtype=np.int64) * 4**lvl
                sent = []
                for q in range(4):
                    child_z = block_starts + q * 4 ** (lvl - 1) + (lvl - 1)
                    sent.append(machine.send(prefixes[q], zrows[child_z], zcols[child_z]))
                merged = concat_tracked(sent)
                # restore Z-order: entry for child q of block p belongs at index 4p+q
                target = np.concatenate(
                    [np.arange(q, 4 * nblocks, 4, dtype=np.int64) for q in range(4)]
                )
                x = merged[np.argsort(target, kind="stable")]

        exclusive = x
        inclusive = exclusive.combined_with(
            ta, payload=monoid(exclusive.payload, ta.payload)
        )
    return ScanResult(inclusive=inclusive, exclusive=exclusive, total=total)


def _sweep_levels(plan: _ScanPlan, meta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(depth, dist)`` arithmetic of a scan, level by level.

    ``meta`` is the ``(2, n)`` input metadata in Z-order.  Returns the
    ``(2, 1)`` metadata of the up-sweep's root and the ``(2, n)``
    metadata of the exclusive prefixes the down-sweep leaves at the
    leaves.  Each level is one reshape to ``(blocks, 4)`` child slots: a
    max over a block going up, a running max along it coming down, from a
    ``(0, 0)`` root.  Metadata only grows along the tree, so the root holds
    the up-sweep's maxima and the leaves the down-sweep's.
    """
    store = []
    for inc in plan.inc:
        got = meta.reshape(2, -1, 4) + inc  # as received at the parent
        store.append(got)
        meta = np.maximum(
            np.maximum(got[..., 0], got[..., 1]), np.maximum(got[..., 2], got[..., 3])
        )
    root = meta
    meta = np.zeros((2, 1), dtype=META_DTYPE)
    for got, inc in zip(reversed(store), reversed(plan.inc)):
        # prefix q depends on the node's x and child slots 0..q-1
        sent = np.empty_like(got)
        np.add(meta, inc[..., 0], out=sent[..., 0])
        for q in range(1, 4):
            meta = np.maximum(meta, got[..., q - 1])
            np.add(meta, inc[..., q], out=sent[..., q])
        meta = sent.reshape(2, -1)
    return root, meta


#: far above any zero-root path of the scan, so that shifting the input by
#: it isolates the part of each output that grows with the input
_SHIFT = 1 << 40

# per input size: _uniform_tables' (R, T0, T1)
_UNIFORM: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _uniform_tables(plan: _ScanPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(R, T0, T1)`` of :func:`_sweep_meta`'s uniform case (cached).

    Every output is a longest path of ``(max, +)`` arithmetic, from an input
    or from the down-sweep's ``(0, 0)`` root.  The up-sweep root only has
    input paths, so it is ``c + R``; an exclusive prefix is ``max(T0, c +
    T1)``, ``T0`` its longest path from the root and ``T1`` its longest
    from an input.  Sweeping ``-_SHIFT`` keeps the root paths only
    (``T0``), sweeping ``+_SHIFT`` lifts every input path above them
    (``T1``).  A path crosses each level at most twice, once up and once
    down, so ``T0`` and ``T1`` fit int16 up to sides of several thousand
    (int32 beyond): 8 bytes per input cell.
    """
    n = len(plan.rows)
    cached = _UNIFORM.get(n)
    if cached is None:
        longest = 2 * sum(int(inc.max()) for inc in plan.inc)
        small = np.int16 if longest < 1 << 15 else np.int32
        shift = np.full((2, 1), _SHIFT, dtype=META_DTYPE)
        t0 = _sweep_levels(plan, np.broadcast_to(-shift, (2, n)))[1].astype(small)
        root, t1 = _sweep_levels(plan, np.broadcast_to(shift, (2, n)))
        t1 -= shift
        t1[:, 0] = 0  # no input reaches the first leaf: see _sweep_meta
        cached = root - shift, t0, t1.astype(small)
        _UNIFORM[n] = cached
    return cached


def _sweep_meta(plan: _ScanPlan, meta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_sweep_levels`, or its closed form when every input carries
    the same metadata ``c`` (a freshly placed input carries zeros): root
    ``c + R`` and exclusive prefixes ``max(T0, c + T1)`` from
    :func:`_uniform_tables`.  The first leaf's prefix is the root's
    identity, forwarded down child slot 0 at every level, so it is ``T0``
    alone, whatever ``c`` is.
    """
    c = meta[:, :1]
    if not (meta == c).all():
        return _sweep_levels(plan, meta)
    root, t0, t1 = _uniform_tables(plan)
    excl = c + t1
    np.maximum(excl, t0, out=excl)
    excl[:, 0] = t0[:, 0]
    return c + root, excl


def _scan_fast(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    monoid: Monoid,
    plan: _ScanPlan,
) -> ScanResult:
    """The up/down-sweep from its per-side plan (clean fast machines only).

    The plan's counters are charged per sweep and the metadata comes from
    :func:`_sweep_meta`; the monoid folds each level's ``(blocks, 4)``
    child slots in the reference's exact association.
    """
    shape = ta.payload.shape[1:]
    root, meta = _sweep_meta(plan, np.stack([ta.depth, ta.dist]))
    cur = ta.payload
    store = []
    with machine.phase("scan"):
        with machine.phase("up_sweep"):
            for _ in plan.inc:
                kids = cur.reshape((-1, 4) + shape)
                store.append(kids)
                cur = monoid(monoid(monoid(kids[:, 0], kids[:, 1]), kids[:, 2]), kids[:, 3])
            machine._charge(plan.energy, plan.messages, plan.sends)
            machine.observe_maxima(int(root[0, 0]), int(root[1, 0]))
        root_r = np.array([region.row + plan.rows[plan.root]])
        root_c = np.array([region.col + plan.cols[plan.root]])
        total = _tracked(machine, cur, root_r, root_c, root[0], root[1])

        x = monoid.identity(1, like=ta.payload)
        with machine.phase("down_sweep"):
            for kids in reversed(store):
                # prefix q = x . s_0 . ... . s_{q-1}, forwarded to child slot q
                prefixes = [x]
                for q in range(1, 4):
                    prefixes.append(monoid(prefixes[-1], kids[:, q - 1]))
                x = np.stack(prefixes, axis=1).reshape((-1,) + shape)
            machine._charge(plan.energy, plan.messages, plan.sends)
            dmax, smax = meta.max(axis=1).tolist()
            machine.observe_maxima(dmax, smax)
        exclusive = _tracked(machine, x, ta.rows, ta.cols, meta[0], meta[1])
        depth = np.maximum(meta[0], ta.depth)
        dist = np.maximum(meta[1], ta.dist)
        machine.observe(depth, dist)
        inclusive = _tracked(machine, monoid(x, ta.payload), ta.rows, ta.cols, depth, dist)
    return ScanResult(inclusive=inclusive, exclusive=exclusive, total=total)


def scan_any(
    machine: SpatialMachine,
    values: np.ndarray,
    monoid: Monoid = ADD,
    region: Region | None = None,
) -> np.ndarray:
    """Inclusive prefix-``monoid`` of a plain array of *any* length.

    Pads with identity elements up to the next power-of-4 square (a
    placement-time decision, costing nothing extra beyond the slightly
    larger grid), runs :func:`scan`, and returns the first ``len(values)``
    inclusive results as a NumPy array.  The convenience entry point for
    callers that do not manage placements themselves.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n == 0:
        return values.copy()
    side = 1
    while side * side < n:
        side *= 2
    region = region or Region(0, 0, side, side)
    padded = monoid.identity(region.size, like=values)
    padded[:n] = values
    ta = machine.place_zorder(padded, region)
    res = scan(machine, ta, region, monoid)
    return res.inclusive.payload[:n].copy()


def segmented_scan(
    machine: SpatialMachine,
    flags: np.ndarray,
    ta: TrackedArray,
    region: Region,
    monoid: Monoid = ADD,
) -> ScanResult:
    """Segmented scan: restart the prefix at every ``flags[i] != 0`` position.

    Runs the plain scan with the segmented operator (Section IV.C); costs are
    identical to :func:`scan`.  The returned payloads are unpacked back to
    plain values.
    """
    packed = ta.with_payload(pack_segmented(flags, ta.payload))
    res = scan(machine, packed, region, segmented(monoid))

    def unpack(t: TrackedArray) -> TrackedArray:
        _, vals = unpack_segmented(t.payload)
        return t.with_payload(vals)

    return ScanResult(
        inclusive=unpack(res.inclusive),
        exclusive=unpack(res.exclusive),
        total=unpack(res.total),
    )


def segmented_broadcast(
    machine: SpatialMachine,
    flags: np.ndarray,
    ta: TrackedArray,
    region: Region,
) -> TrackedArray:
    """Deliver each segment head's value to every member of its segment.

    Implemented as a segmented *copy* scan (the paper's Section VIII step 3:
    "a segmented broadcast implemented via a parallel scan").  Entry ``i`` of
    the result holds the value of the most recent flagged position ``<= i``.
    """

    def copy_op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # "first" semigroup: segments carry their head's value rightward
        return a

    first = Monoid("first", copy_op, np.nan, commutative=False)
    with machine.phase("segmented_broadcast"):
        res = segmented_scan(machine, flags, ta, region, first)
    return res.inclusive
