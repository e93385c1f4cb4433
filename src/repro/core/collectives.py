"""Communication collectives without multicasting (paper, Section IV.A-B).

* ``broadcast`` — value at the top-left corner reaches every processor of an
  ``h x w`` subgrid in ``O(hw + h log h)`` energy, ``O(log n)`` depth and
  ``O(w + h)`` distance (Lemma IV.1).  Square grids use the recursive
  quadrant-corner scheme; tall grids first run a binary-tree broadcast down
  the first column and then a square broadcast inside each ``w x w`` block.
* ``reduce`` — the exact reverse communication pattern (Corollary IV.2).
* ``all_reduce`` — reduce followed by broadcast: every cell receives a copy
  of the total.
* ``broadcast_onto`` — a broadcast used as a control gate: each element
  depends on the copy that reached its own cell.  The randomized selection
  of Section VI counts with ``reduce`` plus ``broadcast_onto``, since its
  elements only need the count's dependency, not a copy.

On a square subgrid this is a ``Θ(log n)``-factor energy improvement over the
``O(log n)``-depth binary-tree reduce of prior work, which we implement in
:mod:`repro.core.scan_baselines` for the head-to-head bench.
"""

from __future__ import annotations

import numpy as np

from ..machine.fastpath import quad_broadcast_energy, quad_offsets
from ..machine.geometry import Region
from ..machine.machine import SpatialMachine, TrackedArray, _tracked
from ..machine.metrics import META_DTYPE
from ..machine.zorder import is_power_of_two, zorder_cells, zorder_encode
from .ops import Monoid
from .validate import misplaced

__all__ = [
    "broadcast",
    "broadcast_1d",
    "broadcast_2d",
    "broadcast_many",
    "broadcast_onto",
    "reduce",
    "reduce_2d",
    "all_reduce",
]


# ----------------------------------------------------------------------
# broadcast
# ----------------------------------------------------------------------
def broadcast_2d(machine: SpatialMachine, value: TrackedArray, region: Region) -> TrackedArray:
    """Recursive quadrant broadcast on a square power-of-two region.

    ``value`` must be a batch of corner values: one value per ``region``-sized
    block, each located at its block's top-left corner.  (Passing a single
    length-1 value at ``region.corner()`` is the common case; the batched form
    lets the general ``h x w`` broadcast run all blocks in lockstep.)
    Returns one value per covered cell.
    """
    side = region.width
    if region.height != side or not is_power_of_two(side):
        raise ValueError(f"broadcast_2d needs a square power-of-two region, got {region}")
    return machine.quadrant_broadcast(value, side)


# the binary tree of the 1D broadcast, keyed by length: per level, the
# (parent, first child, second child or -1) arrays; the shape is fixed by n
_BC1D_TREE: dict[int, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]] = {}


def _bc1d_tree(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The levels of the binary tree over a line of ``n`` cells, root first.

    A node at ``lo`` rooting the cells ``lo..hi`` hands the value to ``lo +
    1``, which roots the first half (rounded up) of the remainder, and to the
    cell after that half, if any, which roots the rest (paper, Section
    IV.A).  Level ``k`` lists the nodes that send in it, in sending order.
    """
    levels = _BC1D_TREE.get(n)
    if levels is not None:
        return levels
    tree = []
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, n - 1, dtype=np.int64)
    while True:
        rem = hi - lo
        active = rem > 0
        if not active.any():
            break
        lo_a, hi_a = lo[active], hi[active]
        s1 = (rem[active] + 1) // 2  # first subtree size (ceil)
        child_a = lo_a + 1
        child_b = lo_a + s1 + 1
        has_b = child_b <= hi_a
        tree.append((lo_a, child_a, np.where(has_b, child_b, -1)))
        lo = np.concatenate([child_a, child_b[has_b]])
        hi = np.concatenate([lo_a + s1, hi_a[has_b]])
    levels = _BC1D_TREE[n] = tuple(tree)
    return levels


# per-element (depth, dist) offsets plus flat counters of the binary-tree
# 1D broadcast, keyed by length
_BC1D_CACHE: dict[int, tuple[np.ndarray, np.ndarray, int, int, int, int, int]] = {}


def _bc1d_tables(n: int) -> tuple[np.ndarray, np.ndarray, int, int, int, int, int]:
    """Simulate the reference tree once in index space.

    Returns ``(depth_off, dist_off, energy, messages, sends, dmax, smax)``:
    the metadata increments per linear index, the summed counters, and the
    number of communicating send rounds.
    """
    cached = _BC1D_CACHE.get(n)
    if cached is not None:
        return cached
    depth_off = np.zeros(n, dtype=META_DTYPE)
    dist_off = np.zeros(n, dtype=META_DTYPE)
    energy = messages = sends = 0
    for parent, child_a, child_b in _bc1d_tree(n):
        # hop distance 1 from the segment root
        depth_off[child_a] = depth_off[parent] + 1
        dist_off[child_a] = dist_off[parent] + 1
        energy += len(child_a)
        messages += len(child_a)
        sends += 1
        has_b = child_b >= 0
        if has_b.any():
            src_b, child_b = parent[has_b], child_b[has_b]
            d = child_b - src_b
            depth_off[child_b] = depth_off[src_b] + 1
            dist_off[child_b] = dist_off[src_b] + d
            energy += int(d.sum())
            messages += len(child_b)
            sends += 1
    tables = (
        depth_off,
        dist_off,
        energy,
        messages,
        sends,
        int(depth_off.max()),
        int(dist_off.max()),
    )
    _BC1D_CACHE[n] = tables
    return tables


# closed form of the whole h x w broadcast, keyed by shape: per row-major
# cell (depth, dist) offsets from the root value plus the flat counters
_BCAST_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, int, int, int, int, int]] = {}


def _broadcast_tables(h: int, w: int) -> tuple[np.ndarray, np.ndarray, int, int, int, int, int]:
    """Closed form of :func:`broadcast` on an ``h x w`` region.

    Both sides must be powers of two, unless one of them is 1: a line of any
    length is the closed form of :func:`broadcast_1d`.  Returns
    ``(depth_off, dist_off, energy, messages, sends, dmax, smax)``: the
    metadata increments per row-major cell, the summed counters, and the
    largest increments observed on the way (the 1D stage of a non-square
    region reaches cells whose values the square stage then overwrites).
    """
    cached = _BCAST_CACHE.get((h, w))
    if cached is not None:
        return cached
    side = min(h, w)
    k = side.bit_length() - 1
    row_off, col_off, q_dep, q_dst = quad_offsets(side)
    q_energy = quad_broadcast_energy(side)
    if h == w:
        corner_d = corner_s = np.zeros(1, dtype=META_DTYPE)
        energy = messages = sends = dmax = smax = 0
    else:
        line_d, line_s, energy, messages, sends, dmax, smax = _bc1d_tables(max(h, w))
        corners = np.arange(0, max(h, w), side, dtype=np.int64)
        corner_d, corner_s = line_d[corners], line_s[corners]
    m = len(corner_d)
    # corner j roots the j-th square block along the long side
    block = np.arange(m, dtype=np.int64)[:, None] * side
    if h > w:
        cells = (block + row_off) * w + col_off
    else:
        cells = row_off * w + block + col_off
    depth_off = np.empty(h * w, dtype=META_DTYPE)
    dist_off = np.empty(h * w, dtype=META_DTYPE)
    depth_off[cells] = corner_d[:, None] + q_dep
    dist_off[cells] = corner_s[:, None] + q_dst
    if k:
        energy += m * q_energy
        messages += m * (side * side - 1)
        sends += 3 * k
        dmax = max(dmax, int(corner_d.max()) + k)
        smax = max(smax, int(corner_s.max()) + 2 * (side - 1))
    tables = (depth_off, dist_off, energy, messages, sends, dmax, smax)
    _BCAST_CACHE[(h, w)] = tables
    return tables


def _charge_broadcasts(
    machine: SpatialMachine, h: int, w: int, depth0: np.ndarray, dist0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Charge ``len(depth0)`` closed-form ``h x w`` broadcasts to the active
    phase; returns the per row-major cell ``(depth, dist)`` increments."""
    depth_off, dist_off, energy, messages, sends, dmax, smax = _broadcast_tables(h, w)
    m = len(depth0)
    if m and sends:  # a 1 x 1 region: the root already holds the value
        machine._charge(m * energy, m * messages, m * sends)
        machine.observe_maxima(int(depth0.max()) + dmax, int(dist0.max()) + smax)
    return depth_off, dist_off


def broadcast_many(
    machine: SpatialMachine, h: int, w: int, depth0: np.ndarray, dist0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Charge ``len(depth0)`` independent ``h x w`` broadcasts (clean fast
    machines only).

    Broadcast ``i`` starts from a root value at its region's corner carrying
    ``(depth0[i], dist0[i])``; every counter equals that of the same number
    of reference :func:`broadcast` calls.  Returns the per row-major cell
    increments: cell ``c`` of broadcast ``i`` receives ``depth0[i] +
    depth_off[c]``.
    """
    if not machine.clean_fast:
        raise ValueError("broadcast_many charges closed forms: clean fast machines only")
    if not (is_power_of_two(h) and is_power_of_two(w)):
        raise ValueError(f"broadcast needs power-of-two sides, got {h} x {w}")
    if not len(depth0):
        return _broadcast_tables(h, w)[:2]
    with machine.phase("broadcast"):
        return _charge_broadcasts(machine, h, w, depth0, dist0)


def _closed_form_ok(machine: SpatialMachine, value: TrackedArray, region: Region) -> bool:
    """A clean fast machine broadcasting one value that already sits at the
    region corner, where the closed forms measure their hops from."""
    return (
        machine.clean_fast
        and len(value) == 1
        and int(value.rows[0]) == region.row
        and int(value.cols[0]) == region.col
    )


def _corner_copies(
    machine: SpatialMachine,
    value: TrackedArray,
    region: Region,
    depth_off: np.ndarray,
    dist_off: np.ndarray,
) -> TrackedArray:
    """One copy of ``value`` per cell of ``region``, in row-major order."""
    rows, cols = region.rowmajor_coords()
    payload = np.repeat(value.payload, region.size, axis=0)
    return _tracked(
        machine, payload, rows, cols, value.depth[0] + depth_off, value.dist[0] + dist_off
    )


def broadcast_1d(machine: SpatialMachine, value: TrackedArray, region: Region) -> TrackedArray:
    """Binary-tree broadcast along a 1-wide (or 1-tall) region.

    The root keeps the value, hands it to the neighbour at offset 1 (which
    roots the first half of the remainder) and to the node after that half
    (which roots the second half); both subtrees recurse (paper, Section IV.A).
    Output values are returned in linear-index order.
    """
    if region.width != 1 and region.height != 1:
        raise ValueError(f"broadcast_1d needs a 1-wide or 1-tall region, got {region}")
    n = region.size
    vertical = region.width == 1
    if n > 1 and _closed_form_ok(machine, value, region):
        offsets = _charge_broadcasts(machine, region.height, region.width, value.depth, value.dist)
        return _corner_copies(machine, value, region, *offsets)

    def coords(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if vertical:
            return region.row + idx, np.full_like(idx, region.col)
        return np.full_like(idx, region.row), region.col + idx

    out = value[np.zeros(n, dtype=np.int64)]  # the root's copy, then each child's
    for parent, child_a, child_b in _bc1d_tree(n):
        _scatter(out, child_a, machine.send(out[parent], *coords(child_a)))
        has_b = child_b >= 0
        if has_b.any():
            child_b = child_b[has_b]
            _scatter(out, child_b, machine.send(out[parent[has_b]], *coords(child_b)))
    return out


def _scatter(acc: TrackedArray, idx: np.ndarray, sub: TrackedArray) -> None:
    """Store ``sub`` as the values of ``acc`` at ``idx`` (bookkeeping only)."""
    acc.payload[idx] = sub.payload
    acc.rows[idx] = sub.rows
    acc.cols[idx] = sub.cols
    acc.depth[idx] = sub.depth
    acc.dist[idx] = sub.dist


def broadcast(machine: SpatialMachine, value: TrackedArray, region: Region) -> TrackedArray:
    """General ``h x w`` broadcast from the region's top-left corner.

    Sides must be powers of two.  Returns one value per cell in row-major
    order of the region.  A clean fast machine charges the closed form of
    :func:`broadcast_many`.
    """
    _check_root(value, region)
    h, w = region.height, region.width
    if _closed_form_ok(machine, value, region):
        offsets = broadcast_many(machine, h, w, value.depth, value.dist)
        return _corner_copies(machine, value, region, *offsets)
    with machine.phase("broadcast"):
        if h == w:
            out = broadcast_2d(machine, value, region)
            return _order_rowmajor(out, region)
        if h > w:
            col0 = Region(region.row, region.col, h, 1)
            colvals = broadcast_1d(machine, value, col0)
            corner_idx = np.arange(0, h, w, dtype=np.int64)
            corners = colvals[corner_idx]
            out = broadcast_2d(machine, corners, Region(region.row, region.col, w, w))
            return _order_rowmajor(out, region)
        # wide case: mirror along the first row
        row0 = Region(region.row, region.col, 1, w)
        rowvals = broadcast_1d(machine, value, row0)
        corner_idx = np.arange(0, w, h, dtype=np.int64)
        corners = rowvals[corner_idx]
        out = broadcast_2d(machine, corners, Region(region.row, region.col, h, h))
        return _order_rowmajor(out, region)


def _check_root(value: TrackedArray, region: Region) -> None:
    if not (is_power_of_two(region.height) and is_power_of_two(region.width)):
        raise ValueError(f"broadcast needs power-of-two sides, got {region}")
    if len(value) != 1:
        raise ValueError("broadcast expects a single root value")


def broadcast_onto(
    machine: SpatialMachine, value: TrackedArray, region: Region, ta: TrackedArray
) -> TrackedArray:
    """Broadcast ``value`` over ``region`` as a control gate on ``ta``.

    Charges exactly what :func:`broadcast` charges and returns ``ta`` (whose
    entries must lie in ``region``) with each entry depending on the copy
    that reached its own cell.  Where :func:`broadcast` takes its closed
    form, that copy's metadata is the root's plus the shape's per-cell
    offset, so no copy is built.  An entry outside ``region`` has no copy
    at its cell and raises ``ValueError`` before any charge.
    """
    _check_root(value, region)
    r, c = ta.rows - region.row, ta.cols - region.col
    # viewed unsigned, a negative offset is huge: one max bounds both sides
    if len(ta) and (
        r.view(np.uint64).max() >= region.height or c.view(np.uint64).max() >= region.width
    ):
        i = int(np.argmin(region.contains(ta.rows, ta.cols)))
        raise ValueError(
            f"broadcast_onto gates entries of {region}: entry {i} sits "
            f"outside it at ({int(ta.rows[i])}, {int(ta.cols[i])})"
        )
    cells = r * region.width + c
    if not _closed_form_ok(machine, value, region):
        return ta.depending_on(broadcast(machine, value, region)[cells])
    depth_off, dist_off = broadcast_many(
        machine, region.height, region.width, value.depth, value.dist
    )
    return ta.depending_on_meta(value.depth[0] + depth_off[cells], value.dist[0] + dist_off[cells])


def _order_rowmajor(ta: TrackedArray, region: Region) -> TrackedArray:
    """Reorder bookkeeping so entry i sits at the i-th row-major cell (free)."""
    idx = region.rowmajor_index(ta.rows, ta.cols)
    order = np.argsort(idx, kind="stable")
    return ta[order]


# ----------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------
def reduce_2d(
    machine: SpatialMachine, ta: TrackedArray, region: Region, monoid: Monoid
) -> TrackedArray:
    """Quadrant-tree reduce on one or more square blocks (reverse broadcast).

    ``ta`` holds one value per cell.  If it covers several equal square blocks
    they are reduced in lockstep; entries must then be grouped block-by-block.
    Combination order inside each block follows the Z-order, so any
    associative (not necessarily commutative) monoid is supported.
    Returns one value per block, located at the block corner.
    """
    side = region.width
    if region.height != side or not is_power_of_two(side):
        raise ValueError(f"reduce_2d needs square power-of-two blocks, got {region}")
    block = side * side
    if len(ta) % block:
        raise ValueError(f"{len(ta)} values is not a multiple of block size {block}")

    # order each block's entries along its Z-curve (local bookkeeping)
    nblocks = len(ta) // block
    block_ids = np.repeat(np.arange(nblocks, dtype=np.int64), block)
    # block-local Z index from modular coordinates
    z_local = zorder_encode((ta.rows - region.row) % side, (ta.cols - region.col) % side)
    order = np.lexsort((z_local, block_ids))
    return machine.quadrant_reduce(ta[order], side, monoid)


def reduce(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    monoid: Monoid,
) -> TrackedArray:
    """General ``h x w`` reduce to the top-left corner (Corollary IV.2).

    ``ta`` must hold exactly one value per cell of ``region`` (any entry
    order).  Non-commutative monoids are combined in row-major block order /
    Z-order within blocks, i.e. a fixed deterministic order.  A square
    region whose entries already sit in Z-order skips the reordering.
    """
    h, w = region.height, region.width
    if not (is_power_of_two(h) and is_power_of_two(w)):
        raise ValueError(f"reduce needs power-of-two sides, got {region}")
    if len(ta) != region.size:
        raise ValueError(f"reduce expects one value per cell ({region.size}), got {len(ta)}")
    with machine.phase("reduce"):
        if h == w:
            if misplaced(ta, region, *zorder_cells(w)) < 0:
                return machine.quadrant_reduce(ta, w, monoid)
            return reduce_2d(machine, _order_block_rowmajor(ta, region, w), region, monoid)

        if h > w:
            # square-block reduce within each w x w block, then a column tree
            ta = _order_block_rowmajor(ta, region, w)
            blocks = reduce_2d(machine, ta, Region(region.row, region.col, w, w), monoid)
            col0 = Region(region.row, region.col, h, 1)
            return _tree_reduce_1d(machine, blocks, col0, stride=w, monoid=monoid)
        # wide case: blocks along the first row
        ta = _order_block_rowmajor(ta, region, h)
        blocks = reduce_2d(machine, ta, Region(region.row, region.col, h, h), monoid)
        row0 = Region(region.row, region.col, 1, w)
        return _tree_reduce_1d(machine, blocks, row0, stride=h, monoid=monoid)


def _order_block_rowmajor(ta: TrackedArray, region: Region, side: int) -> TrackedArray:
    """Group entries by their square block (blocks tile along the long axis)."""
    if region.height >= region.width:
        block_ids = (ta.rows - region.row) // side
    else:
        block_ids = (ta.cols - region.col) // side
    order = np.argsort(block_ids, kind="stable")
    return ta[order]


def _tree_reduce_1d(
    machine: SpatialMachine,
    blocks: TrackedArray,
    line: Region,
    stride: int,
    monoid: Monoid,
) -> TrackedArray:
    """Reverse of :func:`broadcast_1d` over block corners spaced ``stride`` apart.

    Only every ``stride``-th cell of ``line`` holds a block sum; the remaining
    tree nodes act as relays contributing the identity, exactly mirroring the
    broadcast tree's edges (and hence its energy/depth/distance).
    """
    n = line.size
    vertical = line.width == 1

    def coords(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if vertical:
            return line.row + idx, np.full_like(idx, line.col)
        return np.full_like(idx, line.row), line.col + idx

    # accumulator over all n line cells: block sums or identity
    acc_payload = monoid.identity(n, like=blocks.payload)
    acc_rows, acc_cols = coords(np.arange(n, dtype=np.int64))
    acc_depth = np.zeros(n, dtype=np.int64)
    acc_dist = np.zeros(n, dtype=np.int64)
    block_idx = np.arange(0, n, stride, dtype=np.int64)
    acc_payload[block_idx] = blocks.payload
    acc_depth[block_idx] = blocks.depth
    acc_dist[block_idx] = blocks.dist
    acc = TrackedArray(machine, acc_payload, acc_rows, acc_cols, acc_depth, acc_dist)

    for parents, child_a, child_b in reversed(_bc1d_tree(n)):
        a = machine.send(acc[child_a], *coords(parents))
        p = acc[parents]
        payload = monoid(p.payload, a.payload)
        combined = p.combined_with(a, payload=payload)
        has_b = child_b >= 0
        if has_b.any():
            pb = parents[has_b]
            b = machine.send(acc[child_b[has_b]], *coords(pb))
            cb = combined[has_b]
            payload_b = monoid(cb.payload, b.payload)
            merged_b = cb.combined_with(b, payload=payload_b)
            _scatter(acc, pb, merged_b)
            _scatter(acc, parents[~has_b], combined[~has_b])
        else:
            _scatter(acc, parents, combined)
    return acc[np.zeros(1, dtype=np.int64)]


def all_reduce(
    machine: SpatialMachine, ta: TrackedArray, region: Region, monoid: Monoid
) -> TrackedArray:
    """Reduce to the corner then broadcast back: every cell learns the total.

    Returns one value per cell in row-major order (Section VI uses this to
    count active elements).
    """
    with machine.phase("all_reduce"):
        total = reduce(machine, ta, region, monoid)
        return broadcast(machine, total, region)
