"""Energy-optimal 2D Mergesort (paper, Section V.C, Theorem V.8).

Recursively sort the four quadrants of the square subgrid, merge the two top
quadrants (into the wide top half), merge the two bottom quadrants, then
merge the two halves — every merge being the rank-splitting 2D merge of
Lemma V.7.  Costs on a ``sqrt(n) x sqrt(n)`` grid:

* energy ``O(n^{3/2})`` — optimal by the permutation lower bound
  (Corollary V.2);
* depth ``O(log^3 n)``;
* distance ``O(sqrt(n))``.

Tiny blocks are finished with the ``O(log n)``-depth All-Pairs Sort — the
auxiliary sorter the paper pairs with the mergesort — whose
``O(base^{5/2})`` energy is a constant per block.

On a clean fast machine the recursion runs level by level with identical
counters: one segmented All-Pairs Sort for every base block, then per level
one batch of half merges and one batch of full merges
(:func:`~repro.core.sorting.merge2d.merge_sorted_2d_many`).  Every other
machine walks the recursion depth first.
"""

from __future__ import annotations

import numpy as np

from ...machine.geometry import Region
from ...machine.machine import SpatialMachine, TrackedArray
from ...machine.zorder import is_power_of_two, zorder_decode, zorder_encode
from ..validate import check_finite_values, check_keys
from .allpairs import allpairs_sort, allpairs_sort_many
from .merge2d import merge_sorted_2d, merge_sorted_2d_many

__all__ = ["mergesort_2d", "sort_values", "sort_any"]


def mergesort_2d(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    key_cols: int = 1,
    base_case: int = 16,
) -> TrackedArray:
    """Sort ``ta`` (one value per cell of square ``region``, row-major entry
    order) into row-major order on the same region.

    ``region`` must be a power-of-two square.  The payload is ``(n, k)`` with
    ``key_cols`` leading key columns compared lexicographically; ties keep a
    deterministic order via the merge's A-before-B rule and the base sorter's
    position tie-break.  A NaN key raises ``ValueError`` on every machine.
    """
    if not region.is_square or not is_power_of_two(region.width):
        raise ValueError(f"mergesort_2d needs a power-of-two square region, got {region}")
    n = len(ta)
    if n != region.size:
        raise ValueError(f"expected one value per cell ({region.size}), got {n}")
    if ta.payload.ndim != 2:
        raise ValueError("sort payloads are (n, k) arrays; see sortutil.as_sort_payload")
    check_keys(ta.payload, key_cols, "mergesort_2d input")
    with machine.phase("mergesort2d"):
        if machine.clean_fast:
            return _sort_levels(machine, ta, region, key_cols, max(4, base_case))
        return _sort_rec(machine, ta, region, key_cols, max(4, base_case))


def _sort_levels(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    key_cols: int,
    base_case: int,
) -> TrackedArray:
    """:func:`_sort_rec` one recursion level at a time.

    Blocks are kept in Z-order (the depth-first visiting order of the
    quadrants), each block's entries in row-major order of the block.
    """
    side = region.width
    b = side
    while b * b > base_case and b > 2:
        b //= 2
    order = _base_block_order(side, b)
    nblocks = (side // b) ** 2
    br, bc = zorder_decode(np.arange(nblocks, dtype=np.int64))
    rows, cols = region.row + br * b, region.col + bc * b
    cur = allpairs_sort_many(
        machine,
        ta[order],
        np.full(nblocks, b * b),
        key_cols,
        rows,
        cols,
        np.full(nblocks, b),
        rows,
        cols,
    )
    while b < side:
        # parent p of side 2b: merge its two top quadrants into the top half
        # and its two bottom quadrants into the bottom half, then the halves
        nparents = nblocks // 4
        pr, pc = zorder_decode(np.arange(nparents, dtype=np.int64))
        rows, cols = region.row + pr * 2 * b, region.col + pc * 2 * b
        halves = np.column_stack(
            [np.repeat(rows, 2), np.repeat(cols, 2), np.full(2 * nparents, b),
             np.full(2 * nparents, 2 * b)]
        )
        halves[1::2, 0] += b
        quarter = np.full(2 * nparents, b * b)
        cur = merge_sorted_2d_many(machine, cur, quarter, quarter, halves, key_cols, base_case)
        squares = np.column_stack(
            [rows, cols, np.full(nparents, 2 * b), np.full(nparents, 2 * b)]
        )
        half = np.full(nparents, 2 * b * b)
        cur = merge_sorted_2d_many(machine, cur, half, half, squares, key_cols, base_case)
        nblocks, b = nparents, 2 * b
    return cur


# base-block Z-order permutation per (side, block side); a handful of shapes
_BLOCK_ORDERS: dict[tuple[int, int], np.ndarray] = {}


def _base_block_order(side: int, b: int) -> np.ndarray:
    """The permutation taking row-major entries of a ``side x side`` region
    to base blocks of side ``b`` in Z-order, each block row-major (cached,
    read-only)."""
    order = _BLOCK_ORDERS.get((side, b))
    if order is None:
        idx = np.arange(side * side, dtype=np.int64)
        r, c = idx // side, idx % side
        order = np.argsort(zorder_encode(r // b, c // b) * (b * b) + (r % b) * b + c % b)
        order.flags.writeable = False
        _BLOCK_ORDERS[(side, b)] = order
    return order


def _sort_rec(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    key_cols: int,
    base_case: int,
) -> TrackedArray:
    n = len(ta)
    if n <= base_case or region.width <= 2:
        return allpairs_sort(
            machine,
            ta,
            out_region=region,
            key_cols=key_cols,
            workspace=Region(region.row, region.col, 1, 1),
        )

    tl, tr, bl, br = region.quadrants()
    # entries are row-major over the full region; pick out each quadrant
    idx = np.arange(n, dtype=np.int64)
    r, c = idx // region.width, idx % region.width
    h2, w2 = region.height // 2, region.width // 2
    quads = {
        "tl": (r < h2) & (c < w2),
        "tr": (r < h2) & (c >= w2),
        "bl": (r >= h2) & (c < w2),
        "br": (r >= h2) & (c >= w2),
    }
    sorted_q = {
        name: _sort_rec(machine, ta[mask], reg, key_cols, base_case)
        for (name, mask), reg in zip(quads.items(), (tl, tr, bl, br))
    }

    top_half = Region(region.row, region.col, h2, region.width)
    bottom_half = Region(region.row + h2, region.col, h2, region.width)
    top = merge_sorted_2d(
        machine, sorted_q["tl"], sorted_q["tr"], top_half, key_cols, base_case
    )
    bottom = merge_sorted_2d(
        machine, sorted_q["bl"], sorted_q["br"], bottom_half, key_cols, base_case
    )
    return merge_sorted_2d(machine, top, bottom, region, key_cols, base_case)


def sort_values(
    machine: SpatialMachine,
    values: np.ndarray,
    region: Region,
    base_case: int = 16,
) -> TrackedArray:
    """Convenience wrapper: place a 1-D value array row-major on ``region``
    and 2D-mergesort it.  Returns the sorted tracked array (payload (n, 1)).

    Fault-transparent: under a :class:`~repro.machine.FaultPlan` the sorted
    output is bit-identical to the fault-free run; only costs inflate."""
    values = np.asarray(values, dtype=np.float64)
    check_finite_values(machine, values, "sort_values input")
    ta = machine.place_rowmajor(values[:, None], region)
    return mergesort_2d(machine, ta, region, key_cols=1, base_case=base_case)


def sort_any(
    machine: SpatialMachine,
    values: np.ndarray,
    base_case: int = 16,
) -> np.ndarray:
    """Sort a plain array of *any* length; returns a NumPy array.

    Pads with +inf sentinels up to the next power-of-4 square at placement
    time, runs :func:`mergesort_2d`, and strips the padding — the
    convenience entry point for callers that do not manage placements.
    """
    values = np.asarray(values, dtype=np.float64)
    check_finite_values(machine, values, "sort_any input")
    n = len(values)
    if n == 0:
        return values.copy()
    side = 1
    while side * side < n:
        side *= 2
    region = Region(0, 0, side, side)
    padded = np.full(region.size, np.inf)
    padded[:n] = values
    out = sort_values(machine, padded, region, base_case=base_case)
    return out.payload[:n, 0].copy()
