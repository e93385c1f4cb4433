"""Z-order (Morton) curve utilities.

The paper (Section III) stores arrays along the Z-order traversal of a square
grid: visit the four quadrants recursively, top-left, top-right, bottom-left,
bottom-right.  With that quadrant order, the Morton code of a cell interleaves
the bits of its row and column coordinates with the **row bit above the column
bit** at every level:

    z = ... r1 c1 r0 c0   (bit interleave, row = high bit of each pair)

Observation 1 (paper): sending one message along every consecutive edge of the
Z-order curve of a sqrt(n) x sqrt(n) grid costs O(n) total energy.  This file
provides vectorized encode/decode plus a helper that evaluates that curve
energy exactly (used by tests and the Fig. 1 bench).

We also define a *generalized* Z-order for 2:1 rectangles (height x 2*height or
2*width x width), needed because the 4-way mergesort merges two adjacent square
quadrants whose union is a rectangle: the rectangle is traversed as its two
(left/right or top/bottom) square halves in order, each in square Z-order.
"""

from __future__ import annotations

import numpy as np

from .geometry import Region

__all__ = [
    "interleave_bits",
    "deinterleave_bits",
    "zorder_encode",
    "zorder_decode",
    "zorder_cells",
    "zorder_coords",
    "zorder_curve_energy",
    "is_power_of_two",
]


def is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


# Masks for the classic parallel bit-interleave (up to 32-bit inputs, 64-bit out).
_M32 = np.uint64(0x0000_0000_FFFF_FFFF)
_M16 = np.uint64(0x0000_FFFF_0000_FFFF)
_M8 = np.uint64(0x00FF_00FF_00FF_00FF)
_M4 = np.uint64(0x0F0F_0F0F_0F0F_0F0F)
_M2 = np.uint64(0x3333_3333_3333_3333)
_M1 = np.uint64(0x5555_5555_5555_5555)


def _spread(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of each element so bit i moves to bit 2i."""
    x = x.astype(np.uint64) & _M32
    x = (x | (x << np.uint64(16))) & _M16
    x = (x | (x << np.uint64(8))) & _M8
    x = (x | (x << np.uint64(4))) & _M4
    x = (x | (x << np.uint64(2))) & _M2
    x = (x | (x << np.uint64(1))) & _M1
    return x


def _compact(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread`: gather every other bit down."""
    x = x.astype(np.uint64) & _M1
    x = (x | (x >> np.uint64(1))) & _M2
    x = (x | (x >> np.uint64(2))) & _M4
    x = (x | (x >> np.uint64(4))) & _M8
    x = (x | (x >> np.uint64(8))) & _M16
    x = (x | (x >> np.uint64(16))) & _M32
    return x


def interleave_bits(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Interleave two coordinate arrays; ``hi`` supplies the odd (upper) bits."""
    return (_spread(np.asarray(hi)) << np.uint64(1)) | _spread(np.asarray(lo))


def deinterleave_bits(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`interleave_bits` -> (hi, lo)."""
    z = np.asarray(z, dtype=np.uint64)
    return _compact(z >> np.uint64(1)), _compact(z)


def zorder_encode(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Morton index of grid cells (row bit above column bit).

    Rows/cols are *local* coordinates (0-based within the square subgrid).
    """
    return interleave_bits(rows, cols).astype(np.int64)


def zorder_decode(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local ``(rows, cols)`` of Morton indices."""
    r, c = deinterleave_bits(z)
    return r.astype(np.int64), c.astype(np.int64)


# local Z-order cells of a square, keyed by side; 16 bytes per cell
_ZCELLS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def zorder_cells(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Local ``(rows, cols)`` of every cell of a ``side x side`` square in
    Z-order (cached; read-only)."""
    cached = _ZCELLS.get(side)
    if cached is None:
        if not is_power_of_two(side):
            raise ValueError(f"Z-order needs a power-of-two square side, got {side}")
        cached = zorder_decode(np.arange(side * side, dtype=np.int64))
        for cells in cached:
            cells.setflags(write=False)
        _ZCELLS[side] = cached
    return cached


def zorder_coords(region: Region, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Absolute coordinates of the first ``n`` cells of ``region`` in Z-order.

    Supports square power-of-two regions and 2:1 / 1:2 rectangles whose long
    side is split into two square halves traversed in order (generalized
    Z-order used by the rectangle merges of the 2D mergesort).
    """
    if n is None:
        n = region.size
    if n > region.size:
        raise ValueError(f"requested {n} cells from region of size {region.size}")
    h, w = region.height, region.width
    if h == w:
        if not is_power_of_two(h):
            raise ValueError(f"Z-order needs power-of-two square side, got {region}")
        r, c = zorder_cells(h)
        return region.row + r[:n], region.col + c[:n]
    if w == 2 * h:
        left, right = region.halves(axis=1)
        return _concat_halves(left, right, n)
    if h == 2 * w:
        top, bottom = region.halves(axis=0)
        return _concat_halves(top, bottom, n)
    raise ValueError(f"unsupported Z-order region shape {region}")


def _concat_halves(first: Region, second: Region, n: int) -> tuple[np.ndarray, np.ndarray]:
    k = min(n, first.size)
    r0, c0 = zorder_coords(first, k)
    if n <= first.size:
        return r0, c0
    r1, c1 = zorder_coords(second, n - first.size)
    return np.concatenate([r0, r1]), np.concatenate([c0, c1])


def zorder_curve_energy(side: int) -> int:
    """Exact total Manhattan length of the Z-order curve on a side x side grid.

    Observation 1 states this is O(n) with n = side**2; tests pin the constant.
    """
    rows, cols = zorder_coords(Region(0, 0, side, side))
    return int(
        np.sum(np.abs(np.diff(rows)) + np.abs(np.diff(cols)))
    )
