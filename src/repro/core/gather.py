"""Scan-based gather/scatter collectives.

Section VI's selection repeatedly "gathers those elements in a square
subgrid, using a scan to assign each sampled element an index within the
subgrid and a broadcast to communicate the size of the sample".  That
pattern — compact an arbitrary masked subset of a region into a dense square
staging area — is useful well beyond selection, so it lives here as a
collective:

* :func:`gather_masked` — scan the 0/1 mask (Θ(n) energy, O(log n) depth),
  broadcast the count, move the selected elements to the staging square's
  first cells; each move depends on both the scan result and the count
  broadcast, so measured depth covers the full control chain.
* :func:`scatter_back` — the inverse: spread staged values back to recorded
  home coordinates.

Both work on Z-order-placed regions (the scan's layout).
"""

from __future__ import annotations

import numpy as np

from ..machine.geometry import Region
from ..machine.machine import SpatialMachine, TrackedArray
from .collectives import broadcast_onto
from .ops import ADD
from .scan import scan

__all__ = ["gather_masked", "scatter_back", "staging_square"]


def staging_square(count: int, region: Region) -> Region:
    """Smallest power-of-two square at ``region``'s corner holding ``count``."""
    side = 1
    while side * side < max(count, 1):
        side *= 2
    return Region(region.row, region.col, side, side)


def gather_masked(
    machine: SpatialMachine,
    elems: TrackedArray,
    mask: np.ndarray,
    region: Region,
    staging: Region | None = None,
) -> TrackedArray:
    """Compact the ``mask``-selected entries of ``elems`` into a square.

    ``elems`` must hold one value per cell of ``region`` in Z-order entry
    order.  Returns the selected elements parked row-major on the staging
    square (default: :func:`staging_square` at the region's corner), in
    their original relative order, with scan/broadcast dependencies folded
    into their metadata.
    """
    if len(elems) != region.size:
        raise ValueError("gather_masked expects one value per cell")
    mask = np.asarray(mask, dtype=bool)
    with machine.phase("gather"):
        flags = elems.with_payload(mask.astype(np.float64))
        res = scan(machine, flags, region, ADD)
        corner_total = machine.send(
            res.total, np.array([region.row]), np.array([region.col])
        )
        count = int(round(float(np.asarray(res.total.payload).reshape(-1)[0])))
        if staging is None:
            staging = staging_square(count, region)
        rows, cols = staging.rowmajor_coords(count)
        picked = elems[mask]
        slot = np.rint(res.inclusive.payload[mask]).astype(np.int64) - 1
        picked = picked.depending_on(res.inclusive[mask])
        picked = broadcast_onto(machine, corner_total, region, picked)
        return machine.send(picked, rows[slot], cols[slot])


def scatter_back(
    machine: SpatialMachine,
    staged: TrackedArray,
    home_rows: np.ndarray,
    home_cols: np.ndarray,
) -> TrackedArray:
    """Return staged values to recorded home coordinates (plain messages)."""
    return machine.send(staged, home_rows, home_cols)
