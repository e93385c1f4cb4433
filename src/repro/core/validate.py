"""Input guards shared by the core entry points.

:func:`check_cells` enforces a primitive's documented layout on every
machine: the closed forms charge hops between the cells the layout names,
so an entry elsewhere would be charged for a wire it never crosses.
:func:`misplaced` is the predicate behind it, for callers that branch on
the layout instead of refusing it.

The fault/recovery layer (see ``docs/FAULTS.md``) keeps every primitive
*result-transparent*: retries, detours, and dead-cell sparing change the
measured costs but never the returned values.  That guarantee relies on
payload arithmetic being well-defined, so in strict mode
(``SpatialMachine(strict=True)``) the entry points that ingest raw value
arrays reject NaN up front with an actionable error instead of letting it
propagate through scans and comparators as silent garbage.

``inf`` is deliberately allowed — the sorters and selection use it as
legitimate padding (see ``tests/test_sort_infinities``).

NaN *keys* are refused on every machine by :func:`check_keys`: the merge
tree needs a total order on its keys, and NaN compares false both ways.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_cells",
    "check_finite_values",
    "check_keys",
    "check_symmetric_adjacency",
    "misplaced",
]


def misplaced(ta, region, rows: np.ndarray, cols: np.ndarray) -> int:
    """Index of the first entry of ``ta`` not at cell ``(rows[i], cols[i])``
    of ``region`` (coordinates local to its corner), or ``-1`` if none is."""
    bad = (ta.rows - region.row != rows) | (ta.cols - region.col != cols)
    return int(bad.argmax()) if bad.any() else -1


def check_cells(ta, region, rows: np.ndarray, cols: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless entry ``i`` of ``ta`` sits at cell
    ``(rows[i], cols[i])`` of ``region`` (see :func:`misplaced`).

    ``what`` names the primitive and its layout, e.g. ``"scan expects entry
    i at the i-th Z-order cell"``; the error names the first misplaced entry.
    """
    i = misplaced(ta, region, rows, cols)
    if i >= 0:
        raise ValueError(
            f"{what} of {region}: entry {i} sits at ({int(ta.rows[i])}, "
            f"{int(ta.cols[i])}), not ({region.row + int(rows[i])}, "
            f"{region.col + int(cols[i])})"
        )


def check_finite_values(machine, values: np.ndarray, what: str) -> None:
    """Reject NaN entries of ``values`` when ``machine`` is strict.

    ``what`` names the argument in the error (e.g. ``"sort_values input"``)
    so the failure points at the caller's data, not at machine internals.
    """
    if not getattr(machine, "strict", False):
        return
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        return
    bad = np.isnan(values)
    if bad.any():
        idx = int(np.flatnonzero(bad.reshape(-1))[0])
        raise ValueError(
            f"{what} contains NaN (first at flat index {idx}); strict mode "
            f"rejects NaN payloads because they poison comparators and "
            f"prefix sums — filter or impute them before placement"
        )


def check_keys(payload: np.ndarray, key_cols: int, what: str) -> None:
    """Raise ``ValueError`` naming the first entry of ``payload`` (an
    ``(n, k)`` sort payload) with NaN in one of its ``key_cols`` key columns.

    Strict or not, fast or reference: the depth-first merge compares keys
    as tuples and the batched one sorts them, and the two agree only on a
    total order.  ``what`` names the argument, e.g. ``"merge_sorted_2d B"``.
    """
    bad = np.isnan(payload[:, :key_cols])
    if bad.any():
        i, c = divmod(int(bad.argmax()), bad.shape[1])
        raise ValueError(
            f"{what}[{i}] has NaN in key column {c}; sort keys must be totally "
            "ordered, so NaN keys are rejected on every machine"
        )


def check_symmetric_adjacency(matrix, what: str = "adjacency") -> None:
    """Reject structurally asymmetric adjacency matrices — always, not just in
    strict mode.

    The undirected graph algorithms (min-label propagation, BFS relaxation)
    assume every edge is stored in both directions; on directed input they
    silently converge to wrong labels/distances, so asymmetry is a hard
    input error rather than a strict-mode nicety.  ``matrix`` is anything
    with ``rows``/``cols``/``n`` attributes (a
    :class:`~repro.spmv.coo.COOMatrix`); only the sparsity *structure* is
    checked, values may be asymmetric weights.
    """
    rows = np.asarray(matrix.rows, dtype=np.int64)
    cols = np.asarray(matrix.cols, dtype=np.int64)
    n = np.int64(matrix.n)
    forward = np.sort(rows * n + cols)
    backward = np.sort(cols * n + rows)
    if not np.array_equal(forward, backward):
        missing = np.setdiff1d(forward, backward, assume_unique=False)
        first = int(missing[0]) if len(missing) else int(forward[0])
        i, j = divmod(first, int(n))
        raise ValueError(
            f"{what} is not symmetric: edge ({i}, {j}) has no reverse entry; "
            f"undirected graph algorithms need every edge stored in both "
            f"directions — symmetrize the matrix (e.g. A + A.T) first"
        )
