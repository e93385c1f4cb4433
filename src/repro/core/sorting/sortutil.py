"""Shared helpers for the sorting algorithms.

All sorters operate on 2-D payloads of shape ``(n, k)`` compared
lexicographically over the first ``key_cols`` columns; remaining columns are
satellite data that travel with their element.  To make ranks well-defined
under duplicate keys, the public entry points append a unique tie-break
column (the element's input position) to the keys, so every comparison is
strict — this realizes the "(value, index)" total order the paper's sample
ranking implicitly relies on.
"""

from __future__ import annotations

import numpy as np

from ...machine.machine import TrackedArray

__all__ = [
    "lex_less",
    "lex_minimum",
    "lex_maximum",
    "with_tiebreak",
    "strip_tiebreak",
    "as_sort_payload",
    "merged_ranks",
]


def lex_less(a: np.ndarray, b: np.ndarray, key_cols: int) -> np.ndarray:
    """Elementwise ``a < b`` under lexicographic order of the key columns."""
    less = np.zeros(len(a), dtype=bool)
    tied = np.ones(len(a), dtype=bool)
    for c in range(key_cols):
        ac, bc = a[:, c], b[:, c]
        less |= tied & (ac < bc)
        tied &= ac == bc
    return less


def lex_minimum(a: np.ndarray, b: np.ndarray, key_cols: int) -> np.ndarray:
    take_a = lex_less(a, b, key_cols)
    return np.where(take_a[:, None], a, b)


def lex_maximum(a: np.ndarray, b: np.ndarray, key_cols: int) -> np.ndarray:
    take_a = lex_less(a, b, key_cols)
    return np.where(take_a[:, None], b, a)


def as_sort_payload(values: np.ndarray) -> np.ndarray:
    """Lift a 1-D value array to the (n, 1) sort payload format."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        return values[:, None]
    return values


def with_tiebreak(ta: TrackedArray, key_cols: int) -> tuple[TrackedArray, int]:
    """Insert a unique tie-break column after the key columns.

    Returns the widened array and the new key column count.  The tie-break is
    the element's position in the input enumeration, so the resulting order is
    total and the sort is deterministic.
    """
    payload = ta.payload
    if payload.ndim != 2:
        payload = as_sort_payload(payload)
    n, k = payload.shape
    widened = np.empty((n, k + 1), dtype=np.float64)
    widened[:, :key_cols] = payload[:, :key_cols]
    widened[:, key_cols] = np.arange(n, dtype=np.float64)
    widened[:, key_cols + 1 :] = payload[:, key_cols:]
    return ta.with_payload(widened), key_cols + 1


def strip_tiebreak(ta: TrackedArray, key_cols_with_tb: int) -> TrackedArray:
    """Remove the column inserted by :func:`with_tiebreak`."""
    payload = ta.payload
    tb = key_cols_with_tb - 1
    if tb + 1 == payload.shape[1]:
        kept = payload[:, :tb].copy()
    else:
        kept = np.concatenate([payload[:, :tb], payload[:, tb + 1 :]], axis=1)
    return ta.with_payload(kept)


def merged_ranks(
    payload: np.ndarray,
    key_cols: int,
    group: np.ndarray,
    in_b: np.ndarray,
    pos: np.ndarray,
    group_start: np.ndarray,
) -> np.ndarray:
    """Every entry's 0-based rank in its pair's merged order.

    Entry ``i`` is ``A[pos[i]]`` (or ``B[pos[i]]`` where ``in_b[i]``) of pair
    ``group[i]``, whose ranks start at ``group_start[group[i]]`` of the
    sorted layout (pairs in order).  The order is the strict key of the
    selection and the merge: user keys, ``A`` before ``B``, position.
    """
    order = np.lexsort(
        (pos, in_b, *(payload[:, c] for c in range(key_cols - 1, -1, -1)), group)
    )
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64) - group_start[group[order]]
    return rank
