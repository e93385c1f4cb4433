"""The input guards shared by the core entry points (repro.core.validate)."""

import numpy as np
import pytest

from repro.core.sorting.merge2d import merge_sorted_2d
from repro.core.sorting.mergesort2d import mergesort_2d, sort_values
from repro.core.sorting.sortutil import as_sort_payload
from repro.core.sorting.two_sorted_select import select_ranks_two_sorted
from repro.core.validate import check_cells, misplaced
from repro.machine import MachineStats, Region, ReferenceMachine, SpatialMachine
from repro.machine.zorder import zorder_cells

REGION = Region(2, 3, 4, 4)


def _swapped(i, j):
    """Z-ordered entries of ``REGION`` with entries ``i`` and ``j`` swapped."""
    ta = SpatialMachine().place_zorder(np.arange(16.0), REGION)
    order = np.arange(16)
    order[[i, j]] = order[[j, i]]
    return ta[order]


def test_entries_in_place():
    ta = SpatialMachine().place_zorder(np.arange(16.0), REGION)
    assert misplaced(ta, REGION, *zorder_cells(4)) == -1
    check_cells(ta, REGION, *zorder_cells(4), "Z-order")


@pytest.mark.parametrize(
    "i, j",
    [(0, 1), (0, 2), (6, 9)],
    ids=("same-row", "same-column", "both-differ"),
)
def test_first_misplaced_entry(i, j):
    assert misplaced(_swapped(i, j), REGION, *zorder_cells(4)) == i


def test_check_cells_names_the_entry():
    # Z cell 1 is local (0, 1): entry 0 sits one column right of its cell
    with pytest.raises(ValueError, match=r"Z-order of .*: entry 0 sits at \(2, 4\), not \(2, 3\)"):
        check_cells(_swapped(0, 1), REGION, *zorder_cells(4), "Z-order")


# -- NaN keys: refused on every machine, before any charge -------------------

MACHINES = {
    "fast": lambda: SpatialMachine(fast=True, strict=False),
    "reference": lambda: ReferenceMachine(strict=False),
}


def _sorted_run(m, keys, region):
    rows, cols = region.rowmajor_coords(len(keys))
    return m.place(as_sort_payload(np.sort(keys)), rows, cols)


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("side", [8, 16])
def test_sort_refuses_nan_keys(machine, side):
    m = MACHINES[machine]()
    keys = np.random.default_rng(side).random(side * side)
    keys[[5, 9]] = np.nan
    with pytest.raises(ValueError, match=r"mergesort_2d input\[5\] has NaN in key column 0"):
        sort_values(m, keys, Region(0, 0, side, side))
    assert m.stats == MachineStats()


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_merge_and_select_refuse_nan_keys(machine):
    m = MACHINES[machine]()
    region = Region(0, 0, 8, 16)
    a = np.arange(64.0)
    b = np.arange(64.0) + 0.5
    b[3] = np.nan
    A = _sorted_run(m, a, Region(0, 0, 4, 16))
    B = _sorted_run(m, b, Region(4, 0, 4, 16))
    with pytest.raises(ValueError, match=r"merge_sorted_2d B\[63\] has NaN in key column 0"):
        merge_sorted_2d(m, A, B, region)
    with pytest.raises(ValueError, match=r"select_ranks_two_sorted B\[63\]"):
        select_ranks_two_sorted(m, A, B, [32, 64])
    # a NaN in a second key column is named by its column
    two = A.with_payload(np.column_stack([a, np.where(a == 7.0, np.nan, 0.0)]))
    with pytest.raises(ValueError, match=r"merge_sorted_2d A\[7\] has NaN in key column 1"):
        merge_sorted_2d(m, two, B, region, key_cols=2)
    assert m.stats == MachineStats()


def test_nan_outside_the_key_columns_is_payload():
    """Only key columns must be ordered: a NaN satellite sorts like any value."""
    region = Region(0, 0, 8, 8)
    payload = np.column_stack([np.arange(64.0)[::-1], np.full(64, np.nan)])
    out = {}
    for name, make in MACHINES.items():
        m = make()
        out[name] = mergesort_2d(m, m.place_rowmajor(payload, region), region, key_cols=1)
    assert out["fast"].payload.tobytes() == out["reference"].payload.tobytes()
    np.testing.assert_array_equal(out["fast"].payload[:, 0], np.arange(64.0))
