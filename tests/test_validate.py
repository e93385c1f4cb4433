"""The layout guard shared by the core entry points (repro.core.validate)."""

import numpy as np
import pytest

from repro.core.validate import check_cells, misplaced
from repro.machine import Region, SpatialMachine
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
