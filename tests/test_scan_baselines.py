"""Tests for the Section IV.C scan baselines and the three-way trade-off."""

import contextlib

import numpy as np
import pytest

from repro.core.ops import MAX
from repro.core.scan import scan
from repro.core.scan_baselines import sequential_scan, tree_scan_1d
from repro.machine import Region, SpatialMachine


class TestSequentialScan:
    @pytest.mark.parametrize("n", (4, 64, 1024))
    def test_correct(self, n, rng):
        x = rng.standard_normal(n)
        m = SpatialMachine()
        side = int(np.sqrt(n))
        region = Region(0, 0, side, side)
        out = sequential_scan(m, m.place_zorder(x, region), region)
        assert np.allclose(out.payload, np.cumsum(x))

    def test_max_accumulate(self, rng):
        x = rng.standard_normal(64)
        m = SpatialMachine()
        region = Region(0, 0, 8, 8)
        out = sequential_scan(m, m.place_zorder(x, region), region, MAX)
        assert np.allclose(out.payload, np.maximum.accumulate(x))

    def test_linear_energy(self):
        for n in (64, 1024):
            m = SpatialMachine()
            side = int(np.sqrt(n))
            region = Region(0, 0, side, side)
            sequential_scan(m, m.place_zorder(np.ones(n), region), region)
            assert m.stats.energy <= 2 * n  # Observation 1 envelope

    def test_linear_depth(self):
        n = 256
        m = SpatialMachine()
        region = Region(0, 0, 16, 16)
        out = sequential_scan(m, m.place_zorder(np.ones(n), region), region)
        assert out.max_depth() == n - 1


class TestBaselineCostTree:
    """Both baselines charge through the machine: the cost tree, the phase
    and the flat counters agree."""

    @pytest.mark.parametrize("in_phase", (False, True))
    @pytest.mark.parametrize(
        "baseline, place, counters",
        (
            (sequential_scan, "place_zorder", (112, 63, 63, 112)),
            (tree_scan_1d, "place_rowmajor", (324, 189, 12, 28)),
        ),
    )
    def test_cost_tree_equals_flat_counters(self, baseline, place, counters, in_phase):
        m = SpatialMachine()
        region = Region(0, 0, 8, 8)
        ta = getattr(m, place)(np.ones(64), region)
        with m.phase("baseline") if in_phase else contextlib.nullcontext():
            baseline(m, ta, region)
        total = m.cost_tree.total()
        flat = m.stats
        assert (flat.energy, flat.messages, flat.max_depth, flat.max_distance) == counters
        assert (total.energy, total.messages, total.depth, total.distance) == counters
        if in_phase:
            assert m.cost_tree.node("baseline").sends == flat.rounds

    def test_single_cell_sequential_scan_is_free(self):
        m = SpatialMachine()
        region = Region(0, 0, 1, 1)
        out = sequential_scan(m, m.place_zorder(np.array([5.0]), region), region)
        assert out.payload.tolist() == [5.0]
        assert (m.stats.energy, m.stats.messages, m.stats.rounds) == (0, 0, 0)


class TestTreeScan1D:
    @pytest.mark.parametrize("n", (4, 16, 64, 256, 1024))
    def test_correct(self, n, rng):
        x = rng.standard_normal(n)
        m = SpatialMachine()
        side = int(np.sqrt(n))
        region = Region(0, 0, side, side)
        out = tree_scan_1d(m, m.place_rowmajor(x, region), region)
        assert np.allclose(out.payload, np.cumsum(x))

    def test_log_depth(self):
        n = 1024
        m = SpatialMachine()
        region = Region(0, 0, 32, 32)
        out = tree_scan_1d(m, m.place_rowmajor(np.ones(n), region), region)
        assert out.max_depth() <= 3 * int(np.log2(n))

    def test_superlinear_energy(self):
        """The 1D tree pays Ω(n log n): energy/n grows with n."""
        ratios = []
        for n in (256, 1024, 4096, 16384):
            m = SpatialMachine()
            side = int(np.sqrt(n))
            region = Region(0, 0, side, side)
            tree_scan_1d(m, m.place_rowmajor(np.ones(n), region), region)
            ratios.append(m.stats.energy / n)
        assert ratios[-1] > ratios[0] * 1.5  # clearly superlinear


class TestTradeoffOrdering:
    """Section IV.C's punchline: the 2D scan dominates both baselines."""

    def test_energy_ordering(self, rng):
        n = 4096
        side = 64
        region = Region(0, 0, side, side)
        x = rng.standard_normal(n)

        m2d = SpatialMachine()
        scan(m2d, m2d.place_zorder(x, region), region)
        mseq = SpatialMachine()
        sequential_scan(mseq, mseq.place_zorder(x, region), region)
        mtree = SpatialMachine()
        tree_scan_1d(mtree, mtree.place_rowmajor(x, region), region)

        # 2D scan beats the 1D tree by a growing factor; sequential is also
        # linear-energy but has no parallelism
        assert m2d.stats.energy < mtree.stats.energy / 2
        assert m2d.stats.energy < 4 * mseq.stats.energy

    def test_depth_ordering(self, rng):
        n = 4096
        side = 64
        region = Region(0, 0, side, side)
        x = rng.standard_normal(n)

        m2d = SpatialMachine()
        r2d = scan(m2d, m2d.place_zorder(x, region), region)
        mseq = SpatialMachine()
        rseq = sequential_scan(mseq, mseq.place_zorder(x, region), region)

        assert r2d.inclusive.max_depth() <= 2 * int(np.log2(n))
        assert rseq.max_depth() == n - 1
