"""Tests for the bitonic network baseline (paper Section V.B, Fig. 2)."""

import numpy as np
import pytest

from repro.analysis import fit_power_law, make_workload
from repro.core.sorting.bitonic import bitonic_merge, bitonic_sort
from repro.core.sorting.sortutil import as_sort_payload
from repro.machine import Region, ReferenceMachine, SpatialMachine


def _sorted_on(m, x, region, **kw):
    ta = m.place_rowmajor(as_sort_payload(x), region)
    return bitonic_sort(m, ta, region, **kw)


class TestBitonicSortCorrectness:
    @pytest.mark.parametrize("n", (1, 4, 16, 64, 256, 1024))
    def test_uniform(self, n, rng):
        side = int(np.sqrt(n))
        m = SpatialMachine()
        x = rng.random(n)
        out = _sorted_on(m, x, Region(0, 0, side, side))
        assert np.allclose(out.payload[:, 0], np.sort(x))

    @pytest.mark.parametrize("kind", ("reversed", "sorted", "few_distinct", "zipf"))
    def test_workloads(self, kind, rng):
        n = 256
        x = make_workload(kind, n, rng)
        m = SpatialMachine()
        out = _sorted_on(m, x, Region(0, 0, 16, 16))
        assert np.allclose(out.payload[:, 0], np.sort(x))

    def test_rectangular_grid(self, rng):
        m = SpatialMachine()
        x = rng.random(128)
        out = _sorted_on(m, x, Region(0, 0, 8, 16))
        assert np.allclose(out.payload[:, 0], np.sort(x))

    def test_descending(self, rng):
        m = SpatialMachine()
        x = rng.random(64)
        out = _sorted_on(m, x, Region(0, 0, 8, 8), descending=True)
        assert np.allclose(out.payload[:, 0], np.sort(x)[::-1])

    def test_satellite_data_travels(self, rng):
        n = 64
        m = SpatialMachine()
        x = rng.random(n)
        payload = np.stack([x, np.arange(float(n))], axis=1)
        ta = m.place_rowmajor(payload, Region(0, 0, 8, 8))
        out = bitonic_sort(m, ta, Region(0, 0, 8, 8), key_cols=1)
        order = out.payload[:, 1].astype(int)
        assert np.allclose(x[order], np.sort(x))

    def test_output_in_rowmajor_cells(self, rng):
        m = SpatialMachine()
        region = Region(0, 0, 8, 8)
        out = _sorted_on(m, rng.random(64), region)
        rows, cols = region.rowmajor_coords(64)
        assert (out.rows == rows).all() and (out.cols == cols).all()

    def test_non_pow2_rejected(self, rng):
        m = SpatialMachine()
        ta = m.place_rowmajor(as_sort_payload(rng.random(6)), Region(0, 0, 2, 3))
        with pytest.raises(ValueError):
            bitonic_sort(m, ta, Region(0, 0, 2, 3))


class TestBitonicMerge:
    def test_merges_bitonic_sequence(self, rng):
        a = np.sort(rng.random(32))
        b = np.sort(rng.random(32))[::-1]
        x = np.concatenate([a, b])
        m = SpatialMachine()
        region = Region(0, 0, 8, 8)
        out = bitonic_merge(m, m.place_rowmajor(as_sort_payload(x), region), region)
        assert np.allclose(out.payload[:, 0], np.sort(x))

    def test_merge_depth_logarithmic(self, rng):
        n = 1024
        x = np.concatenate([np.sort(rng.random(n // 2)), np.sort(rng.random(n // 2))[::-1]])
        m = SpatialMachine()
        region = Region(0, 0, 32, 32)
        out = bitonic_merge(m, m.place_rowmajor(as_sort_payload(x), region), region)
        assert out.max_depth() == int(np.log2(n))


class TestDataObliviousness:
    def test_costs_independent_of_data(self, rng):
        """Sorting networks route identically for every input (Section V.B)."""
        region = Region(0, 0, 16, 16)
        stats = []
        for _ in range(3):
            m = SpatialMachine()
            _sorted_on(m, rng.random(256), region)
            stats.append((m.stats.energy, m.stats.messages, m.stats.max_depth))
        assert stats[0] == stats[1] == stats[2]


class TestBitonicCosts:
    def test_lemma_v4_energy_exponent(self):
        """Θ(n^{3/2} log n) on squares: fitted exponent above 3/2."""
        ns, es = [], []
        for side in (8, 16, 32, 64):
            n = side * side
            m = SpatialMachine()
            _sorted_on(m, np.random.default_rng(0).random(n), Region(0, 0, side, side))
            ns.append(n)
            es.append(m.stats.energy)
        fit = fit_power_law(np.array(ns), np.array(es))
        assert 1.45 < fit.exponent < 1.75
        # and the log factor is visible: energy / n^{1.5} grows
        norm = [e / n**1.5 for n, e in zip(ns, es)]
        assert norm[-1] > norm[0]

    def test_lemma_v4_depth(self):
        """Θ(log² n) depth: exactly log(n)(log(n)+1)/2 stages."""
        for n in (16, 256, 1024):
            side = int(np.sqrt(n))
            m = SpatialMachine()
            out = _sorted_on(
                m, np.random.default_rng(1).random(n), Region(0, 0, side, side)
            )
            ln = int(np.log2(n))
            assert out.max_depth() == ln * (ln + 1) // 2

    def test_lemma_v3_merge_energy_rectangles(self):
        """Θ(h²w + w²h) for a single merge."""
        rng = np.random.default_rng(2)

        def merge_energy(h, w):
            n = h * w
            x = np.concatenate(
                [np.sort(rng.random(n // 2)), np.sort(rng.random(n // 2))[::-1]]
            )
            m = SpatialMachine()
            region = Region(0, 0, h, w)
            bitonic_merge(m, m.place_rowmajor(as_sort_payload(x), region), region)
            return m.stats.energy

        # doubling h at fixed w should roughly quadruple the h²w term
        e1 = merge_energy(16, 16)
        e2 = merge_energy(32, 16)
        assert 2.5 < e2 / e1 < 5.0


#: Lemma V.3's shapes: squares, rectangles both ways, and lines
LEMMA_V3_SHAPES = (
    (2, 2), (4, 4), (8, 8), (16, 16), (32, 32), (8, 4), (4, 8), (32, 8), (4, 64),
    (1, 16), (16, 1),
)


class TestLemmaV3Exact:
    """A bitonic merge on h x w costs exactly hw(h + w - 2) energy and
    log2(hw) depth: stride-j stages move every wire j columns while j < w,
    then j / w rows, i.e. (w - 1) + (h - 1) per wire over all stages."""

    @pytest.mark.parametrize(
        "make_machine",
        (ReferenceMachine, lambda: SpatialMachine(fast=True, strict=False)),
        ids=("reference", "fast"),
    )
    @pytest.mark.parametrize("h, w", LEMMA_V3_SHAPES)
    def test_merge_energy_and_depth(self, h, w, make_machine, rng):
        n = h * w
        x = np.concatenate([np.sort(rng.random(n // 2)), np.sort(rng.random(n // 2))[::-1]])
        m = make_machine()
        region = Region(0, 0, h, w)
        out = bitonic_merge(m, m.place_rowmajor(as_sort_payload(x), region), region)
        assert np.array_equal(out.payload[:, 0], np.sort(x))
        assert m.stats.energy == h * w * (h + w - 2)
        assert m.stats.max_depth == int(np.log2(n))
