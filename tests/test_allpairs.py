"""Tests for All-Pairs Sort (paper Section V.C(a), Lemma V.5)."""

import numpy as np
import pytest

from repro.analysis import fit_power_law, make_workload
from repro.core.sorting.allpairs import allpairs_rank, allpairs_sort
from repro.core.sorting.sortutil import as_sort_payload, with_tiebreak
from repro.machine import Region, SpatialMachine


def _run(x, rng_region=None):
    n = len(x)
    side = 1
    while side * side < n:
        side *= 2
    m = SpatialMachine()
    region = rng_region or Region(0, 0, side, side)
    ta = m.place_rowmajor(as_sort_payload(x), region)
    out = allpairs_sort(m, ta, out_region=region)
    return m, out


class TestAllPairsCorrectness:
    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8, 16, 33, 64, 100))
    def test_arbitrary_sizes(self, n, rng):
        x = rng.standard_normal(n)
        _, out = _run(x)
        assert np.allclose(out.payload[:, 0], np.sort(x))

    @pytest.mark.parametrize("kind", ("reversed", "sorted", "few_distinct"))
    def test_workloads(self, kind, rng):
        x = make_workload(kind, 64, rng)
        _, out = _run(x)
        assert np.allclose(out.payload[:, 0], np.sort(x))

    def test_all_equal(self):
        x = np.full(16, 3.0)
        _, out = _run(x)
        assert (out.payload[:, 0] == 3.0).all()

    def test_ranks_are_permutation(self, rng):
        x = rng.integers(0, 4, 32).astype(float)  # heavy ties
        m = SpatialMachine()
        ta = m.place_rowmajor(as_sort_payload(x), Region(0, 0, 8, 8))
        keyed, kc = with_tiebreak(ta, 1)
        _, ranks = allpairs_rank(m, keyed, kc)
        assert sorted(ranks.tolist()) == list(range(32))

    def test_output_region_placement(self, rng):
        x = rng.random(16)
        m = SpatialMachine()
        src = Region(0, 0, 4, 4)
        dst = Region(20, 20, 4, 4)
        ta = m.place_rowmajor(as_sort_payload(x), src)
        out = allpairs_sort(m, ta, out_region=dst)
        assert np.allclose(out.payload[:, 0], np.sort(x))
        rows, cols = dst.rowmajor_coords(16)
        assert (out.rows == rows).all() and (out.cols == cols).all()

    def test_satellite_columns(self, rng):
        n = 25
        x = rng.random(n)
        m = SpatialMachine()
        payload = np.stack([x, np.arange(float(n)) * 10], axis=1)
        region = Region(0, 0, 8, 8)
        ta = m.place(payload, *region.rowmajor_coords(n))
        out = allpairs_sort(m, ta, key_cols=1)
        order = (out.payload[:, 1] / 10).astype(int)
        assert np.allclose(x[order], np.sort(x))


class TestAllPairsCosts:
    def test_lemma_v5_energy_exponent(self):
        """O(n^{5/2}) energy."""
        rng = np.random.default_rng(0)
        ns, es = [], []
        for n in (16, 64, 256):
            m, _ = _run(rng.random(n))
            ns.append(n)
            es.append(m.stats.energy)
        fit = fit_power_law(np.array(ns), np.array(es))
        assert 2.2 < fit.exponent < 2.8

    def test_lemma_v5_log_depth(self):
        rng = np.random.default_rng(0)
        for n in (16, 64, 256):
            m, out = _run(rng.random(n))
            assert out.max_depth() <= 4 * np.log2(n) + 8

    def test_lemma_v5_linear_distance(self):
        """O(n) distance: the exploded grid has diameter Θ(n)."""
        rng = np.random.default_rng(0)
        for n in (16, 64, 256):
            m, out = _run(rng.random(n))
            assert out.max_dist() <= 8 * n


class TestAllPairsEmptyBatch:
    """A batch of zero segments returns an empty array and charges nothing."""

    @pytest.mark.parametrize("ranked", (False, True))
    def test_no_segments(self, ranked):
        from repro.core.sorting.allpairs import allpairs_sort_many, allpairs_sort_ranked

        m = SpatialMachine(fast=True, strict=False)
        assert m.clean_fast
        region = Region(0, 0, 4, 4)
        allpairs_sort(m, m.place_rowmajor(as_sort_payload(np.arange(16.0)[::-1]), region),
                      out_region=region)
        stats, tree = m.stats, m.cost_tree.as_dict()
        ta = m.place_rowmajor(as_sort_payload(np.arange(4.0)), Region(0, 0, 2, 2))[:0]
        z = np.zeros(0, dtype=np.int64)
        if ranked:
            out = allpairs_sort_ranked(m, ta, z, z, z, z, z, z, z)
        else:
            out = allpairs_sort_many(m, ta, z, 1, z, z, z, z, z)
        assert len(out) == 0
        assert m.stats == stats
        assert m.cost_tree.as_dict() == tree
