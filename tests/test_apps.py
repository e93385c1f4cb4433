"""Tests for the application layer: repro.apps statistics and the repro.graphs kernels."""

import networkx as nx
import numpy as np
import pytest

from repro.apps import (
    top_k,
    interquartile_range,
    median,
    median_absolute_deviation,
    quantile,
    trimmed_mean,
)
from repro.graphs import bfs_distances, connected_components, degree_table
from repro.machine import Region, SpatialMachine
from repro.spmv.coo import COOMatrix, graph_adjacency_coo


def _place(x, rng_unused=None):
    n = len(x)
    side = int(np.sqrt(n))
    m = SpatialMachine()
    region = Region(0, 0, side, side)
    return m, region, m.place_zorder(np.asarray(x, dtype=np.float64), region)


class TestQuantiles:
    def test_median_odd_ties(self, rng):
        x = rng.standard_normal(256)
        m, region, ta = _place(x)
        got = median(m, ta, region, rng)
        assert got == np.sort(x)[127]  # nearest-rank: k = ceil(0.5*256) = 128

    @pytest.mark.parametrize("q", (0.01, 0.25, 0.5, 0.9, 1.0))
    def test_quantile_matches_nearest_rank(self, q, rng):
        x = rng.standard_normal(1024)
        m, region, ta = _place(x)
        got = quantile(m, ta, region, q, rng)
        k = max(1, int(np.ceil(q * 1024)))
        assert got == np.sort(x)[k - 1]

    def test_bad_q_rejected(self, rng):
        x = rng.standard_normal(64)
        m, region, ta = _place(x)
        with pytest.raises(ValueError):
            quantile(m, ta, region, 0.0, rng)

    def test_iqr(self, rng):
        x = rng.standard_normal(1024)
        m, region, ta = _place(x)
        got = interquartile_range(m, ta, region, rng)
        s = np.sort(x)
        assert got == pytest.approx(s[767] - s[255])


class TestTrimmedMean:
    def test_no_trim_is_mean(self, rng):
        x = rng.standard_normal(256)
        m, region, ta = _place(x)
        got = trimmed_mean(m, ta, region, 0.0, rng)
        assert got == pytest.approx(x.mean())

    def test_trim_kills_outliers(self, rng):
        x = rng.standard_normal(256)
        x[0] = 1e9
        x[1] = -1e9
        m, region, ta = _place(x)
        got = trimmed_mean(m, ta, region, 0.1, rng)
        assert abs(got) < 1.0  # the outliers are gone

    def test_matches_reference(self, rng):
        x = rng.standard_normal(256)
        trim = 0.2
        m, region, ta = _place(x)
        got = trimmed_mean(m, ta, region, trim, rng)
        s = np.sort(x)
        lo, hi = s[int(np.floor(trim * 256))], s[256 - int(np.floor(trim * 256)) - 1]
        keep = x[(x >= lo) & (x <= hi)]
        assert got == pytest.approx(keep.mean())

    def test_bad_trim_rejected(self, rng):
        x = rng.standard_normal(64)
        m, region, ta = _place(x)
        with pytest.raises(ValueError):
            trimmed_mean(m, ta, region, 0.5, rng)


class TestMAD:
    def test_constant_data(self, rng):
        x = np.full(64, 3.0)
        m, region, ta = _place(x)
        assert median_absolute_deviation(m, ta, region, rng) == 0.0

    def test_matches_reference(self, rng):
        x = rng.standard_normal(256)
        m, region, ta = _place(x)
        got = median_absolute_deviation(m, ta, region, rng)
        med = np.sort(x)[127]
        want = np.sort(np.abs(x - med))[127]
        assert got == pytest.approx(want)


class TestConnectedComponents:
    def test_two_cliques(self):
        g = nx.disjoint_union(nx.complete_graph(5), nx.complete_graph(4))
        edges = np.asarray(g.edges(), dtype=np.int64)
        A = COOMatrix(
            np.concatenate([edges[:, 0], edges[:, 1]]),
            np.concatenate([edges[:, 1], edges[:, 0]]),
            np.ones(2 * len(edges)),
            9,
        )
        m = SpatialMachine()
        labels = connected_components(m, A)
        assert (labels[:5] == 0).all()
        assert (labels[5:] == 5).all()

    def test_matches_networkx(self, rng):
        A = graph_adjacency_coo(24, rng, "gnp")
        g = nx.from_scipy_sparse_array(A.to_scipy())
        m = SpatialMachine()
        labels = connected_components(m, A)
        for comp in nx.connected_components(g):
            comp = sorted(comp)
            assert (labels[comp] == min(comp)).all()

    def test_path_graph_rounds(self):
        """A path of length L needs ~L/?? rounds — bounded by n, converges."""
        g = nx.path_graph(8)
        edges = np.asarray(g.edges(), dtype=np.int64)
        A = COOMatrix(
            np.concatenate([edges[:, 0], edges[:, 1]]),
            np.concatenate([edges[:, 1], edges[:, 0]]),
            np.ones(2 * len(edges)),
            8,
        )
        m = SpatialMachine()
        labels = connected_components(m, A)
        assert (labels == 0).all()


class TestBFS:
    def test_path_graph(self):
        g = nx.path_graph(8)
        edges = np.asarray(g.edges(), dtype=np.int64)
        A = COOMatrix(
            np.concatenate([edges[:, 0], edges[:, 1]]),
            np.concatenate([edges[:, 1], edges[:, 0]]),
            np.ones(2 * len(edges)),
            8,
        )
        m = SpatialMachine()
        d = bfs_distances(m, A, source=0)
        assert np.allclose(d, np.arange(8))

    def test_matches_networkx(self, rng):
        A = graph_adjacency_coo(20, rng, "ba")
        g = nx.from_scipy_sparse_array(A.to_scipy())
        m = SpatialMachine()
        d = bfs_distances(m, A, source=0)
        ref = nx.single_source_shortest_path_length(g, 0)
        for v in range(20):
            want = ref.get(v, np.inf)
            assert d[v] == want

    def test_bad_source_rejected(self, rng):
        A = graph_adjacency_coo(8, rng)
        with pytest.raises(ValueError):
            bfs_distances(SpatialMachine(), A, source=99)


class TestDegrees:
    def test_matches_networkx(self, rng):
        A = graph_adjacency_coo(16, rng, "gnp")
        g = nx.from_scipy_sparse_array(A.to_scipy())
        m = SpatialMachine()
        deg = degree_table(m, A)
        for v in range(16):
            assert deg[v] == g.degree(v)


class TestTopK:
    @pytest.mark.parametrize("k", (1, 5, 50, 256))
    def test_matches_numpy(self, k, rng):
        x = rng.standard_normal(256)
        m, region, ta = _place(x)
        got = top_k(m, ta, region, k, rng)
        want = np.sort(x)[::-1][:k]
        assert np.allclose(got, want)

    def test_ties_give_exactly_k(self, rng):
        x = rng.integers(0, 4, 64).astype(float)  # heavy ties at the cut
        m, region, ta = _place(x)
        got = top_k(m, ta, region, 10, rng)
        assert len(got) == 10
        assert np.allclose(got, np.sort(x)[::-1][:10])

    def test_cheaper_than_sorting(self, rng):
        from repro.core.sorting.mergesort2d import sort_values

        n = 1024
        x = rng.standard_normal(n)
        m, region, ta = _place(x)
        top_k(m, ta, region, 10, rng)
        m2 = SpatialMachine()
        sort_values(m2, x, Region(0, 0, 32, 32))
        assert m.stats.energy * 5 < m2.stats.energy

    def test_bad_k_rejected(self, rng):
        x = rng.standard_normal(64)
        m, region, ta = _place(x)
        with pytest.raises(ValueError):
            top_k(m, ta, region, 0, rng)
