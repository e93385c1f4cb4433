"""Tests for the rank-splitting 2D merge (Section V.C(b), Fig. 3, Lemma V.7)."""

import numpy as np
import pytest

from repro.analysis import fit_power_law
from repro.core.sorting.merge2d import merge_sorted_2d, merge_subregions
from repro.core.sorting.sortutil import as_sort_payload
from repro.machine import Region, SpatialMachine


def _merge(a, b, side, base_case=16):
    """Merge two sorted arrays living on adjacent side x side squares."""
    m = SpatialMachine()
    A = m.place_rowmajor(as_sort_payload(a), Region(0, 0, side, side))
    B = m.place_rowmajor(as_sort_payload(b), Region(0, side, side, side))
    out_region = Region(0, 0, side, 2 * side)
    out = merge_sorted_2d(m, A, B, out_region, base_case=base_case)
    return m, out, out_region


class TestSubregions:
    def test_square_quadrants(self):
        subs = merge_subregions(Region(0, 0, 4, 4))
        assert subs == Region(0, 0, 4, 4).quadrants()

    def test_wide_strips(self):
        subs = merge_subregions(Region(0, 0, 4, 8))
        assert [s.col for s in subs] == [0, 2, 4, 6]
        assert all(s.height == 4 and s.width == 2 for s in subs)

    def test_tall_strips(self):
        subs = merge_subregions(Region(0, 0, 8, 4))
        assert [s.row for s in subs] == [0, 2, 4, 6]

    def test_bad_aspect_rejected(self):
        with pytest.raises(ValueError):
            merge_subregions(Region(0, 0, 2, 8))

    def test_shapes_closed_under_recursion(self):
        """Every sub-region is again square or 2:1 (the family invariant)."""
        frontier = [Region(0, 0, 16, 32)]
        for _ in range(3):
            nxt = []
            for r in frontier:
                for s in merge_subregions(r):
                    assert s.height == s.width or {s.height, s.width} == {
                        min(s.height, s.width),
                        2 * min(s.height, s.width),
                    }
                    nxt.append(s)
            frontier = nxt


class TestMergeCorrectness:
    @pytest.mark.parametrize("side", (2, 4, 8, 16))
    def test_uniform(self, side, rng):
        a = np.sort(rng.standard_normal(side * side))
        b = np.sort(rng.standard_normal(side * side))
        _, out, _ = _merge(a, b, side)
        assert np.allclose(out.payload[:, 0], np.sort(np.concatenate([a, b])))

    def test_duplicates(self, rng):
        side = 8
        a = np.sort(rng.integers(0, 5, side * side)).astype(float)
        b = np.sort(rng.integers(0, 5, side * side)).astype(float)
        _, out, _ = _merge(a, b, side)
        assert np.allclose(out.payload[:, 0], np.sort(np.concatenate([a, b])))

    def test_interleaved(self):
        side = 8
        a = np.arange(0.0, 128.0, 2.0)
        b = np.arange(1.0, 129.0, 2.0)
        _, out, _ = _merge(a, b, side)
        assert np.allclose(out.payload[:, 0], np.arange(128.0))

    def test_disjoint(self):
        side = 8
        a = np.arange(64.0)
        b = np.arange(64.0) + 100
        _, out, _ = _merge(a, b, side)
        assert np.allclose(out.payload[:, 0], np.concatenate([a, b]))

    def test_base_case_4(self, rng):
        side = 4
        a = np.sort(rng.random(16))
        b = np.sort(rng.random(16))
        _, out, _ = _merge(a, b, side, base_case=4)
        assert np.allclose(out.payload[:, 0], np.sort(np.concatenate([a, b])))

    def test_output_rowmajor(self, rng):
        side = 4
        a = np.sort(rng.random(16))
        b = np.sort(rng.random(16))
        _, out, region = _merge(a, b, side)
        rows, cols = region.rowmajor_coords(32)
        assert (out.rows == rows).all() and (out.cols == cols).all()

    def test_square_output_region(self, rng):
        """Merging the two halves of a square (the mergesort's final merge)."""
        m = SpatialMachine()
        a = np.sort(rng.random(32))
        b = np.sort(rng.random(32))
        A = m.place_rowmajor(as_sort_payload(a), Region(0, 0, 4, 8))
        B = m.place_rowmajor(as_sort_payload(b), Region(4, 0, 4, 8))
        out = merge_sorted_2d(m, A, B, Region(0, 0, 8, 8))
        assert np.allclose(out.payload[:, 0], np.sort(np.concatenate([a, b])))

    def test_size_mismatch_rejected(self, rng):
        m = SpatialMachine()
        A = m.place_rowmajor(as_sort_payload(np.sort(rng.random(8))), Region(0, 0, 4, 4))
        B = m.place_rowmajor(as_sort_payload(np.sort(rng.random(8))), Region(0, 4, 4, 4))
        with pytest.raises(ValueError):
            merge_sorted_2d(m, A, B, Region(0, 0, 4, 8))

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize(
        "b_region",
        [Region(0, 0, 4, 4), Region(0, 12, 2, 8), Region(20, 40, 4, 4)],
        ids=["left", "right", "far"],
    )
    def test_input_outside_region_rejected(self, rng, b_region, fast):
        """B off the output region: left of it (negative row-major indices),
        past its right edge (indices run into the next row) or far away."""
        m = SpatialMachine(fast=fast, strict=False)
        A = m.place_rowmajor(as_sort_payload(np.sort(rng.random(16))), Region(0, 4, 4, 4))
        B = m.place_rowmajor(as_sort_payload(np.sort(rng.random(16))), b_region)
        with pytest.raises(ValueError, match=r"B\[0\] at .* lies outside"):
            merge_sorted_2d(m, A, B, Region(0, 4, 4, 8))
        assert m.stats.energy == 0  # rejected before either body runs

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("h, w", [(12, 12), (6, 6), (6, 12)])
    def test_non_power_of_two_split_region_rejected(self, rng, h, w, fast):
        """A region that splits broadcasts its decision over itself, so its
        sides must be powers of two; the batched body must refuse these
        shapes as the depth-first body's broadcast does."""
        m = SpatialMachine(fast=fast, strict=False)
        a, b = (as_sort_payload(np.sort(rng.random(h * w // 2))) for _ in range(2))
        A = m.place_rowmajor(a, Region(0, 0, h // 2, w))
        B = m.place_rowmajor(b, Region(h // 2, 0, h // 2, w))
        with pytest.raises(ValueError, match="power-of-two"):
            merge_sorted_2d(m, A, B, Region(0, 0, h, w))

    @pytest.mark.parametrize("fast", [True, False])
    def test_leaf_region_of_any_shape_merges(self, rng, fast):
        """A region small enough to park in one step never splits, so it may
        have any shape."""
        m = SpatialMachine(fast=fast, strict=False)
        a, b = np.sort(rng.random(6)), np.sort(rng.random(6))
        A = m.place_rowmajor(as_sort_payload(a), Region(0, 0, 1, 6))
        B = m.place_rowmajor(as_sort_payload(b), Region(1, 0, 1, 6))
        out = merge_sorted_2d(m, A, B, Region(0, 0, 2, 6))
        assert np.array_equal(out.payload[:, 0], np.sort(np.concatenate([a, b])))

    def test_small_base_case_rejected(self, rng):
        m = SpatialMachine()
        A = m.place_rowmajor(as_sort_payload(np.sort(rng.random(16))), Region(0, 0, 4, 4))
        B = m.place_rowmajor(as_sort_payload(np.sort(rng.random(16))), Region(0, 4, 4, 4))
        with pytest.raises(ValueError):
            merge_sorted_2d(m, A, B, Region(0, 0, 4, 8), base_case=2)


class TestMergeCosts:
    def test_lemma_v7_energy_exponent(self):
        """O(n^{3/2}) merge energy."""
        rng = np.random.default_rng(0)
        ns, es = [], []
        for side in (8, 16, 32):
            a = np.sort(rng.standard_normal(side * side))
            b = np.sort(rng.standard_normal(side * side))
            m, _, _ = _merge(a, b, side)
            ns.append(2 * side * side)
            es.append(m.stats.energy)
        fit = fit_power_law(np.array(ns), np.array(es))
        assert 1.2 < fit.exponent < 1.75

    def test_lemma_v7_depth_polylog(self):
        """O(log² n) depth: far below any polynomial."""
        rng = np.random.default_rng(0)
        for side in (8, 32):
            n = 2 * side * side
            a = np.sort(rng.standard_normal(n // 2))
            b = np.sort(rng.standard_normal(n // 2))
            m, out, _ = _merge(a, b, side)
            assert out.max_depth() <= 3 * np.log2(n) ** 2
