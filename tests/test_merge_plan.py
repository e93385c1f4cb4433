"""Per-shape merge plans (:func:`repro.core.sorting.merge2d._merge_plan`).

Each level of the batched merge tree reads its shape-only columns from a
cached plan.  These tests pin every plan column to the per-level formulas
the batched body used before plans existed (kept here as
:func:`formula_levels`), and check the cache's properties: shared across
positions, bounded, read-only, complete when published, and untouched by a
rejected region.
"""

import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core.collectives import _broadcast_tables
from repro.core.sorting import merge2d
from repro.core.sorting.merge2d import _PLAN_CACHE_SIZE, _merge_plan, merge_sorted_2d
from repro.machine import Region, ReferenceMachine, SpatialMachine
from repro.machine.fastpath import ragged, segment_starts


def formula_levels(regions: np.ndarray, base_case: int) -> list[dict]:
    """Every level's shape-only columns, as the level loop computed them:
    subproblem rows ``(na, nb, row, col, h, w, off, merge)``, the leaf mask,
    and for the splitting subproblems their quarters, sub-regions, child
    starts and broadcast offsets.  ``na`` never reaches these columns, so
    every subproblem here holds only ``A``."""
    regions = np.asarray(regions, dtype=np.int64)
    n0 = regions[:, 2] * regions[:, 3]
    merge_start = segment_starts(n0)
    sub = np.column_stack(
        [n0, np.zeros_like(n0), regions, np.zeros_like(n0), np.arange(len(n0))]
    )
    levels = []
    while len(sub):
        na, nb, row, col, h, w, off, merge = sub.T
        n = na + nb
        leaf = (n <= base_case) | (h == 1) | (w == 1) | (n < 4)
        lv = {
            "n": n, "region": np.column_stack([row, col, h, w]), "leaf": leaf,
            "park_at": merge_start[merge] + off,
        }
        levels.append(lv)
        sub = sub[~leaf]
        if not len(sub):
            break
        na, nb, row, col, h, w, off, merge = sub.T
        n = na + nb
        seg_start, _, _ = ragged(n)
        quarter = n // 4
        q4 = np.arange(4, dtype=np.int64)
        sq, wide = (h == w)[:, None], (w > h)[:, None]
        sub_h = np.where(sq[:, 0], h // 2, np.where(wide[:, 0], h, h // 4))
        sub_w = np.where(sq[:, 0], w // 2, np.where(wide[:, 0], w // 4, w))
        sub_row = row[:, None] + np.where(sq, (q4 >= 2), np.where(wide, 0, q4)) * sub_h[:, None]
        sub_col = col[:, None] + np.where(sq, (q4 & 1), np.where(wide, q4, 0)) * sub_w[:, None]
        child_start = seg_start[:, None] + q4 * quarter[:, None]
        dep, dst = [], []
        for s in range(len(sub)):
            d_off, s_off = _broadcast_tables(int(h[s]), int(w[s]))[:2]
            cell = np.arange(n[s])
            dep.append(d_off[cell])
            dst.append(s_off[cell])
        lv.update(
            seg_start=seg_start, ks=quarter[:, None] * np.arange(1, 4),
            child_row=sub_row.ravel(), child_col=sub_col.ravel(), child_h=sub_h,
            child_w=sub_w, child_start=child_start.ravel(), bc_dep=dep, bc_dst=dst,
        )
        chunk = np.column_stack([quarter, quarter, quarter, n - 3 * quarter])
        sub = np.column_stack([
            chunk.ravel(), np.zeros(4 * len(sub), dtype=np.int64), sub_row.ravel(),
            sub_col.ravel(), np.repeat(sub_h, 4), np.repeat(sub_w, 4),
            (off[:, None] + q4 * quarter[:, None]).ravel(), np.repeat(merge, 4),
        ])
    return levels


def assert_plan_matches_formulas(regions, base_case):
    plan = _merge_plan(np.asarray(regions), base_case)
    want = formula_levels(regions, base_case)
    assert len(plan) == len(want)
    for i, (lv, ref) in enumerate(zip(plan, want)):
        msg = f"level {i}"
        for name in ("n", "region", "leaf", "park_at"):
            np.testing.assert_array_equal(getattr(lv, name), ref[name], err_msg=f"{msg} {name}")
        if "ks" not in ref:
            assert not len(lv.split), msg
            continue
        np.testing.assert_array_equal(lv.split, np.flatnonzero(~ref["leaf"]), err_msg=msg)
        for name in ("seg_start", "ks", "child_row", "child_col", "child_h", "child_w",
                     "child_start"):
            np.testing.assert_array_equal(getattr(lv, name), ref[name], err_msg=f"{msg} {name}")
        for s, (dep, dst) in enumerate(zip(ref["bc_dep"], ref["bc_dst"])):
            at = lv.bc_base[s] + np.arange(len(dep))
            np.testing.assert_array_equal(lv.bc_dep[at], dep, err_msg=f"{msg} bc_dep {s}")
            np.testing.assert_array_equal(lv.bc_dst[at], dst, err_msg=f"{msg} bc_dst {s}")


def _squares(side: int, count: int = 1) -> list:
    return [[0, i * side, side, side] for i in range(count)]


@pytest.mark.parametrize("base_case", [4, 16, 64])
@pytest.mark.parametrize("side", [8, 16, 32, 64])
def test_square_plans_match_formulas(side, base_case):
    assert_plan_matches_formulas(_squares(side, 2), base_case)


@pytest.mark.parametrize("base_case", [4, 16, 64])
@pytest.mark.parametrize("h, w", [(4, 8), (8, 16), (32, 64), (8, 4), (16, 8), (64, 32)])
def test_strip_plans_match_formulas(h, w, base_case):
    assert_plan_matches_formulas([[0, 0, h, w], [h, 0, h, w], [0, w, h, w]], base_case)


@pytest.mark.parametrize("base_case", [4, 16, 64])
def test_mixed_batch_plan_matches_formulas(base_case):
    """The batch of test_many_merges_match_one_call_each: leaf and splitting
    subproblems of different shapes in one level."""
    assert_plan_matches_formulas([[0, 0, 8, 16], [8, 0, 8, 16], [16, 0, 16, 16]], base_case)


def test_mixed_level_stacks_each_shape_once():
    plan = _merge_plan(np.array([[0, 0, 8, 16], [8, 0, 8, 16], [16, 0, 16, 16]]), 16)
    top = plan[0]
    assert len(top.bc_dep) == 8 * 16 + 16 * 16
    assert top.bc_charge == tuple(
        sum(_broadcast_tables(h, w)[i] for h, w in ((8, 16), (8, 16), (16, 16)))
        for i in (2, 3, 4)
    )


def _merge(region: Region, seed: int = 0):
    n = region.size
    rng = np.random.default_rng(seed)
    a, b = np.sort(rng.random(n // 2)), np.sort(rng.random(n - n // 2))
    rows, cols = region.rowmajor_coords()

    def run(m):
        A = m.place(a[:, None], rows[: n // 2], cols[: n // 2])
        B = m.place(b[:, None], rows[n // 2:], cols[n // 2:])
        out = merge_sorted_2d(m, A, B, region)
        return out, m.stats

    return run


def test_same_shape_elsewhere_shares_the_plan():
    here, there = Region(0, 0, 16, 32), Region(40, 8, 16, 32)
    regions = [np.array([[r.row, r.col, r.height, r.width]]) for r in (here, there)]
    assert _merge_plan(regions[0], 16) is _merge_plan(regions[1], 16)
    assert _merge_plan(regions[0], 16) is not _merge_plan(regions[0], 4)
    for region in (here, there):
        run = _merge(region)
        out, stats = run(SpatialMachine(fast=True, strict=False))
        ref_out, ref_stats = run(ReferenceMachine(strict=False))
        assert stats == ref_stats
        assert out.payload.tobytes() == ref_out.payload.tobytes()
        np.testing.assert_array_equal(out.depth, ref_out.depth)
        np.testing.assert_array_equal(out.dist, ref_out.dist)


def test_cache_is_bounded():
    for i in range(300):
        _merge_plan(np.array([[0, 0, 4, 8], [4, i, 4, 4]]), 16)
    assert len(merge2d._PLANS) <= _PLAN_CACHE_SIZE


def test_plan_arrays_are_read_only():
    plan = _merge_plan(np.array(_squares(32)), 16)
    arrays = [
        v for lv in plan for name in type(lv).__slots__
        if isinstance(v := getattr(lv, name, None), np.ndarray)
    ]
    assert arrays and not any(a.flags.writeable for a in arrays)


def test_plans_published_complete_under_threads():
    """Six threads (two per shape) racing on shapes no plan covers yet,
    switching often, all charge what the reference charges."""
    regions = [Region(0, 0, 8 << (i % 3), 16 << (i % 3)) for i in range(6)]
    regions = [Region(r.row + 3 * i, r.col, r.height, r.width) for i, r in enumerate(regions)]
    for r in regions:  # drop any plan an earlier test built for these shapes
        for base in (4, 16):
            merge2d._PLANS.pop(
                (np.array([[0, 0, r.height, r.width]], dtype=np.int64).tobytes(), base), None
            )
    want = [_merge(r, i)(ReferenceMachine(strict=False))[1] for i, r in enumerate(regions)]
    got = [None] * len(regions)
    barrier = threading.Barrier(len(regions))

    def work(i):
        barrier.wait()
        got[i] = _merge(regions[i], i)(SpatialMachine(fast=True, strict=False))[1]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(regions))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


@pytest.mark.parametrize("h, w", [(12, 12), (6, 12)])
def test_rejected_region_caches_nothing(h, w):
    before = dict(merge2d._PLANS)
    with pytest.raises(ValueError, match="power-of-two squares or 2:1 rectangles, got Region"):
        _merge_plan(np.array([[5, 7, h, w]]), 16)
    assert dict(merge2d._PLANS) == before


def test_import_builds_no_plan():
    code = (
        "import repro\n"
        "from repro.core.sorting import allpairs, merge2d, two_sorted_select\n"
        "print(len(merge2d._PLANS), len(two_sorted_select._BISECT),"
        " allpairs._STACKED['cell'].shape[1])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "1", "0"]


def test_wide_searches_match_probe_plan():
    """Searches wider than the probe table (block counts past its cap of
    256, arrays of ~66k entries and more) bisect in lockstep until they
    fit, and still probe exactly the indices of the scalar search."""
    from repro.core.sorting.two_sorted_select import _probe_chains, _probe_plan

    rng = np.random.default_rng(7)
    n = np.concatenate([[1, 2, 66_000, 300_000, 300_000], rng.integers(60_000, 300_000, 15)])
    count = (rng.random(len(n)) * (n + 1)).astype(np.int64)
    count[3], count[4] = 0, n[4]
    probes, hops = _probe_chains(n, count)
    chains = np.split(probes, np.cumsum(hops)[:-1])
    m = SpatialMachine()
    for i, (size, below) in enumerate(zip(n.tolist(), count.tolist())):
        arr = m.place(np.arange(size, dtype=float)[:, None], np.zeros(size, int), np.arange(size))
        got, want = _probe_plan(arr, np.array([below - 0.5]), 1)
        assert got == below
        np.testing.assert_array_equal(chains[i], want, err_msg=f"n={size} count={below}")
