"""The level-synchronous merge tree against the depth-first reference.

On a clean fast machine the 2D Mergesort, the 2D merge and the two-array
rank selection run level by level, batching every subproblem of a recursion
level into one selection, one broadcast charge and one segmented send per
kind.  Side-8 conformance gives each merge at most one split level, so these
points use sides 16 and 32, where several levels (and several merges per
level) really are batched.  Every point must match a
:class:`ReferenceMachine` run exactly: payload bytes, cells, per-element
depth and distance, :class:`MachineStats` and the phase tree.
"""

import math

import numpy as np
import pytest

from repro.core.sorting.allpairs import _subgrid_side, _subgrid_sides
from repro.core.sorting.merge2d import merge_sorted_2d, merge_sorted_2d_many
from repro.core.sorting.mergesort2d import mergesort_2d
from repro.core.sorting.two_sorted_select import (
    _isqrt,
    _probe_chains,
    _probe_plan,
    select_ranks_two_sorted,
)
from repro.machine import Region, ReferenceMachine, SpatialMachine
from repro.machine.machine import concat_tracked

KINDS = ("uniform", "all_equal", "few_distinct", "sorted", "reversed", "inf_padded")


def _keys(kind: str, n: int, rng) -> np.ndarray:
    if kind == "uniform":
        return rng.random(n)
    if kind == "all_equal":
        return np.full(n, 0.5)
    if kind == "few_distinct":
        return rng.integers(0, 3, n).astype(float)
    if kind == "sorted":
        return np.arange(n, dtype=float)
    if kind == "reversed":
        return np.arange(n, dtype=float)[::-1].copy()
    keys = np.full(n, np.inf)  # the +inf padding of sort_any
    keys[: n // 3] = rng.random(n // 3)
    return keys


def _payload(kind: str, n: int, key_cols: int, rng) -> np.ndarray:
    """Keys (a second key column when ``key_cols == 2``) plus two satellites."""
    cols = [_keys(kind, n, rng)]
    if key_cols == 2:
        cols.append(rng.integers(0, 2, n).astype(float))
    cols += [rng.random(n), np.arange(n, dtype=float)]
    return np.column_stack(cols)


def _diff(run) -> list[str]:
    """Run ``run(machine)`` on the reference and on a clean fast machine;
    list every field that differs."""
    ref, fast = ReferenceMachine(strict=False), SpatialMachine(fast=True, strict=False)
    assert fast.clean_fast
    x, y = run(ref), run(fast)
    diffs = []
    if not hasattr(x, "payload"):
        if x != y:
            diffs.append(f"result {x} != {y}")
    else:
        if x.payload.shape != y.payload.shape or x.payload.tobytes() != y.payload.tobytes():
            diffs.append("payload")
        for field in ("rows", "cols", "depth", "dist"):
            if not np.array_equal(getattr(x, field), getattr(y, field)):
                diffs.append(field)
    if ref.stats != fast.stats:
        diffs.append(f"stats {ref.stats} != {fast.stats}")
    if ref.cost_tree.as_dict() != fast.cost_tree.as_dict():
        diffs.append("cost tree")
    return diffs


def _mergesort(side: int, kind: str, base_case: int, key_cols: int = 1, seed: int = 0):
    region = Region(3, 5, side, side)
    payload = _payload(kind, side * side, key_cols, np.random.default_rng(seed))

    def run(m):
        ta = m.place_rowmajor(payload, region)
        return mergesort_2d(m, ta, region, key_cols=key_cols, base_case=base_case)

    return run


def _pair(region: Region, na: int, kind: str, seed: int):
    """Sorted A on the first ``na`` row-major cells of ``region``, sorted B
    on the rest, both with satellite columns."""
    n = region.size
    rng = np.random.default_rng(seed)
    a = _payload(kind, na, 1, rng)
    b = _payload(kind, n - na, 1, rng)
    a, b = a[np.argsort(a[:, 0], kind="stable")], b[np.argsort(b[:, 0], kind="stable")]
    rows, cols = region.rowmajor_coords()

    def place(m):
        return m.place(a, rows[:na], cols[:na]), m.place(b, rows[na:], cols[na:])

    return place


class TestMergesortLevels:
    @pytest.mark.parametrize("base_case", [4, 16, 64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_side_16(self, kind, base_case):
        assert _diff(_mergesort(16, kind, base_case)) == []

    @pytest.mark.parametrize("base_case", [4, 16, 64])
    def test_side_16_two_key_columns(self, base_case):
        assert _diff(_mergesort(16, "few_distinct", base_case, key_cols=2)) == []

    @pytest.mark.parametrize(
        "kind, base_case",
        [(kind, (4, 16, 64)[i % 3]) for i, kind in enumerate(KINDS)],
    )
    def test_side_32(self, kind, base_case):
        assert _diff(_mergesort(32, kind, base_case)) == []

    def test_side_32_two_key_columns(self):
        assert _diff(_mergesort(32, "few_distinct", 16, key_cols=2)) == []


#: (region, |A|) pairs: unequal sides, one empty side, wide and square regions
PAIRS = [
    (Region(0, 0, 16, 16), 128),
    (Region(0, 0, 16, 16), 37),
    (Region(0, 0, 16, 16), 0),
    (Region(0, 0, 16, 32), 500),
    (Region(0, 0, 32, 16), 1),
    (Region(0, 0, 16, 32), 512),
]


class TestMergeLevels:
    @pytest.mark.parametrize("kind", ["uniform", "few_distinct", "inf_padded"])
    @pytest.mark.parametrize("region, na", PAIRS)
    def test_merge(self, region, na, kind):
        place = _pair(region, na, kind, seed=na)

        def run(m):
            A, B = place(m)
            return merge_sorted_2d(m, A, B, region, base_case=4 if na % 2 else 16)

        assert _diff(run) == []

    @pytest.mark.parametrize("kind", ["uniform", "all_equal", "inf_padded"])
    @pytest.mark.parametrize("region, na", [p for p in PAIRS if 0 < p[1] < p[0].size])
    def test_select(self, region, na, kind):
        place = _pair(region, na, kind, seed=na)
        n = region.size
        ks = [1, n // 4, n // 2, 3 * n // 4, n]

        def run(m):
            A, B = place(m)
            return select_ranks_two_sorted(m, A, B, ks)

        assert _diff(run) == []


def test_many_merges_match_one_call_each():
    """One batch of merges equals one depth-first call per merge, down to
    the phase tree's child order: the first merge is one-sided, so its
    broadcast comes before any selection."""
    regions = [Region(0, 0, 8, 16), Region(8, 0, 8, 16), Region(16, 0, 16, 16)]
    places = [_pair(r, na, "uniform", seed=i) for i, (r, na) in enumerate(
        zip(regions, (128, 40, 100))
    )]

    def parts(m):
        return [place(m) for place in places]

    ref = ReferenceMachine(strict=False)
    with ref.phase("batch"):
        expected = [merge_sorted_2d(ref, A, B, r) for (A, B), r in zip(parts(ref), regions)]
    fast = SpatialMachine(fast=True, strict=False)
    with fast.phase("batch"):
        pairs = parts(fast)
        got = merge_sorted_2d_many(
            fast,
            concat_tracked([t for pair in pairs for t in pair]),
            np.array([len(A) for A, _ in pairs]),
            np.array([len(B) for _, B in pairs]),
            np.array([[r.row, r.col, r.height, r.width] for r in regions]),
        )
    want = concat_tracked(expected)
    assert got.payload.tobytes() == want.payload.tobytes()
    for field in ("rows", "cols", "depth", "dist"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert ref.stats == fast.stats
    assert ref.cost_tree.as_dict() == fast.cost_tree.as_dict()
    merge_node = fast.cost_tree.node("batch/merge2d")
    assert list(merge_node.children) == ["broadcast", "two_sorted_select"]


def test_an_extra_round_is_caught(monkeypatch):
    """The comparison is sharp: one round too many in the batched send
    kernel fails it, even though energy and messages are unchanged."""
    kernel = SpatialMachine._send_segments_fast
    calls = []

    def off_by_one(machine, *args):
        out = kernel(machine, *args)
        if not calls:
            calls.append(1)
            machine.stats.rounds += 1
        return out

    monkeypatch.setattr(SpatialMachine, "_send_segments_fast", off_by_one)
    diffs = _diff(_mergesort(16, "uniform", 16))
    assert calls and any(d.startswith("stats") for d in diffs)


# -- the batched body's pure helpers, pinned to their scalar forms -----------


def test_probe_chains_match_probe_plan():
    """Every search with ``n <= 300`` and every count ``0..n`` (45,450 of
    them) probes exactly the indices of the scalar two-level search."""
    n = np.concatenate([np.full(m + 1, m) for m in range(1, 301)])
    count = np.concatenate([np.arange(m + 1) for m in range(1, 301)])
    assert len(n) == 45_450
    probes, hops = _probe_chains(n, count)
    assert hops.sum() == len(probes)
    chains = np.split(probes, np.cumsum(hops)[:-1])
    m = SpatialMachine()
    arrays = {}
    for i, (size, below) in enumerate(zip(n.tolist(), count.tolist())):
        arr = arrays.get(size)
        if arr is None:
            arr = arrays[size] = m.place(
                np.arange(size, dtype=float)[:, None], np.zeros(size, int), np.arange(size)
            )
        got, want = _probe_plan(arr, np.array([below - 0.5]), 1)
        assert got == below
        np.testing.assert_array_equal(chains[i], want, err_msg=f"n={size} count={below}")


def test_isqrt_matches_math_isqrt():
    small = np.arange(100_000, dtype=np.int64)
    roots = np.arange(1, 3_000_000, 997, dtype=np.int64)
    near = np.concatenate([roots * roots + d for d in (-1, 0, 1)])
    for n in (small, near):
        want = [max(1, math.isqrt(int(v))) for v in n]
        np.testing.assert_array_equal(_isqrt(n), want)


def test_subgrid_sides_match_subgrid_side():
    sizes = np.arange(1, 70_000, dtype=np.int64)
    want = [_subgrid_side(int(v)) for v in sizes]
    np.testing.assert_array_equal(_subgrid_sides(sizes), want)


# -- more merge-tree points against the reference ---------------------------


def test_side_64_mergesort():
    assert _diff(_mergesort(64, "few_distinct", 16, seed=3)) == []


def _explicit_pair(region: Region, a: np.ndarray, b: np.ndarray):
    """Sorted keys ``a`` on the first row-major cells of ``region`` and
    sorted keys ``b`` on the rest, each with two satellite columns."""
    rng = np.random.default_rng(len(a))
    rows, cols = region.rowmajor_coords()

    def side(keys):
        keys = np.sort(keys)
        return np.column_stack([keys, rng.random(len(keys)), np.arange(len(keys), dtype=float)])

    pa, pb = side(a), side(b)
    na = len(a)

    def place(m):
        return m.place(pa, rows[:na], cols[:na]), m.place(pb, rows[na:], cols[na:])

    return place


#: (region, A keys, B keys): unequal sides whose chunks go one-sided, and
#: keys tied across A and B
EXPLICIT = {
    "a_below_b": (Region(0, 0, 16, 16), np.arange(100.0), np.arange(100.0, 256.0)),
    "b_below_a": (Region(0, 0, 16, 32), np.arange(56.0, 512.0), np.arange(56.0)),
    "a_inside_b": (Region(0, 0, 16, 16), np.arange(100.0, 140.0), np.arange(216.0)),
    "tied_equal_sides": (
        Region(0, 0, 16, 16), np.repeat(np.arange(4.0), 32), np.repeat(np.arange(4.0), 32)
    ),
    "tied_unequal_sides": (Region(0, 0, 16, 16), np.full(37, 1.0), np.full(219, 1.0)),
    "tied_runs": (
        Region(0, 0, 32, 16), np.repeat(np.arange(8.0), 50), np.repeat(np.arange(8.0), 14)
    ),
}


@pytest.mark.parametrize("base_case", [4, 16])
@pytest.mark.parametrize("case", sorted(EXPLICIT))
def test_explicit_merge(case, base_case):
    region, a, b = EXPLICIT[case]
    place = _explicit_pair(region, a, b)

    def run(m):
        A, B = place(m)
        return merge_sorted_2d(m, A, B, region, base_case=base_case)

    assert _diff(run) == []


@pytest.mark.parametrize("case", sorted(EXPLICIT))
def test_explicit_select(case):
    region, a, b = EXPLICIT[case]
    place = _explicit_pair(region, a, b)
    n = region.size
    ks = [1, 2, len(a), len(a) + 1, n // 4, n // 2, 3 * n // 4, n - 1, n]

    def run(m):
        A, B = place(m)
        return select_ranks_two_sorted(m, A, B, ks)

    assert _diff(run) == []
