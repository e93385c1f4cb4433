"""T1-sort — Table I row 2 / Theorem V.8.

Claim: 2D Mergesort costs Θ(n^{3/2}) energy, O(log³ n) depth, Θ(sqrt(n))
distance.  Sweeps n, prints measured rows, fits the energy exponent on the
sweep tail and checks depth stays under log³.
"""

import numpy as np

from repro.analysis import phase_exponents, render_cost_tree, render_table, tail_exponent
from repro.core.sorting.mergesort2d import sort_values
from repro.machine import Region, SpatialMachine

SIDES = [8, 16, 32, 64]  # n = 64 .. 4096


def _sweep(rng):
    rows = []
    trees = []
    for side in SIDES:
        n = side * side
        m = SpatialMachine()
        out = sort_values(m, rng.random(n), Region(0, 0, side, side))
        trees.append(m.cost_tree.clone())
        rows.append(
            {
                "n": n,
                "energy": m.stats.energy,
                "E/n^1.5": m.stats.energy / n**1.5,
                "depth": out.max_depth(),
                "log2(n)^3": round(np.log2(n) ** 3),
                "distance": out.max_dist(),
                "dist/sqrt(n)": out.max_dist() / np.sqrt(n),
            }
        )
    return rows, trees


def test_table1_sort(benchmark, report, rng):
    rows, trees = benchmark.pedantic(lambda: _sweep(rng), rounds=1, iterations=1)
    report(
        render_table(
            list(rows[0].keys()),
            [list(r.values()) for r in rows],
            title="Table I row 2 — 2D Mergesort: Θ(n^1.5) energy, O(log³ n) depth, Θ(√n) distance",
        )
    )
    ns = np.array([r["n"] for r in rows], dtype=float)
    exp = tail_exponent(ns, np.array([r["energy"] for r in rows]), points=3)
    report(f"energy tail exponent: {exp:.3f} (paper: 1.5; small-n selection terms bias it down)")
    report(render_cost_tree(trees[-1], title=f"per-phase breakdown at n={rows[-1]['n']}"))
    fits = phase_exponents(ns, trees)
    for path in sorted(fits):
        report(f"  {path or 'total':<40} {fits[path]}")
    assert 1.2 < exp < 1.8
    # the merge tree is where the Θ(n^1.5) lives: its fitted exponent must
    # track the total's, i.e. the breakdown attributes the dominant term
    assert abs(fits["mergesort2d/merge2d"].exponent - fits["total"].exponent) < 0.2
    for r in rows:
        assert r["depth"] <= r["log2(n)^3"]
    # the E/n^1.5 normalization flattens out at the tail (Θ, not ω)
    assert rows[-1]["E/n^1.5"] < rows[-2]["E/n^1.5"] * 1.25


# -- repro.runner suite ----------------------------------------------------
from repro.runner import register_suite, workload_point


@register_suite(
    "table1_sort",
    artifact="Table I row 2 — 2D mergesort: Θ(n^1.5) E, O(log³ n) D, Θ(√n) distance",
    grid={"side": [8, 16, 32, 64]},
    quick={"side": [8, 16]},
)
def _suite_point(params, rng):
    return workload_point("mergesort", params["side"] ** 2, rng)
