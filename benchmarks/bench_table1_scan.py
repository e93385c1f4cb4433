"""T1-scan — Table I row 1 / Lemma IV.3.

Claim: the parallel scan costs Θ(n) energy, O(log n) depth, Θ(sqrt(n))
distance on a sqrt(n) x sqrt(n) grid.  The bench sweeps n, prints the
measured row per size, and fits the energy/distance exponents.
"""

import numpy as np

from repro.analysis import fit_power_law, phase_exponents, render_cost_tree, render_table
from repro.core.scan import scan
from repro.machine import Region, SpatialMachine

SIZES = [4**k for k in range(3, 10)]  # 64 .. 262144


def _sweep(rng):
    rows = []
    trees = []
    for n in SIZES:
        side = int(np.sqrt(n))
        m = SpatialMachine()
        region = Region(0, 0, side, side)
        res = scan(m, m.place_zorder(rng.random(n), region), region)
        trees.append(m.cost_tree.clone())
        rows.append(
            {
                "n": n,
                "energy": m.stats.energy,
                "energy/n": m.stats.energy / n,
                "depth": res.inclusive.max_depth(),
                "2log4(n)": 2 * int(np.log2(n) / 2),
                "distance": res.inclusive.max_dist(),
                "dist/sqrt(n)": res.inclusive.max_dist() / np.sqrt(n),
            }
        )
    return rows, trees


def test_table1_scan(benchmark, report, rng):
    rows, trees = benchmark.pedantic(lambda: _sweep(rng), rounds=1, iterations=1)
    report(
        render_table(
            list(rows[0].keys()),
            [list(r.values()) for r in rows],
            title="Table I row 1 — Parallel Scan: Θ(n) energy, O(log n) depth, Θ(√n) distance",
        )
    )
    ns = np.array([r["n"] for r in rows], dtype=float)
    e_fit = fit_power_law(ns, np.array([r["energy"] for r in rows]))
    d_fit = fit_power_law(ns, np.array([r["distance"] for r in rows]))
    report(f"energy exponent: {e_fit}   (paper: 1.0)")
    report(f"distance exponent: {d_fit} (paper: 0.5)")
    report(render_cost_tree(trees[-1], title=f"per-phase breakdown at n={rows[-1]['n']}"))
    fits = phase_exponents(ns, trees)
    for path in sorted(fits):
        report(f"  {path:<30} {fits[path]}")
    assert abs(e_fit.exponent - 1.0) < 0.1
    assert abs(d_fit.exponent - 0.5) < 0.1
    # both sweeps are linear-energy; the up-sweep carries values toward the
    # corner and must dominate neither asymptotically (same Θ(n) exponent)
    assert abs(fits["scan/up_sweep"].exponent - 1.0) < 0.1
    assert abs(fits["scan/down_sweep"].exponent - 1.0) < 0.1
    # depth exactly 2 log4 n
    assert all(r["depth"] == r["2log4(n)"] for r in rows)


# -- repro.runner suite ----------------------------------------------------
from repro.runner import register_suite, workload_point


@register_suite(
    "table1_scan",
    artifact="Table I row 1 — parallel scan: Θ(n) E, O(log n) D, Θ(√n) distance",
    grid={"n": [64, 256, 1024, 4096, 16384, 65536]},
    quick={"n": [64, 256]},
)
def _suite_point(params, rng):
    return workload_point("scan", params["n"], rng)
