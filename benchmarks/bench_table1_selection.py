"""T1-select — Table I row 3 / Theorem VI.3.

Claim: randomized rank selection costs Θ(n) energy, O(log² n) depth and
Θ(sqrt(n)) distance w.h.p., with O(1) sampling iterations.  Sweeps n with
several seeds per size and prints mean/max rows.
"""

import numpy as np

from repro.analysis import fit_power_law, render_table
from repro.core.selection import rank_select
from repro.machine import Region, SpatialMachine

SIZES = [4**k for k in range(3, 9)]  # 64 .. 65536
SEEDS = 5


def _sweep(rng):
    rows = []
    for n in SIZES:
        side = int(np.sqrt(n))
        region = Region(0, 0, side, side)
        x = rng.standard_normal(n)
        energies, depths, dists, iters, fbs = [], [], [], [], 0
        for seed in range(SEEDS):
            m = SpatialMachine()
            res = rank_select(
                m, m.place_zorder(x, region), region, n // 2, np.random.default_rng(seed)
            )
            assert res.value == np.sort(x)[n // 2 - 1]
            energies.append(m.stats.energy)
            depths.append(m.stats.max_depth)
            dists.append(m.stats.max_distance)
            iters.append(res.iterations)
            fbs += res.fell_back
        rows.append(
            {
                "n": n,
                "energy(mean)": float(np.mean(energies)),
                "E/n": float(np.mean(energies)) / n,
                "depth(max)": max(depths),
                "log2(n)^2": round(np.log2(n) ** 2),
                "dist/sqrt(n)": float(np.mean(dists)) / np.sqrt(n),
                "iters(max)": max(iters),
                "fallbacks": fbs,
            }
        )
    return rows


def test_table1_selection(benchmark, report, rng):
    rows = benchmark.pedantic(lambda: _sweep(rng), rounds=1, iterations=1)
    report(
        render_table(
            list(rows[0].keys()),
            [list(r.values()) for r in rows],
            title="Table I row 3 — Rank Selection: Θ(n) energy, O(log² n) depth w.h.p.",
        )
    )
    ns = np.array([r["n"] for r in rows], dtype=float)
    e_fit = fit_power_law(ns[-4:], np.array([r["energy(mean)"] for r in rows])[-4:])
    report(f"energy tail exponent: {e_fit} (paper: 1.0)")
    assert abs(e_fit.exponent - 1.0) < 0.2
    assert all(r["iters(max)"] <= 8 for r in rows)  # O(1) iterations
    assert all(r["depth(max)"] <= 8 * r["log2(n)^2"] for r in rows)


# -- repro.runner suite ----------------------------------------------------
from repro.runner import register_suite, workload_point


@register_suite(
    "table1_selection",
    artifact="Table I row 3 — rank selection: Θ(n) E, O(log² n) D w.h.p.",
    grid={"n": [64, 256, 1024, 4096, 16384]},
    quick={"n": [64, 256]},
    seeds=(0, 1, 2),
)
def _suite_point(params, rng):
    return workload_point("select", params["n"], rng)
