"""T1-spmv — Table I row 4 / Theorem VIII.2.

Claim: SpMV with m = Θ(n) non-zeros costs Θ(m^{3/2}) energy, O(log³ n)
depth, Θ(sqrt(m)) distance.  Sweeps n at fixed density across matrix kinds.
"""

import numpy as np

from repro.analysis import render_table, tail_exponent
from repro.machine import SpatialMachine
from repro.spmv import banded_coo, graph_adjacency_coo, random_coo, spmv_spatial

NS = [16, 32, 64, 128, 256]


def _sweep(rng):
    rows = []
    for n in NS:
        A = random_coo(n, 4 * n, rng)
        x = rng.standard_normal(n)
        m = SpatialMachine()
        y = spmv_spatial(m, A, x)
        assert np.allclose(y.payload, A.multiply_dense(x))
        rows.append(
            {
                "n": n,
                "nnz": A.nnz,
                "energy": m.stats.energy,
                "E/m^1.5": m.stats.energy / A.nnz**1.5,
                "depth": m.stats.max_depth,
                "log2(m)^3": round(np.log2(A.nnz) ** 3),
                "dist/sqrt(m)": m.stats.max_distance / np.sqrt(A.nnz),
            }
        )
    return rows


def _matrix_kinds(rng):
    n = 64
    x = rng.standard_normal(n)
    rows = []
    for name, A in (
        ("random", random_coo(n, 4 * n, rng)),
        ("banded(b=2)", banded_coo(n, 2, rng)),
        ("graph-gnp", graph_adjacency_coo(n, rng, "gnp")),
        ("graph-ba", graph_adjacency_coo(n, rng, "ba")),
    ):
        m = SpatialMachine()
        y = spmv_spatial(m, A, x)
        assert np.allclose(y.payload, A.multiply_dense(x))
        rows.append(
            {
                "matrix": name,
                "nnz": A.nnz,
                "energy": m.stats.energy,
                "E/m^1.5": m.stats.energy / A.nnz**1.5,
                "depth": m.stats.max_depth,
            }
        )
    return rows


def test_table1_spmv_scaling(benchmark, report, rng):
    rows = benchmark.pedantic(lambda: _sweep(rng), rounds=1, iterations=1)
    report(
        render_table(
            list(rows[0].keys()),
            [list(r.values()) for r in rows],
            title="Table I row 4 — SpMV (m = Θ(n)): Θ(m^1.5) energy, O(log³ n) depth",
        )
    )
    ms = np.array([r["nnz"] for r in rows], dtype=float)
    exp = tail_exponent(ms, np.array([r["energy"] for r in rows]), points=3)
    report(f"energy tail exponent: {exp:.3f} (paper: 1.5)")
    assert 1.2 < exp < 1.9
    for r in rows:
        assert r["depth"] <= 2 * r["log2(m)^3"]


def test_table1_spmv_matrix_kinds(benchmark, report, rng):
    rows = benchmark.pedantic(lambda: _matrix_kinds(rng), rounds=1, iterations=1)
    report(
        render_table(
            list(rows[0].keys()),
            [list(r.values()) for r in rows],
            title="SpMV across matrix structures (Section VIII workloads)",
        )
    )
    # all kinds stay in the sort-dominated regime (comparable E/m^1.5)
    norms = [r["E/m^1.5"] for r in rows]
    assert max(norms) / min(norms) < 8


# -- repro.runner suite ----------------------------------------------------
from repro.runner import register_suite, workload_point


@register_suite(
    "table1_spmv",
    artifact="Table I row 4 — SpMV (m=Θ(n)): Θ(m^1.5) E, O(log³ n) D",
    grid={"n": [16, 32, 64, 128, 256]},
    quick={"n": [16, 32]},
)
def _suite_point(params, rng):
    return workload_point("spmv", params["n"], rng)
