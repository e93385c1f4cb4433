"""Graph-analytics workloads — iterated SpMV/scan rounds against the bounds.

Each graph algorithm (CC, BFS, PageRank) is a loop of Θ(m^{3/2})-energy,
polylog-depth semiring SpMV rounds (Theorem VIII.2), every iteration inside
its own ``machine.phase("round_###")`` span.  The suite sweeps
generator × size × algo, records the per-iteration phase rows, and the
analysis fits the measured *per-round* energy against the Θ(m^{3/2}) bound
with :func:`repro.analysis.tail_exponent` — the flat totals also multiply in
the data-dependent round count, so the bound check lives on the per-round
figures that the CostTree attribution makes available.
"""

import numpy as np

from repro.analysis import render_table, tail_exponent
from repro.graphs import generate_graph, iteration_costs
from repro.machine import SpatialMachine
from repro.runner import point_from_machine, register_suite
from repro.workloads import WORKLOADS, Graph, OracleError

#: pagerank scaling sizes for the exponent fit (full sweep)
SCALING_NS = [64, 144, 256, 400]
#: pagerank scaling sizes for the quick/CI fit
QUICK_SCALING_NS = [16, 36, 64]


#: graph suite/bench algorithm -> registry entry
ENTRIES = {"cc": "graph", "bfs": "bfs", "pagerank": "pagerank"}


def _run_graph_point(algo, generator, n, rounds, rng):
    """One measured run; returns (machine, per-round rows, nnz, extras)."""
    if algo not in ENTRIES:
        raise ValueError(f"unknown graph algo {algo!r}")
    adjacency = generate_graph(generator, n, rng)
    # tol=0 pins pagerank's round count, keeping the point deterministic and
    # the per-round energies directly comparable across sizes
    graph = Graph(adjacency, rounds=rounds if algo == "pagerank" else None)
    m = SpatialMachine()
    out = WORKLOADS[ENTRIES[algo]].execute(m, graph)
    rows = iteration_costs(m.cost_tree, algo)
    if not rows:
        raise OracleError(f"{algo} ran no round_### phases")
    # lossless decomposition: the tree's root-inclusive totals are the flat
    # MachineStats counters, so per-iteration rows sum exactly to them
    total = m.cost_tree.total()
    if (total.energy, total.messages) != (m.stats.energy, m.stats.messages):
        raise OracleError(f"{algo}: cost tree total does not match the flat counters")
    return m, rows, adjacency.nnz, out.extra


def _scaling_rows(rng, ns, rounds=2):
    rows = []
    for n in ns:
        m, its, nnz, _ = _run_graph_point("pagerank", "rmat", n, rounds, rng)
        round_energy = float(np.mean([r["energy"] for r in its]))
        rows.append(
            {
                "n": n,
                "nnz": nnz,
                "rounds": len(its),
                "round E": round(round_energy),
                "E/m^1.5": round_energy / nnz**1.5,
                "depth": m.stats.max_depth,
                "log2(m)^3": round(np.log2(nnz) ** 3),
            }
        )
    return rows


def test_graph_round_energy_exponent(benchmark, report, rng):
    """Per-round PageRank energy follows the SpMV Θ(m^{3/2}) bound."""
    rows = benchmark.pedantic(lambda: _scaling_rows(rng, SCALING_NS), rounds=1, iterations=1)
    report(
        render_table(
            list(rows[0].keys()),
            [list(r.values()) for r in rows],
            title="graph workloads — per-round PageRank energy vs Θ(m^1.5)",
        )
    )
    ms = np.array([r["nnz"] for r in rows], dtype=float)
    es = np.array([r["round E"] for r in rows], dtype=float)
    exp = tail_exponent(ms, es, points=3)
    report(f"per-round energy tail exponent: {exp:.3f} (paper: 1.5)")
    assert 1.2 < exp < 1.9
    for r in rows:
        assert r["depth"] <= 4 * r["log2(m)^3"]


def test_graph_phase_conservation(benchmark, report, rng):
    """Per-iteration spans decompose the flat counters losslessly."""

    def _sweep():
        rows = []
        for algo, generator in (
            ("cc", "grid"),
            ("bfs", "powerlaw"),
            ("pagerank", "rmat"),
        ):
            m, its, nnz, _ = _run_graph_point(algo, generator, 16, 2, rng)
            flat = m.cost_tree.flatten()
            by_path = {r["path"]: r for r in flat}
            root = by_path["total"]
            assert root["inclusive_energy"] == m.stats.energy
            assert root["inclusive_messages"] == m.stats.messages
            # every unit of energy is attributed to some phase's self row
            assert sum(r["self_energy"] for r in flat) == m.stats.energy
            rows.append([algo, generator, nnz, len(its), m.stats.energy])
        return rows

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report(
        render_table(
            ["algo", "generator", "nnz", "rounds", "energy"],
            rows,
            title="graph workloads — phase-tree conservation",
        )
    )


# -- repro.runner suite ----------------------------------------------------
_FULL_GRID = [
    # generator x algo cross-section at one size
    *[
        {"algo": algo, "generator": gen, "n": 64, "rounds": 3}
        for algo in ("cc", "bfs", "pagerank")
        for gen in ("rmat", "grid", "powerlaw")
    ],
    # pagerank/rmat scaling axis for the exponent fit
    *[{"algo": "pagerank", "generator": "rmat", "n": n, "rounds": 2} for n in SCALING_NS],
]

_QUICK_GRID = [
    {"algo": "cc", "generator": "grid", "n": 16, "rounds": 2},
    {"algo": "bfs", "generator": "powerlaw", "n": 16, "rounds": 2},
    *[
        {"algo": "pagerank", "generator": "rmat", "n": n, "rounds": 2}
        for n in QUICK_SCALING_NS
    ],
]


@register_suite(
    "graph",
    artifact="Graph workloads (CC/BFS/PageRank): Θ(m^1.5) E per round, polylog D",
    grid=_FULL_GRID,
    quick=_QUICK_GRID,
)
def _suite_point(params, rng):
    # the service dispatches bare {"n": n} requests at this suite, so every
    # other axis defaults to the scaling workload
    algo = params.get("algo", "pagerank")
    generator = params.get("generator", "rmat")
    n = params["n"]
    rounds = params.get("rounds", 2)
    m, rows, nnz, extra = _run_graph_point(algo, generator, n, rounds, rng)
    energies = [r["energy"] for r in rows]
    return point_from_machine(
        m,
        algo=algo,
        generator=generator,
        nnz=nnz,
        rounds_run=len(rows),
        round_energy_mean=float(np.mean(energies)),
        round_energy_max=int(max(energies)),
        **extra,
    )
