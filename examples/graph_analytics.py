#!/usr/bin/env python3
"""Graph analytics from semiring SpMV: components, BFS, degrees, statistics.

Builds a random graph and runs the :mod:`repro.graphs` kernels — each round of
each kernel is one Section VIII SpMV over a different semiring — then
summarizes the degree distribution with Section VI order statistics.
Everything is cross-checked against networkx/NumPy.

    python examples/graph_analytics.py
"""

import networkx as nx
import numpy as np

from repro import Region, SpatialMachine
from repro.apps import median, quantile
from repro.graphs import bfs_distances, connected_components, degree_table
from repro.spmv import graph_adjacency_coo

N = 48


def main() -> None:
    rng = np.random.default_rng(9)
    A = graph_adjacency_coo(N, rng, kind="gnp")
    g = nx.from_scipy_sparse_array(A.to_scipy())
    print(f"graph: {N} vertices, {A.nnz // 2} edges")

    machine = SpatialMachine()

    # ---- connected components (MIN / select semiring)
    before = machine.snapshot()
    labels = connected_components(machine, A)
    for comp in nx.connected_components(g):
        comp = sorted(comp)
        assert (labels[comp] == min(comp)).all()
    n_comp = len(set(labels.tolist()))
    print(f"components: {n_comp}  (energy {machine.report(before).energy})")

    # ---- BFS from the first vertex of the largest component (MIN/+1)
    giant = max(nx.connected_components(g), key=len)
    src = min(giant)
    before = machine.snapshot()
    dist = bfs_distances(machine, A, source=src)
    ref = nx.single_source_shortest_path_length(g, src)
    assert all(dist[v] == ref.get(v, np.inf) for v in range(N))
    ecc = int(max(v for v in dist if np.isfinite(v)))
    print(f"BFS from {src}: eccentricity {ecc}  (energy {machine.report(before).energy})")

    # ---- degrees (ADD semiring) + order statistics of the degree sequence
    deg = degree_table(machine, A)
    assert all(deg[v] == g.degree(v) for v in range(N))

    side = 8
    region = Region(0, 0, side, side)
    padded = np.full(side * side, np.inf)
    padded[:N] = deg
    ta = machine.place_zorder(padded, region)
    med = median(machine, ta, region, rng)       # inf-padding sits above
    p90 = quantile(machine, ta, region, 0.9, rng)
    med_ref = np.sort(padded)[side * side // 2 - 1]
    assert med == med_ref
    print(f"degree stats: median(padded)={med:.0f}, p90(padded)={p90}")
    print(
        f"\ntotal spatial cost: energy={machine.stats.energy}, "
        f"depth={machine.stats.max_depth}, messages={machine.stats.messages}"
    )
    print("all kernels verified against networkx")


if __name__ == "__main__":
    main()
