"""Tests for the graph-analytics subsystem (repro.graphs).

Three layers of evidence:

* property tests comparing the machine algorithms against independent host
  oracles (flood fill, frontier BFS, dense-numpy power iteration) on random
  seeded generator graphs;
* phase-tree conservation: per-iteration ``round_###`` spans sum exactly to
  the flat :class:`MachineStats` counters — also under a fault plan, where
  recovery inflates the costs but never the results;
* contract checks: symmetry validation, convergence-cap errors, generator
  invariants, and the ``repro.apps`` back-compat surface.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validate import check_symmetric_adjacency
from repro.graphs import (
    GENERATORS,
    GraphConvergenceError,
    bfs_distances,
    bfs_reference,
    cc_reference,
    connected_components,
    degree_table,
    generate_graph,
    grid2d_coo,
    iteration_costs,
    pagerank,
    pagerank_reference,
    powerlaw_coo,
    rmat_coo,
)
from repro.machine import FaultPlan, SpatialMachine
from repro.spmv.coo import COOMatrix

#: (kind, n) pool for the property tests — perfect squares so every
#: generator (including the mesh) accepts them, small so the machine runs
#: stay sub-second
GRAPH_CASES = [(kind, n) for kind in ("rmat", "grid", "powerlaw") for n in (9, 16, 25)]


def _graph(kind: str, n: int, seed: int) -> COOMatrix:
    return generate_graph(kind, n, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
class TestGenerators:
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_invariants(self, kind):
        A = _graph(kind, 16, 3)
        assert A.n == 16 and A.nnz >= 1
        check_symmetric_adjacency(A)  # does not raise
        assert not np.any(np.asarray(A.rows) == np.asarray(A.cols)), "self-loop"
        assert np.all(np.asarray(A.vals) == 1.0), "non-unit weight"
        # deduplicated: every (row, col) pair appears once
        keys = np.asarray(A.rows) * A.n + np.asarray(A.cols)
        assert len(np.unique(keys)) == A.nnz

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_deterministic_given_seed(self, kind):
        a, b = _graph(kind, 16, 7), _graph(kind, 16, 7)
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)

    def test_grid_shape(self):
        A = grid2d_coo(16)
        # interior degree 4, corner degree 2: the 4x4 mesh has 24 directed entries
        assert A.nnz == 48

    def test_grid_rejects_non_square(self):
        with pytest.raises(ValueError, match="perfect-square"):
            grid2d_coo(15)

    def test_rmat_rejects_tiny(self):
        with pytest.raises(ValueError, match="n >= 2"):
            rmat_coo(1, np.random.default_rng(0))

    def test_powerlaw_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="exceed 1"):
            powerlaw_coo(16, np.random.default_rng(0), gamma=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown graph generator"):
            generate_graph("petersen", 16, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# machine algorithms vs host oracles
# ---------------------------------------------------------------------------
class TestAgainstReferences:
    @settings(max_examples=12, deadline=None)
    @given(case=st.sampled_from(GRAPH_CASES), seed=st.integers(0, 2**16))
    def test_connected_components(self, case, seed):
        kind, n = case
        A = _graph(kind, n, seed)
        labels = connected_components(SpatialMachine(), A)
        assert np.array_equal(labels, cc_reference(A))

    @settings(max_examples=12, deadline=None)
    @given(case=st.sampled_from(GRAPH_CASES), seed=st.integers(0, 2**16))
    def test_bfs(self, case, seed):
        kind, n = case
        A = _graph(kind, n, seed)
        source = seed % n
        dist = bfs_distances(SpatialMachine(), A, source)
        assert np.array_equal(dist, bfs_reference(A, source))

    @settings(max_examples=8, deadline=None)
    @given(case=st.sampled_from(GRAPH_CASES), seed=st.integers(0, 2**16))
    def test_pagerank(self, case, seed):
        kind, n = case
        A = _graph(kind, n, seed)
        res = pagerank(SpatialMachine(), A, tol=0.0, max_rounds=3)
        ref = pagerank_reference(A, tol=0.0, max_rounds=3)
        np.testing.assert_allclose(res.ranks, ref.ranks, rtol=1e-9, atol=1e-12)
        assert res.rounds == ref.rounds == 3
        assert np.isclose(res.ranks.sum(), 1.0)

    def test_pagerank_converges_on_tolerance(self):
        A = _graph("rmat", 16, 0)
        res = pagerank(SpatialMachine(), A, tol=1e-10, max_rounds=200)
        assert res.converged and res.residual <= 1e-10
        ref = pagerank_reference(A, tol=1e-10, max_rounds=200)
        assert abs(res.rounds - ref.rounds) <= 1

    def test_degree_table(self):
        A = _graph("powerlaw", 16, 5)
        deg = degree_table(SpatialMachine(), A)
        expect = np.zeros(16)
        np.add.at(expect, np.asarray(A.rows), np.asarray(A.vals))
        assert np.array_equal(deg, expect.astype(np.int64))


# ---------------------------------------------------------------------------
# per-iteration cost attribution
# ---------------------------------------------------------------------------
class TestPhaseAttribution:
    def test_rounds_sum_to_flat_counters(self):
        A = grid2d_coo(16)
        m = SpatialMachine()
        connected_components(m, A)
        total = m.cost_tree.total()
        assert total.energy == m.stats.energy
        assert total.messages == m.stats.messages
        rows = iteration_costs(m.cost_tree, "cc")
        # grid 4x4 from vertex-0 labels: diameter 6, +1 detection round
        assert len(rows) == 7
        assert [r["round"] for r in rows] == list(range(7))
        cc = m.cost_tree.node("cc")
        assert sum(r["energy"] for r in rows) + cc.energy == cc.inclusive_cost()["energy"]
        # everything this machine did happened inside the cc phase
        assert cc.inclusive_cost()["energy"] == m.stats.energy

    def test_pagerank_tree_has_degrees_and_normalize(self):
        A = _graph("rmat", 16, 1)
        m = SpatialMachine()
        res = pagerank(m, A, tol=0.0, max_rounds=2)
        assert res.rounds == 2
        paths = m.cost_tree.paths()
        assert "pagerank/degrees" in paths
        assert "pagerank/round_000/normalize" in paths
        assert "pagerank/round_001/spmv" in paths
        rows = iteration_costs(m.cost_tree, "pagerank")
        assert len(rows) == 2
        node = m.cost_tree.node("pagerank")
        degrees = m.cost_tree.node("pagerank/degrees")
        split = (
            node.energy
            + degrees.inclusive_cost()["energy"]
            + sum(r["energy"] for r in rows)
        )
        assert split == node.inclusive_cost()["energy"] == m.stats.energy

    def test_conservation_under_fault_plan(self):
        A = grid2d_coo(16)
        clean = SpatialMachine()
        labels_clean = connected_components(clean, A)

        plan = FaultPlan.seeded(11, drop_prob=0.02, corrupt_prob=0.01)
        faulty = SpatialMachine(faults=plan)
        labels_faulty = connected_components(faulty, A)

        # fault recovery is result-transparent...
        assert np.array_equal(labels_clean, labels_faulty)
        assert np.array_equal(labels_faulty, cc_reference(A))
        # ...costs strictly inflate, and the tree still decomposes exactly
        assert faulty.stats.energy > clean.stats.energy
        assert faulty.cost_tree.total().energy == faulty.stats.energy
        rows_c = iteration_costs(clean.cost_tree, "cc")
        rows_f = iteration_costs(faulty.cost_tree, "cc")
        assert len(rows_c) == len(rows_f)
        flat = faulty.cost_tree.flatten()
        assert sum(r["self_energy"] for r in flat) == faulty.stats.energy

    def test_iteration_costs_missing_phase(self):
        m = SpatialMachine()
        assert iteration_costs(m.cost_tree, "cc") == []


# ---------------------------------------------------------------------------
# contracts and error paths
# ---------------------------------------------------------------------------
class TestContracts:
    def _directed(self) -> COOMatrix:
        return COOMatrix(
            np.array([0, 1, 1]), np.array([1, 0, 2]), np.ones(3), 4
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda m, A: connected_components(m, A),
            lambda m, A: bfs_distances(m, A, 0),
            lambda m, A: pagerank(m, A),
        ],
        ids=["cc", "bfs", "pagerank"],
    )
    def test_asymmetric_adjacency_rejected(self, call):
        with pytest.raises(ValueError, match="not symmetric"):
            call(SpatialMachine(), self._directed())

    def test_symmetry_error_names_the_edge(self):
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            check_symmetric_adjacency(self._directed())

    def test_round_cap_raises_not_truncates(self):
        A = grid2d_coo(16)  # diameter 6: needs 7 rounds
        with pytest.raises(GraphConvergenceError, match="did not converge") as exc:
            connected_components(SpatialMachine(), A, max_rounds=2)
        assert exc.value.algo == "connected_components" and exc.value.rounds == 2
        with pytest.raises(GraphConvergenceError):
            bfs_distances(SpatialMachine(), A, 0, max_rounds=2)

    def test_default_cap_always_converges(self):
        # worst case for label propagation: long path embedded in the mesh
        A = grid2d_coo(25)
        labels = connected_components(SpatialMachine(), A)
        assert np.array_equal(labels, np.zeros(25, dtype=np.int64))

    def test_bad_arguments_rejected(self):
        A = grid2d_coo(16)
        m = SpatialMachine()
        with pytest.raises(ValueError, match="max_rounds >= 1"):
            connected_components(m, A, max_rounds=0)
        with pytest.raises(ValueError, match="out of range"):
            bfs_distances(m, A, source=16)
        with pytest.raises(ValueError, match="damping"):
            pagerank(m, A, damping=1.0)
        with pytest.raises(ValueError, match="max_rounds >= 1"):
            pagerank(m, A, max_rounds=0)

    def test_pagerank_reports_non_convergence(self):
        A = grid2d_coo(16)
        res = pagerank(SpatialMachine(), A, tol=1e-12, max_rounds=1)
        assert not res.converged and res.rounds == 1 and res.residual > 1e-12

    def test_empty_graph_trivial_answers(self):
        empty = COOMatrix(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([]),
            4,
        )
        m = SpatialMachine()
        assert np.array_equal(connected_components(m, empty), np.arange(4))
        d = bfs_distances(m, empty, 1)
        assert d[1] == 0.0 and np.isinf(d[[0, 2, 3]]).all()
        res = pagerank(m, empty)
        assert res.converged and np.allclose(res.ranks, 0.25)
        assert m.stats.energy == 0  # nothing ever touched the machine
