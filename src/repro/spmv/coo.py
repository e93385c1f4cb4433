"""COO sparse matrices and workload generators (paper, Section VIII setup).

The paper's SpMV input convention: an ``n x n`` matrix with ``m >= n``
non-zeros in coordinate format, one ``(i, j, A_ij)`` triple per processor of
a ``sqrt(m) x sqrt(m)`` subgrid (arbitrary order); the vector ``x`` on a
``sqrt(n) x sqrt(n)`` subgrid, one entry per processor.

Generators cover the evaluation sweeps: uniform random sparsity, banded
(stencil-like) matrices, permutation matrices (the lower-bound witness of
Lemma VIII.1), and graph adjacency/Laplacian matrices via networkx (the GNN /
graph-algorithm motivation of the introduction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "COOMatrix",
    "random_coo",
    "banded_coo",
    "permutation_coo",
    "graph_adjacency_coo",
]


@dataclass
class COOMatrix:
    """An ``n x n`` sparse matrix in coordinate format."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    n: int

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValueError("COO component length mismatch")
        if len(self.rows) and (
            self.rows.min() < 0
            or self.rows.max() >= self.n
            or self.cols.min() < 0
            or self.cols.max() >= self.n
        ):
            raise ValueError("COO indices out of range")

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def multiply_dense(self, x: np.ndarray) -> np.ndarray:
        """Reference ``A @ x`` via NumPy scatter-add (the functional oracle)."""
        y = np.zeros(self.n)
        np.add.at(y, self.rows, self.vals * np.asarray(x, dtype=np.float64)[self.cols])
        return y

    @classmethod
    def from_scipy(cls, mat) -> "COOMatrix":
        """Build from any scipy.sparse matrix (must be square)."""
        coo = mat.tocoo()
        if coo.shape[0] != coo.shape[1]:
            raise ValueError("COOMatrix is square-only")
        return cls(coo.row, coo.col, coo.data, coo.shape[0])

    def to_scipy(self):
        """Cross-check handle: the same matrix as ``scipy.sparse.coo_matrix``."""
        import scipy.sparse as sp  # only this cross-check needs scipy

        return sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=(self.n, self.n))

    def deduplicated(self) -> "COOMatrix":
        """Sum duplicate coordinates into single entries."""
        key = self.rows * self.n + self.cols
        uniq, inv = np.unique(key, return_inverse=True)
        vals = np.zeros(len(uniq))
        np.add.at(vals, inv, self.vals)
        return COOMatrix(uniq // self.n, uniq % self.n, vals, self.n)


def random_coo(n: int, nnz: int, rng: np.random.Generator) -> COOMatrix:
    """Uniformly random coordinates (duplicates merged, so ``nnz`` is an
    upper bound on the realized count)."""
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz)
    return COOMatrix(rows, cols, vals, n).deduplicated()


def banded_coo(n: int, bandwidth: int, rng: np.random.Generator) -> COOMatrix:
    """A stencil-style band matrix: diagonals ``-bandwidth .. bandwidth``."""
    rows_list = []
    cols_list = []
    for d in range(-bandwidth, bandwidth + 1):
        i = np.arange(max(0, -d), min(n, n - d), dtype=np.int64)
        rows_list.append(i)
        cols_list.append(i + d)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return COOMatrix(rows, cols, rng.standard_normal(len(rows)), n)


def permutation_coo(perm: np.ndarray) -> COOMatrix:
    """The permutation matrix ``P`` with ``(P x)[i] = x[perm[i]]`` — the
    Lemma VIII.1 lower-bound witness (SpMV can realize any permutation)."""
    perm = np.asarray(perm, dtype=np.int64)
    n = len(perm)
    return COOMatrix(np.arange(n, dtype=np.int64), perm, np.ones(n), n)


def graph_adjacency_coo(n: int, rng: np.random.Generator, kind: str = "gnp") -> COOMatrix:
    """Adjacency matrix of a random graph (networkx substrate).

    ``kind``: ``"gnp"`` (Erdős-Rényi with expected degree ~4) or ``"ba"``
    (Barabási-Albert power-law, the irregular-degree stress case).
    """
    import networkx as nx

    seed = int(rng.integers(0, 2**31 - 1))
    if kind == "gnp":
        g = nx.gnp_random_graph(n, min(1.0, 4.0 / max(n - 1, 1)), seed=seed)
    elif kind == "ba":
        g = nx.barabasi_albert_graph(n, min(2, max(1, n - 1)), seed=seed)
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    if g.number_of_edges() == 0:
        g.add_edge(0, min(1, n - 1))
    edges = np.asarray(g.edges(), dtype=np.int64)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return COOMatrix(rows, cols, np.ones(len(rows)), n).deduplicated()
