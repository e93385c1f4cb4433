"""The workload registry: how to run each algorithm at size ``n``, once.

A :class:`Workload` holds ``make_input(n, rng)``, ``run(machine, input)``
(returning an :class:`Output`: host values plus the bench suite's extra
scalars), a host ``oracle(input, output)`` that raises :class:`OracleError`
(kept under ``python -O``, unlike ``assert``), the admitted ``sizes`` and
the paper's ``bound``.  ``n`` counts keys (one per cell of a √n × √n square;
per sorted run for ``merge2d``), the matrix dimension for SpMV (4n
nonzeros), and vertices for the graph entries.

The CLI verbs, chaos, conformance, the service, the tuner's variants and
the ``table1_*``/``graph`` suites all read :data:`WORKLOADS`, so a new
workload is one entry here.  Runs call algorithms through module globals at
call time (never through a stored function object), so tools that rebind
module attributes, such as ``perfbench``'s per-layer timer, see every call.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable

import numpy as np

from .core.blocked import blocked_scan
from .core.scan import scan
from .core.selection import rank_select
from .core.sorting.allpairs import allpairs_sort
from .core.sorting.bitonic import bitonic_sort
from .core.sorting.merge2d import merge_sorted_2d
from .core.sorting.mergesort2d import mergesort_2d
from .core.sorting.mesh_sort import shearsort
from .core.sorting.odd_even import odd_even_mergesort
from .core.sorting.quicksort2d import quicksort_2d
from .core.sorting.sortutil import as_sort_payload
from .graphs import bfs_distances, connected_components, pagerank, reference, rmat_coo
from .machine import Region, SpatialMachine, TrackedArray
from .spmv import COOMatrix, plan_spmv, random_coo, spmv_spatial

__all__ = [
    "SPMV_APPLIES",
    "WORKLOADS",
    "Graph",
    "Keys",
    "Operands",
    "OracleError",
    "Output",
    "Sizes",
    "Workload",
    "lookup",
    "names",
    "served",
    "spmv_operands",
]

#: vectors per planned-SpMV input: the plan is paid once for all of them
SPMV_APPLIES = 4


class OracleError(AssertionError):
    """A workload's output failed its host oracle."""


@dataclass
class Keys:
    """Keys on a region: the scans, the selection and the sorters."""

    values: np.ndarray
    region: Region
    #: the generator that drew the keys; randomized runs keep drawing from it
    rng: np.random.Generator
    #: words per processor (blocked scan)
    block: int = 4
    #: 1-based rank to select (selection; 0 = the lower median)
    k: int = 0
    #: the keys already relayouted to the run's native layout, set by the
    #: tuner's layout adapter
    placed: TrackedArray | None = None

    @classmethod
    def on_square(cls, values: np.ndarray, rng: np.random.Generator) -> Keys:
        """One key per cell of the √n × √n square."""
        side = math.isqrt(len(values))
        return cls(values, Region(0, 0, side, side), rng)


@dataclass
class Operands:
    """A COO matrix and its vector (``spmv``) or one vector per row of ``x``."""

    matrix: COOMatrix
    x: np.ndarray


@dataclass
class Graph:
    """A symmetric adjacency matrix and the graph algorithms' knobs."""

    adjacency: COOMatrix
    source: int = 0
    #: round cap; None derives it from the fixed point (PageRank needs one)
    rounds: int | None = None
    damping: float = 0.85
    tol: float = 0.0


@dataclass
class Output:
    """A run's host values and the extra scalars its bench suite reports."""

    values: np.ndarray
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Sizes:
    """Admitted ``n``: an inclusive range, optionally powers of 4 only."""

    lo: int
    hi: int
    pow4: bool = False

    def shaped(self, n: int) -> bool:
        """True when ``n`` has the required shape (the range aside)."""
        return not self.pow4 or (n > 0 and n & (n - 1) == 0 and n.bit_length() % 2 == 1)


def _by_n(n: int) -> dict:
    return {"n": n}


@dataclass(frozen=True)
class Workload:
    """One workload: input, run, oracle, admitted sizes, paper bound."""

    name: str
    title: str
    make_input: Callable[[int, np.random.Generator], Any]
    run: Callable[[SpatialMachine, Any], Output]
    oracle: Callable[[Any, Output], None]
    sizes: Sizes
    bound: str
    #: ``side -> n`` for the chaos and conformance harnesses
    harness_n: Callable[[int], int] = lambda side: side * side
    #: the name the service admits it under ('' = not served), the bench
    #: suite whose point runs it, and that point's params at ``n``
    served: str = ""
    suite: str = ""
    suite_params: Callable[[int], dict] = _by_n

    def execute(self, machine: SpatialMachine, inp) -> Output:
        """Run on ``machine`` and check the output; raise :class:`OracleError`."""
        out = self.run(machine, inp)
        self.oracle(inp, out)
        return out


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------
def _expect(out: Output, want, what: str, close: bool = False, **tol) -> None:
    """Raise unless ``out.values`` equals ``want``: exactly, or within
    ``np.allclose`` tolerances when ``close``."""
    want = np.asarray(want)
    same = out.values.shape == want.shape and (
        np.allclose(out.values, want, **tol) if close else np.array_equal(out.values, want)
    )
    if not same:
        raise OracleError(f"{what}: got {out.values!r}, want {want!r}")


def _rank(keys: Keys) -> int:
    return keys.k or len(keys.values) // 2


def _prefix_oracle(keys: Keys, out: Output) -> None:
    _expect(out, np.cumsum(keys.values), "prefix sums differ", close=True)


def _sorted_oracle(keys: Keys, out: Output) -> None:
    _expect(out, np.sort(keys.values), "output is not the sorted keys")


def _select_oracle(keys: Keys, out: Output) -> None:
    _expect(out, np.sort(keys.values)[_rank(keys) - 1 : _rank(keys)], "wrong rank")


def _spmv_oracle(ops: Operands, out: Output) -> None:
    want = [ops.matrix.multiply_dense(x) for x in np.atleast_2d(ops.x)]
    _expect(out, np.reshape(want, np.shape(ops.x)), "y != A x", close=True)


def _cc_oracle(g: Graph, out: Output) -> None:
    _expect(out, reference.cc_reference(g.adjacency), "component labels differ")


def _bfs_oracle(g: Graph, out: Output) -> None:
    _expect(out, reference.bfs_reference(g.adjacency, g.source), "BFS distances differ")


def _pagerank_oracle(g: Graph, out: Output) -> None:
    want = reference.pagerank_reference(g.adjacency, g.damping, g.tol, g.rounds).ranks
    _expect(out, want, "PageRank ranks differ", close=True, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def _uniform_keys(n: int, rng: np.random.Generator) -> Keys:
    return Keys.on_square(rng.random(n), rng)


def _normal_keys(n: int, rng: np.random.Generator) -> Keys:
    return Keys.on_square(rng.standard_normal(n), rng)


def _sorted_runs(n: int, rng: np.random.Generator) -> Keys:
    """Two sorted runs of ``n`` keys, side by side on a √n × 2√n region."""
    side = math.isqrt(n)
    runs = [np.sort(rng.standard_normal(n)), np.sort(rng.standard_normal(n))]
    return Keys(np.concatenate(runs), Region(0, 0, side, 2 * side), rng)


def spmv_operands(n: int, rng: np.random.Generator, density: int = 4, vectors: int = 0):
    """An ``n x n`` matrix with ``density * n`` nonzeros and one normal
    vector, or ``vectors`` of them as the rows of ``x``."""
    A = random_coo(n, density * n, rng)
    return Operands(A, rng.standard_normal((vectors, n) if vectors else n))


def _rmat(n: int, rng: np.random.Generator) -> Graph:
    return Graph(rmat_coo(n, rng))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------
def _placed(machine: SpatialMachine, keys: Keys, payload, layout: str) -> TrackedArray:
    """``payload`` in its native ``layout`` (free), unless the tuner's layout
    adapter already delivered it there."""
    if keys.placed is not None:
        return keys.placed
    place = machine.place_zorder if layout == "zorder" else machine.place_rowmajor
    return place(payload, keys.region)


def _rowmajor(machine: SpatialMachine, keys: Keys) -> TrackedArray:
    return _placed(machine, keys, as_sort_payload(keys.values), "rowmajor")


def _traced(ta, values: np.ndarray) -> Output:
    """Host values plus the output's depth and distance."""
    extra = {"out_depth": ta.max_depth(), "out_distance": ta.max_dist()}
    return Output(np.array(values), extra)


def _sorted(ta: TrackedArray) -> Output:
    return _traced(ta, ta.payload[:, 0])


def _run_scan(machine: SpatialMachine, keys: Keys) -> Output:
    res = scan(machine, _placed(machine, keys, keys.values, "zorder"), keys.region)
    return _traced(res.inclusive, res.inclusive.payload)


def _run_blocked_scan(machine: SpatialMachine, keys: Keys) -> Output:
    res = blocked_scan(machine, keys.values, block=keys.block)
    return _traced(res, res.prefix)


def _run_select(machine: SpatialMachine, keys: Keys) -> Output:
    ta = _placed(machine, keys, keys.values, "zorder")
    res = rank_select(machine, ta, keys.region, _rank(keys), keys.rng)
    extra = {"iterations": res.iterations, "fell_back": int(res.fell_back)}
    return Output(np.array([res.value]), extra)


def _run_mergesort(machine: SpatialMachine, keys: Keys) -> Output:
    return _sorted(mergesort_2d(machine, _rowmajor(machine, keys), keys.region))


def _run_quicksort(machine: SpatialMachine, keys: Keys) -> Output:
    # quicksort_2d places the raw keys itself; a layout adapter's relayout
    # of keys.placed is paid but unused
    out = quicksort_2d(machine, keys.values, keys.region, keys.rng)
    return _traced(out, out.payload)


def _run_bitonic(machine: SpatialMachine, keys: Keys) -> Output:
    return _sorted(bitonic_sort(machine, _rowmajor(machine, keys), keys.region))


def _run_oddeven(machine: SpatialMachine, keys: Keys) -> Output:
    return _sorted(odd_even_mergesort(machine, _rowmajor(machine, keys), keys.region))


def _run_shearsort(machine: SpatialMachine, keys: Keys) -> Output:
    return _sorted(shearsort(machine, _rowmajor(machine, keys), keys.region))


def _run_allpairs(machine: SpatialMachine, keys: Keys) -> Output:
    return _sorted(allpairs_sort(machine, _rowmajor(machine, keys), keys.region))


def _run_mergesort_onelevel(machine: SpatialMachine, keys: Keys) -> Output:
    # quadrant-sized base cases sorted by all-pairs rank, then one round of
    # the Fig. 3 merge recursion
    base = max(4, len(keys.values) // 4)
    return _sorted(mergesort_2d(machine, _rowmajor(machine, keys), keys.region, base_case=base))


def _run_merge2d(machine: SpatialMachine, keys: Keys) -> Output:
    side = keys.region.height
    half = side * side
    A = machine.place_rowmajor(as_sort_payload(keys.values[:half]), Region(0, 0, side, side))
    B = machine.place_rowmajor(as_sort_payload(keys.values[half:]), Region(0, side, side, side))
    return _sorted(merge_sorted_2d(machine, A, B, keys.region))


def _run_spmv(machine: SpatialMachine, ops: Operands) -> Output:
    y = spmv_spatial(machine, ops.matrix, ops.x)
    return Output(np.array(y.payload), {"nnz": ops.matrix.nnz})


def _run_spmv_planned(machine: SpatialMachine, ops: Operands) -> Output:
    plan = plan_spmv(machine, ops.matrix)
    return Output(np.array([plan.apply(x).payload for x in ops.x]), {"nnz": ops.matrix.nnz})


def _run_cc(machine: SpatialMachine, g: Graph) -> Output:
    labels = connected_components(machine, g.adjacency, max_rounds=g.rounds)
    return Output(labels.astype(np.float64), {"components": len(np.unique(labels))})


def _run_bfs(machine: SpatialMachine, g: Graph) -> Output:
    dist = bfs_distances(machine, g.adjacency, g.source, max_rounds=g.rounds)
    return Output(np.array(dist), {"reached": int(np.isfinite(dist).sum())})


def _run_pagerank(machine: SpatialMachine, g: Graph) -> Output:
    res = pagerank(machine, g.adjacency, damping=g.damping, tol=g.tol, max_rounds=g.rounds)
    return Output(np.array(res.ranks), {"residual": float(res.residual)})


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
def _quarter(side: int) -> int:
    """Graph harness size: every round is a full semiring SpMV, and
    conformance runs the whole loop on the per-call reference machine."""
    return max(4, side * side // 4)


def _sorter(name: str, title: str, run, bound: str, hi: int = 4096) -> Workload:
    return Workload(name, title, _uniform_keys, run, _sorted_oracle, Sizes(16, hi, True), bound)


def _graph(name: str, title: str, make_input, run, oracle, lo: int = 4, **kw) -> Workload:
    bound = "Θ(m^1.5) E, O(log³ n) D per round"
    return Workload(name, title, make_input, run, oracle, Sizes(lo, 256), bound, _quarter, **kw)


_NETWORK = "Θ(n^1.5 log n) E, Θ(log² n) D"

# one or two lines per workload: the table is data, not formatted code
# fmt: off
#: name -> workload; chaos, conformance and the CLI list them in this order
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("scan", "parallel scan", _uniform_keys, _run_scan, _prefix_oracle,
             Sizes(64, 65536, True), "Θ(n) E, O(log n) D", served="scan", suite="table1_scan"),
    Workload("blocked_scan", "blocked scan (b words per PE)", _normal_keys, _run_blocked_scan,
             _prefix_oracle, Sizes(16, 65536, True), "Θ(n/b) E, Θ(√(n/b)) distance"),
    Workload("select", "rank select", _normal_keys, _run_select, _select_oracle,
             Sizes(64, 16384, True), "Θ(n) E, O(log² n) D w.h.p.",
             served="select", suite="table1_selection"),
    Workload("mergesort", "2D mergesort", _uniform_keys, _run_mergesort, _sorted_oracle,
             Sizes(64, 4096, True), "Θ(n^1.5) E, O(log³ n) D", served="sort",
             suite="table1_sort", suite_params=lambda n: {"side": math.isqrt(n)}),
    _sorter("quicksort", "2D quicksort", _run_quicksort, "Θ(n^1.5) E w.h.p., polylog D"),
    _sorter("bitonic", "bitonic network", _run_bitonic, _NETWORK),
    _sorter("oddeven", "odd-even network", _run_oddeven, _NETWORK),
    _sorter("shearsort", "shearsort (mesh)", _run_shearsort, "Θ(n^1.5 log n) E, Θ(√n log n) D"),
    _sorter("allpairs", "all-pairs rank sort", _run_allpairs, "O(n^2.5) E, O(log n) D", 256),
    _sorter("mergesort_onelevel", "one-level 2D merge over all-pairs leaves",
            _run_mergesort_onelevel, "O(n^2.5) E (all-pairs leaves), O(log² n) D"),
    Workload("merge2d", "2D merge of two sorted runs", _sorted_runs, _run_merge2d,
             _sorted_oracle, Sizes(16, 4096, True), "O(n^1.5) E, O(log² n) D"),
    Workload("spmv", "SpMV", spmv_operands, _run_spmv, _spmv_oracle, Sizes(4, 1024),
             "Θ(m^1.5) E, O(log³ n) D", served="spmv", suite="table1_spmv"),
    Workload("spmv_planned", f"planned SpMV ({SPMV_APPLIES} applies)",
             lambda n, rng: spmv_operands(n, rng, vectors=SPMV_APPLIES), _run_spmv_planned,
             _spmv_oracle, Sizes(4, 1024), "Θ(m^1.5) E once, then O(log n) D per apply"),
    _graph("graph", "connected components", _rmat, _run_cc, _cc_oracle),
    _graph("bfs", "BFS", _rmat, _run_bfs, _bfs_oracle),
    # two rounds at tol=0: a deterministic point
    _graph("pagerank", "PageRank", lambda n, rng: Graph(rmat_coo(n, rng), rounds=2),
           _run_pagerank, _pagerank_oracle, lo=8, served="graph", suite="graph"),
)}
# fmt: on


def names() -> tuple[str, ...]:
    """Every name :func:`lookup` resolves: the entries, then served-only names."""
    return (*WORKLOADS, *(name for name in served() if name not in WORKLOADS))


def lookup(name: str, what: str = "workload") -> Workload:
    """The entry called ``name``, else the one served as ``name``; raise
    ``ValueError`` naming ``what`` and the choices."""
    entry = WORKLOADS.get(name) or served().get(name)
    if entry is None:
        raise ValueError(f"unknown {what} {name!r}; have {', '.join(names())}")
    return entry


def served() -> Mapping[str, Workload]:
    """Served name -> entry, for the service's validation and ``/algos``.

    The served entries are fixed at import, so every call returns the same
    read-only mapping (the service asks on every request)."""
    return _SERVED


_SERVED = MappingProxyType({w.served: w for w in WORKLOADS.values() if w.served})
