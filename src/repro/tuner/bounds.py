"""Admissible per-configuration lower bounds for the analytic pruner.

Every bound here is *admissible relative to its configuration*: for each
metric in {energy, max_depth, edp}, ``config_bounds(config, n, seed)``
never exceeds what actually executing that configuration measures.  That is
the whole pruning contract — a configuration whose bound already beats the
incumbent's *measured* value can be discarded without simulation, and the
pruned search provably returns the same argmin as brute force (see
``docs/TUNER.md`` and the hypothesis suite in
``tests/test_tuner_properties.py``).

The bound families:

* **relayout displacement** — the adapter send from the arrival layout to
  the variant's native layout is a concrete charged message batch; its
  Manhattan displacement sum is exact, not a bound.
* **displacement-to-sorted** (every sorter) — a correct sort must move the
  element at row-major cell ``i`` to cell ``rank(i)``; no routing beats the
  Manhattan displacement sum (:func:`displacement_lower_bound`, Lemma V.1's
  per-instance sharpening).
* **oblivious network wiring** (bitonic, odd-even) — the comparator
  networks send every wire on every stage regardless of data, so their
  stage-distance sums are closed-form and *exact*; depth is the stage
  count.  The bitonic figures are the sorter's own per-shape table
  (:func:`repro.core.sorting.bitonic.network_cost`).
* **combining floors** (scan, all-pairs) — combining ``k`` values takes at
  least ``k - 1`` unit-energy messages; a broadcast reaching ``k`` distinct
  cells costs at least ``k - 1``; a constant fan-in combine tree over ``n``
  values is at least ``ceil(log4 n)`` deep.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.sorting.bitonic import network_cost
from ..machine.geometry import Region, manhattan_arrays
from .space import TuneConfig
from .variants import SPMV_ITERS, get_variant, layout_coords, sort_workload

__all__ = [
    "TUNE_METRICS",
    "metric_value",
    "relayout_energy",
    "displacement_to_sorted",
    "oddeven_network_energy",
    "oddeven_stage_count",
    "allpairs_scatter_energy",
    "is_dominated",
    "config_bounds",
]

#: metrics the tuner optimizes; ``edp`` is the energy-depth product
TUNE_METRICS = ("energy", "max_depth", "edp")


def metric_value(metrics: dict, metric: str) -> int:
    """Extract one objective from a measured ``metrics`` dict."""
    if metric == "edp":
        return int(metrics["energy"]) * int(metrics["max_depth"])
    if metric not in TUNE_METRICS:
        raise ValueError(f"unknown tuning metric {metric!r}; known: {', '.join(TUNE_METRICS)}")
    return int(metrics[metric])


def _sort_region(n: int) -> Region:
    return Region(0, 0, math.isqrt(n), math.isqrt(n))


def _coord_displacement(a: tuple, b: tuple) -> int:
    return int(manhattan_arrays(a[0], a[1], b[0], b[1]).sum())


def relayout_energy(layout: str, native: str, region: Region, n: int) -> int:
    """Exact energy of the adapter send from ``layout`` to ``native``."""
    if layout == native:
        return 0
    return _coord_displacement(
        layout_coords(layout, region, n), layout_coords(native, region, n)
    )


def displacement_to_sorted(x: np.ndarray, region: Region) -> int:
    """Manhattan floor for moving row-major cell ``i`` to cell ``rank(i)``."""
    n = len(x)
    perm = np.empty(n, dtype=np.int64)
    perm[np.argsort(x, kind="stable")] = np.arange(n, dtype=np.int64)
    rows, cols = region.rowmajor_coords(n)
    return int(manhattan_arrays(rows, cols, rows[perm], cols[perm]).sum())


def _log2(n: int) -> int:
    return int(n).bit_length() - 1


def _log4_ceil(n: int) -> int:
    return (max(_log2(n), 0) + 1) // 2


def oddeven_network_energy(n: int, region: Region) -> int:
    """Exact wire energy of the odd-even merge network (paired exchanges)."""
    from ..core.sorting.odd_even import odd_even_stages

    rows, cols = region.rowmajor_coords(n)
    total = 0
    for stage in odd_even_stages(n):
        lo = np.asarray([p[0] for p in stage], dtype=np.int64)
        hi = np.asarray([p[1] for p in stage], dtype=np.int64)
        total += 2 * int(manhattan_arrays(rows[lo], cols[lo], rows[hi], cols[hi]).sum())
    return total


def oddeven_stage_count(n: int) -> int:
    from ..core.sorting.odd_even import odd_even_stages

    return len(odd_even_stages(n))


def allpairs_scatter_energy(n: int, region: Region) -> int:
    """Exact energy of the all-pairs scatter to subgrid corners."""
    s = math.isqrt(n)
    rows, cols = region.rowmajor_coords(n)
    i = np.arange(n, dtype=np.int64)
    dest_rows = (i // s) * s + region.row
    dest_cols = (i % s) * s + region.col
    return int(manhattan_arrays(rows, cols, dest_rows, dest_cols).sum())


def is_dominated(config: TuneConfig) -> bool:
    """True when the configuration is analytically dominated.

    With adapter semantics, a non-native arrival layout measures exactly the
    native run plus the charged relayout on energy, and at least the native
    run on depth (per-element metadata is monotone under the extra send) —
    so it can never beat the native configuration, which the search space
    enumerates first.
    """
    variant = get_variant(config.algo_class, config.variant)
    return config.layout != variant.native_layout


def config_bounds(config: TuneConfig, n: int, seed: int = 0) -> dict:
    """Admissible ``{energy, max_depth, edp}`` floors for one configuration."""
    if config.algo_class == "sort":
        region = _sort_region(n)
        relayout = relayout_energy(config.layout, "rowmajor", region, n)
        x = sort_workload(n, np.random.default_rng(seed))
        disp = displacement_to_sorted(x, region)
        if config.variant == "bitonic":
            network_energy, depth = network_cost(n, region.width)
            energy = relayout + max(disp, network_energy)
        elif config.variant == "oddeven":
            energy = relayout + max(disp, oddeven_network_energy(n, region))
            depth = oddeven_stage_count(n)
        elif config.variant == "shearsort":
            energy = relayout + disp
            depth = region.width
        elif config.variant == "allpairs":
            # two replication broadcasts deliver every element to >= n-1
            # distinct cells each, after the exact corner scatter
            energy = relayout + max(disp, allpairs_scatter_energy(n, region) + 2 * n * (n - 1))
            depth = _log4_ceil(n) + 1
        else:  # mergesort / quicksort / merge2d: data-dependent routing
            energy = relayout + disp
            depth = _log4_ceil(n) + 1
    elif config.algo_class == "scan":
        if config.variant == "blocked":
            nblocks = n // int(config.block)
            energy = max(0, nblocks - 1)
            depth = _log4_ceil(nblocks) if nblocks > 1 else 0
        else:
            region = _sort_region(n)
            energy = relayout_energy(config.layout, "zorder", region, n) + (n - 1)
            depth = _log4_ceil(n) + 1
    elif config.algo_class == "spmv":
        # every one of the 4n entries must be touched at least once; depth
        # floors at a single combine hop
        energy = 4 * n
        depth = 1
        if config.variant == "direct":
            energy = SPMV_ITERS * 4 * n
    else:
        raise ValueError(f"no bounds for algo class {config.algo_class!r}")
    return {"energy": int(energy), "max_depth": int(depth), "edp": int(energy) * int(depth)}
