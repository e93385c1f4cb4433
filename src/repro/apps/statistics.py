"""Order statistics on the spatial machine — the Section VI motivation.

The paper motivates rank selection with nonparametric statistics.  These
helpers compose the Section VI primitive into the estimators a statistics
workload actually needs, all at Θ(n) energy and polylog depth per query:

* :func:`quantile` — the q-quantile (nearest-rank definition);
* :func:`median` / :func:`interquartile_range`;
* :func:`trimmed_mean` — select the two trim cut points, then one masked
  all-reduce for the sum and count of the surviving elements;
* :func:`median_absolute_deviation` — two chained selections (median of the
  values, then median of |x - median|, with the deviations computed locally
  after a broadcast of the first median).
"""

from __future__ import annotations

import numpy as np

from ..core.collectives import all_reduce, broadcast_onto
from ..core.ops import ADD
from ..core.selection import rank_select
from ..machine.geometry import Region
from ..machine.machine import SpatialMachine, TrackedArray

__all__ = [
    "quantile",
    "median",
    "interquartile_range",
    "trimmed_mean",
    "median_absolute_deviation",
    "top_k",
]


def _rank_for(q: float, n: int) -> int:
    """Nearest-rank definition: smallest k with k/n >= q."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    return max(1, int(np.ceil(q * n)))


def quantile(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    q: float,
    rng: np.random.Generator,
) -> float:
    """The q-quantile of ``ta`` (Z-order placed) via rank selection."""
    n = len(ta)
    res = rank_select(machine, ta, region, _rank_for(q, n), rng)
    return res.value


def median(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    rng: np.random.Generator,
) -> float:
    return quantile(machine, ta, region, 0.5, rng)


def interquartile_range(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    rng: np.random.Generator,
) -> float:
    """Q3 - Q1, two independent selections."""
    q1 = quantile(machine, ta, region, 0.25, rng)
    q3 = quantile(machine, ta, region, 0.75, rng)
    return q3 - q1


def trimmed_mean(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    trim: float,
    rng: np.random.Generator,
) -> float:
    """Mean of the values with the lowest/highest ``trim`` fraction removed.

    Two selections find the cut values; a broadcast ships them to every cell;
    one all-reduce accumulates (sum, count) of the kept elements.  Elements
    tied with a cut value are kept (value-based trimming).
    """
    if not 0.0 <= trim < 0.5:
        raise ValueError(f"trim must be in [0, 0.5), got {trim}")
    n = len(ta)
    lo_k = max(1, int(np.floor(trim * n)) + 1)
    hi_k = min(n, n - int(np.floor(trim * n)))
    lo = rank_select(machine, ta, region, lo_k, rng).value
    hi = rank_select(machine, ta, region, hi_k, rng).value

    cuts = machine.place(np.array([[lo, hi]]), [region.row], [region.col])
    ta = broadcast_onto(machine, cuts, region, ta)

    vals = ta.payload.reshape(n, -1)[:, 0]
    keep = (vals >= lo) & (vals <= hi)
    acc = ta.with_payload(np.stack([np.where(keep, vals, 0.0), keep.astype(np.float64)], axis=1))
    totals = all_reduce(machine, acc, region, ADD)
    total, count = totals.payload[0]
    if count == 0:
        raise ValueError("trim removed every element")
    return float(total / count)


def median_absolute_deviation(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    rng: np.random.Generator,
) -> float:
    """MAD = median(|x - median(x)|): two chained selections."""
    n = len(ta)
    med = median(machine, ta, region, rng)
    center = machine.place(np.array([med]), [region.row], [region.col])
    ta = broadcast_onto(machine, center, region, ta)
    vals = ta.payload.reshape(n, -1)[:, 0]
    deviations = ta.with_payload(np.abs(vals - med))
    return median(machine, deviations, region, rng)


def top_k(
    machine: SpatialMachine,
    ta: TrackedArray,
    region: Region,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The ``k`` largest values, descending — selection + gather, no sort.

    One rank selection finds the cut value (Θ(n) energy), a broadcast ships
    it, and :func:`repro.core.gather.gather_masked` compacts the qualifying
    elements into a staging square; ties at the cut are resolved by
    Z-position so exactly ``k`` elements move.  Only the final
    ``O(k log k)``-size ordering happens off the critical Θ(n) path (here:
    locally, the gathered set being a compact O(k) region).
    """
    from ..core.gather import gather_masked
    from ..core.scan import scan

    n = len(ta)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    cut = rank_select(machine, ta, region, n - k + 1, rng).value
    cut_ta = machine.place(np.array([cut]), [region.row], [region.col])
    ta = broadcast_onto(machine, cut_ta, region, ta)

    vals = ta.payload.reshape(n, -1)[:, 0]
    above = vals > cut
    tied = vals == cut
    # rank ties by Z-position with a scan, keep just enough of them
    tie_scan = scan(machine, ta.with_payload(tied.astype(np.float64)), region, ADD)
    need = k - int(above.sum())
    keep = above | (tied & (tie_scan.inclusive.payload <= need))
    ta = ta.depending_on(tie_scan.inclusive)
    gathered = gather_masked(machine, ta.with_payload(vals), keep, region)
    return np.sort(gathered.payload)[::-1].copy()
