"""Differential conformance: the batched bodies against the reference oracle.

Every conformance point runs one :mod:`repro.workloads` entry **twice with
the same input seed** and no fault plan — once on a
:class:`ReferenceMachine` (loops of ``send`` and ``relay`` calls and the
depth-first bodies, the executable specification) and once on a clean fast
:class:`SpatialMachine` (batched bodies, closed-form charging) — and
demands *exact* agreement:

- **payloads** bit-identical (``tobytes()``), same shape and dtype, and
  each one accepted by the entry's host oracle;
- **counters** exactly equal: :class:`MachineStats` (energy, messages,
  rounds, max_depth, max_distance) and the per-phase :class:`CostTree`.

The batched bodies are an *optimization*, never an approximation, so any
drift — even one energy unit — is a hard failure.

The differential is fault-free.  A fault-injecting plan keeps a machine off
:attr:`~SpatialMachine.clean_fast`, so under faults both machines would run
the same depth-first bodies.  Faulted runs are checked by the chaos harness
(:mod:`repro.runner.chaos`: host oracles and bit-identical results under
every profile), and the faulted points of ``tests/test_fast_conformance.py``
pin that each entry's faulted run is deterministic and independent of
strict mode.

Strict mode interacts asymmetrically: ``REPRO_STRICT=1`` (or
``strict=True``) keeps a machine off the batched bodies, so a "strict fast"
machine would silently compare the oracle against itself.  The harness
therefore lets the reference machine inherit the ambient strict flag (extra
validation on the specification side costs nothing) but pins the fast
machine to ``strict=False`` so the batched bodies genuinely execute — this
keeps the differential meaningful even in a ``REPRO_STRICT=1`` CI job.
Strict validation never changes accounting, so counters remain comparable.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .. import workloads
from ..machine import ReferenceMachine, SpatialMachine
from .chaos import run_entry

__all__ = [
    "run_conformance_pair",
    "run_conformance_point",
    "run_conformance_grid",
]


def _payload_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def run_conformance_pair(
    algo: str, side: int = 8, seed: int = 0
) -> tuple[dict, SpatialMachine, SpatialMachine]:
    """Run ``algo`` on the reference oracle and on the fast machine, both
    with input seed ``seed``; return (report, reference machine, fast
    machine)."""
    entry = workloads.lookup(algo, "conformance algo")
    ref_m = ReferenceMachine()
    ref = run_entry(entry, ref_m, side, seed)
    fast_m = SpatialMachine(fast=True, strict=False)
    fast = run_entry(entry, fast_m, side, seed)

    checks = {
        "payload_equal": _payload_equal(np.asarray(ref), np.asarray(fast)),
        "stats_equal": ref_m.stats == fast_m.stats,
        "cost_tree_equal": ref_m.cost_tree.as_dict() == fast_m.cost_tree.as_dict(),
    }
    report = {
        "algo": algo,
        "side": side,
        "seed": seed,
        **checks,
        "conformant": all(checks.values()),
        "ref_stats": asdict(ref_m.stats),
        "fast_stats": asdict(fast_m.stats),
    }
    return report, ref_m, fast_m


def run_conformance_point(algo: str, side: int = 8, seed: int = 0) -> dict:
    """JSON-friendly conformance report for one (algo, seed) point."""
    report, _, _ = run_conformance_pair(algo, side, seed)
    return report


def run_conformance_grid(
    algos: list[str] | None = None,
    side: int = 8,
    seeds: tuple[int, ...] = (0,),
) -> list[dict]:
    """Cross (algos x seeds); returns one report per point.

    ``algos`` defaults to every registry entry."""
    return [
        run_conformance_point(algo, side, seed)
        for algo in algos or list(workloads.WORKLOADS)
        for seed in seeds
    ]


def diff_point(report: dict) -> str:
    """Human-readable first-divergence summary for a failed point."""
    if report["conformant"]:
        return "conformant"
    parts = []
    if not report["payload_equal"]:
        parts.append("payload bytes differ")
    if not report["stats_equal"]:
        rs, fs = report["ref_stats"], report["fast_stats"]
        deltas = {k: (rs[k], fs[k]) for k in rs if rs[k] != fs.get(k)}
        parts.append(f"stats differ: {deltas}")
    if not report["cost_tree_equal"]:
        parts.append("cost tree differs")
    return "; ".join(parts)
