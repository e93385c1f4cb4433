"""Differential conformance: the fast machine against the reference oracle.

Every conformance point runs one :mod:`repro.workloads` entry **twice with
the same input seed and the same fault-plan seed** — once on a
:class:`ReferenceMachine` (loops of ``send`` and ``relay`` calls and the
depth-first bodies, the executable specification) and once on a fast
:class:`SpatialMachine` (batched kernels, closed-form charging) — and
demands *exact* agreement:

- **payloads** bit-identical (``tobytes()``), same shape and dtype, and
  each one accepted by the entry's host oracle;
- **counters** exactly equal: :class:`MachineStats` (energy, messages,
  rounds, max_depth, max_distance), the per-phase :class:`CostTree`, and
  the :class:`RecoveryStats` fault accounting.

The fast path is an *optimization*, never an approximation, so any drift —
even one energy unit — is a hard failure.

Profiles extend the chaos grid with a fault-free point (see
:data:`CONFORMANCE_PROFILES`): ``clean`` runs without a fault plan; the
rest reuse :func:`~repro.runner.chaos.chaos_plan` with identically seeded
plans on both machines.  A fault-injecting plan sends the fast machine to
the reference bodies too, so those profiles compare one body with itself:
they still run every host oracle under faults and pin determinism.

Strict mode interacts asymmetrically: ``REPRO_STRICT=1`` (or
``strict=True``) forces the reference path, so a "strict fast" machine
would silently compare the oracle against itself.  The harness therefore
lets the reference machine inherit the ambient strict flag (extra
validation on the specification side costs nothing) but pins the fast
machine to ``strict=False`` so the vectorized kernels genuinely execute —
this keeps the differential meaningful even in a ``REPRO_STRICT=1`` CI job.
Strict validation never changes accounting, so counters remain comparable.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .. import workloads
from ..machine import FaultPlan, ReferenceMachine, SpatialMachine
from .chaos import chaos_plan, run_entry

__all__ = [
    "CONFORMANCE_PROFILES",
    "conformance_plan",
    "run_conformance_pair",
    "run_conformance_point",
    "run_conformance_grid",
]

#: ``clean`` plus the seeded fault profiles of the chaos harness.
CONFORMANCE_PROFILES: tuple[str, ...] = ("clean", "drops", "corruption", "dead", "mixed")


def conformance_plan(profile: str, plan_seed: int, side: int) -> FaultPlan | None:
    """Materialize one conformance profile; ``clean`` means no plan at all."""
    if profile == "clean":
        return None
    return chaos_plan(profile, plan_seed, side)


def _payload_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def run_conformance_pair(
    algo: str,
    profile: str,
    side: int = 8,
    seed: int = 0,
    plan_seed: int | None = None,
) -> tuple[dict, SpatialMachine, SpatialMachine]:
    """Run ``algo`` on the reference oracle and on the fast machine; return
    (report, reference machine, fast machine).

    Both runs use the same algorithm generator seed and — for faulty
    profiles — identically seeded :class:`FaultPlan` instances, so the
    failure streams both machines must recover from are the same.
    """
    entry = workloads.lookup(algo, "conformance algo")
    if profile not in CONFORMANCE_PROFILES:
        raise ValueError(
            f"unknown conformance profile {profile!r}; "
            f"have {', '.join(CONFORMANCE_PROFILES)}"
        )
    if plan_seed is None:
        plan_seed = seed + 1_000_003

    # two separately constructed (but identically seeded) plans: a FaultPlan
    # carries its own rng stream, which each run advances
    ref_m = ReferenceMachine(faults=conformance_plan(profile, plan_seed, side))
    ref = run_entry(entry, ref_m, side, seed)

    fast_m = SpatialMachine(
        fast=True, strict=False, faults=conformance_plan(profile, plan_seed, side)
    )
    fast = run_entry(entry, fast_m, side, seed)

    checks = {
        "payload_equal": _payload_equal(np.asarray(ref), np.asarray(fast)),
        "stats_equal": ref_m.stats == fast_m.stats,
        "cost_tree_equal": ref_m.cost_tree.as_dict() == fast_m.cost_tree.as_dict(),
        "recovery_equal": ref_m.recovery.as_dict() == fast_m.recovery.as_dict(),
    }
    report = {
        "algo": algo,
        "profile": profile,
        "side": side,
        "seed": seed,
        "plan_seed": plan_seed,
        **checks,
        "conformant": all(checks.values()),
        "ref_stats": asdict(ref_m.stats),
        "fast_stats": asdict(fast_m.stats),
        "ref_recovery": ref_m.recovery.as_dict(),
        "fast_recovery": fast_m.recovery.as_dict(),
    }
    return report, ref_m, fast_m


def run_conformance_point(
    algo: str,
    profile: str,
    side: int = 8,
    seed: int = 0,
    plan_seed: int | None = None,
) -> dict:
    """JSON-friendly conformance report for one (algo, profile, seed) point."""
    report, _, _ = run_conformance_pair(algo, profile, side, seed, plan_seed)
    return report


def run_conformance_grid(
    algos: list[str] | None = None,
    profiles: list[str] | None = None,
    side: int = 8,
    seeds: tuple[int, ...] = (0,),
) -> list[dict]:
    """Cross (algos x profiles x seeds); returns one report per point.

    ``algos`` defaults to every registry entry."""
    out = []
    for algo in algos or list(workloads.WORKLOADS):
        for profile in profiles or list(CONFORMANCE_PROFILES):
            for seed in seeds:
                out.append(run_conformance_point(algo, profile, side, seed))
    return out


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
    if not report["recovery_equal"]:
        parts.append(
            f"recovery differs: ref={report['ref_recovery']} "
            f"fast={report['fast_recovery']}"
        )
    return "; ".join(parts)
