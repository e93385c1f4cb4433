"""Chaos harness: every registry workload under seeded fault plans.

Each chaos point runs one :mod:`repro.workloads` entry **twice with the same
input seed** — once on a pristine machine and once under a
:class:`~repro.machine.FaultPlan` — checks both outputs with the entry's host
oracle, then checks that they are bit-identical and reports the cost of
surviving: energy/depth inflation factors and the recovery accounting
(retries, detours, sparing) that explains them.  A ``side x side`` working
set runs each entry at its ``harness_n(side)``.

Recovery in the simulator is *result-transparent* by construction (dropped
and corrupted messages are re-sent, dead cells are spared deterministically),
so a mismatch here means a bug in the fault layer, not an expected outcome;
the chaos suite and ``repro chaos`` both treat it as a hard failure.

Profiles are small named fault grids (see :data:`CHAOS_PROFILES`):

``drops``       5% per-attempt message drop probability
``corruption``  5% per-attempt payload corruption (detected + NACK + resend)
``dead``        a dead square of side ``max(1, side // 4)`` at (1, 1)
``mixed``       3% drops + 2% corruption + the dead square
"""

from __future__ import annotations

import numpy as np

from .. import workloads
from ..machine import RECOVERY_PHASE, FaultPlan, Region, SpatialMachine

__all__ = [
    "CHAOS_PROFILES",
    "chaos_plan",
    "run_entry",
    "run_chaos_pair",
    "run_chaos_point",
    "run_chaos_grid",
]


def run_entry(entry: workloads.Workload, machine: SpatialMachine, side: int, seed: int):
    """One oracle-checked run of a registry entry sized for a ``side x side``
    working set; returns the host output values."""
    inp = entry.make_input(entry.harness_n(side), np.random.default_rng(seed))
    return entry.execute(machine, inp).values


#: profile name -> kwargs template (dead regions are side-dependent, so they
#: are materialized by :func:`chaos_plan`).
CHAOS_PROFILES: tuple[str, ...] = ("drops", "corruption", "dead", "mixed")


def chaos_plan(profile: str, plan_seed: int, side: int) -> FaultPlan:
    """Materialize one named fault profile for a ``side x side`` working set."""
    d = max(1, side // 4)
    dead = (Region(1, 1, d, d),)
    if profile == "drops":
        return FaultPlan.seeded(plan_seed, drop_prob=0.05)
    if profile == "corruption":
        return FaultPlan.seeded(plan_seed, corrupt_prob=0.05)
    if profile == "dead":
        return FaultPlan.seeded(plan_seed, dead_regions=dead)
    if profile == "mixed":
        return FaultPlan.seeded(plan_seed, drop_prob=0.03, corrupt_prob=0.02, dead_regions=dead)
    raise ValueError(f"unknown chaos profile {profile!r}; have {', '.join(CHAOS_PROFILES)}")


# ---------------------------------------------------------------------------
# point execution
# ---------------------------------------------------------------------------
def run_chaos_pair(
    algo: str,
    profile: str,
    side: int = 8,
    seed: int = 0,
    plan_seed: int | None = None,
) -> tuple[dict, SpatialMachine, SpatialMachine]:
    """Run ``algo`` clean and under ``profile``; return (report, clean machine,
    faulty machine).  Both runs use the same algorithm generator seed so any
    internal randomness (quicksort splitters, selection samples) matches."""
    entry = workloads.lookup(algo, "chaos algo")
    if plan_seed is None:
        plan_seed = seed + 1_000_003

    clean_m = SpatialMachine()
    clean = run_entry(entry, clean_m, side, seed)

    plan = chaos_plan(profile, plan_seed, side)
    faulty_m = SpatialMachine(faults=plan)
    faulty = run_entry(entry, faulty_m, side, seed)

    cs, fs = clean_m.stats, faulty_m.stats
    report = {
        "algo": algo,
        "profile": profile,
        "side": side,
        "seed": seed,
        "plan_seed": plan_seed,
        "plan": plan.describe(),
        "exact_match": bool(np.array_equal(clean, faulty)),
        "clean_energy": int(cs.energy),
        "faulty_energy": int(fs.energy),
        "clean_max_depth": int(cs.max_depth),
        "faulty_max_depth": int(fs.max_depth),
        "energy_inflation": (fs.energy / cs.energy) if cs.energy else 1.0,
        "depth_inflation": (fs.max_depth / cs.max_depth) if cs.max_depth else 1.0,
        "recovery": faulty_m.recovery.as_dict(),
        "recovery_phase_energy": int(faulty_m.cost_tree.root.child(RECOVERY_PHASE).energy),
    }
    return report, clean_m, faulty_m


def run_chaos_point(
    algo: str,
    profile: str,
    side: int = 8,
    seed: int = 0,
    plan_seed: int | None = None,
) -> dict:
    """JSON-friendly chaos report for one (algo, profile) point."""
    report, _, _ = run_chaos_pair(algo, profile, side, seed, plan_seed)
    return report


def run_chaos_grid(
    algos: list[str] | None = None,
    profiles: list[str] | None = None,
    side: int = 8,
    seeds: tuple[int, ...] = (0,),
) -> list[dict]:
    """Cross (algos x profiles x seeds); returns one report per point.

    ``algos`` defaults to every registry entry."""
    out = []
    for algo in algos or list(workloads.WORKLOADS):
        for profile in profiles or list(CHAOS_PROFILES):
            for seed in seeds:
                out.append(run_chaos_point(algo, profile, side, seed))
    return out
