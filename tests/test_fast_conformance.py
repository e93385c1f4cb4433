"""Differential conformance: fast machine vs the per-call reference oracle.

Every registry workload runs twice per point with the same algorithm seed.
A ``clean`` point is the differential proper: a :class:`ReferenceMachine`
(the executable specification: loops of sends and relays, the depth-first
bodies) against a clean fast :class:`SpatialMachine` (batched bodies,
closed-form charging).  The batched bodies are an optimization, never an
approximation: payloads must be bit-identical and every counter (energy,
messages, rounds, max_depth, max_distance, the per-phase cost tree)
exactly equal.

A faulted point (the chaos harness's profiles) has no batched body to
compare: a fault-injecting plan keeps every machine on the depth-first
bodies.  It pins instead that one seeded plan gives one run, strict or
not — a strict :class:`SpatialMachine` and a non-strict
:class:`ReferenceMachine` with identically seeded plans agree on payload
bytes, counters, cost tree and the :class:`RecoveryStats` accounting, and
both outputs pass the entry's host oracle.
"""

import numpy as np
import pytest

from repro.machine import Region, ReferenceMachine, SpatialMachine
from repro.runner.chaos import chaos_plan, run_entry
from repro.runner.conformance import (
    diff_point,
    run_conformance_pair,
    run_conformance_point,
)
from repro.workloads import WORKLOADS

SIDE = 8
SEEDS = (0, 1, 2)
#: ``mixed`` is exercised separately (1 seed) to keep the suite's
#: wall-clock in check.
CORE_PROFILES = ("clean", "drops", "corruption", "dead")


def assert_faulted_runs_agree(algo, profile, seed):
    """A strict and a non-strict machine, each with its own identically
    seeded ``profile`` plan, give the same run: strict validation charges
    nothing and draws no fault sample."""
    runs = []
    for m in (
        SpatialMachine(strict=True, faults=chaos_plan(profile, seed + 1_000_003, SIDE)),
        ReferenceMachine(strict=False, faults=chaos_plan(profile, seed + 1_000_003, SIDE)),
    ):
        out = np.asarray(run_entry(WORKLOADS[algo], m, SIDE, seed))
        runs.append({
            "payload": (out.shape, out.dtype, out.tobytes()),
            "stats": m.stats,
            "cost_tree": m.cost_tree.as_dict(),
            "recovery": m.recovery.as_dict(),
        })
    strict, loose = runs
    for key in strict:
        assert strict[key] == loose[key], f"{algo}/{profile}/seed={seed}: {key} differs"


class TestConformanceGrid:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("profile", CORE_PROFILES)
    @pytest.mark.parametrize("algo", sorted(WORKLOADS))
    def test_point(self, algo, profile, seed):
        if profile == "clean":
            report = run_conformance_point(algo, side=SIDE, seed=seed)
            assert report["conformant"], diff_point(report)
        else:
            assert_faulted_runs_agree(algo, profile, seed)

    @pytest.mark.parametrize("algo", sorted(WORKLOADS))
    def test_mixed_profile(self, algo):
        assert_faulted_runs_agree(algo, "mixed", 0)


class TestConformanceHarness:
    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="unknown conformance algo"):
            run_conformance_point("nope")

    def test_pair_returns_both_machines(self):
        report, ref_m, fast_m = run_conformance_pair("scan", side=4)
        assert isinstance(ref_m, ReferenceMachine) and not ref_m.fast
        assert isinstance(fast_m, SpatialMachine) and fast_m.fast
        assert report["conformant"]

    def test_report_is_json_friendly(self):
        import json

        report = run_conformance_point("scan", side=4)
        json.dumps(report)

    def test_diff_point_names_divergent_counters(self):
        report = run_conformance_point("scan", side=4)
        report["conformant"] = False
        report["stats_equal"] = False
        report["fast_stats"] = dict(report["fast_stats"], energy=0)
        msg = diff_point(report)
        assert "stats differ" in msg and "energy" in msg

    def test_oracle_actually_detects_drift(self):
        """A deliberately perturbed fast run must fail the comparison —
        guards against the harness comparing a machine against itself."""
        ref_m = ReferenceMachine()
        run_entry(WORKLOADS["scan"], ref_m, SIDE, 0)
        fast_m = SpatialMachine(fast=True, strict=False)
        run_entry(WORKLOADS["scan"], fast_m, SIDE, 0)
        fast_m.stats.energy += 1
        assert ref_m.stats != fast_m.stats

    def test_fast_machine_takes_fast_paths(self):
        """The differential is only meaningful if the fast machine really
        executes the vectorized kernels: the clean-fast guard must hold."""
        m = SpatialMachine(fast=True, strict=False)
        assert m.fast and not m.strict and m.tracer is None and m.profiler is None

    def test_reference_machine_pins_reference_even_if_env_says_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_REFERENCE", raising=False)
        assert not ReferenceMachine().fast
        assert SpatialMachine().fast


class TestFastReferenceDuality:
    """Spot-checks of the machine-level duality outside the algo runners."""

    def test_env_flag_resolves_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        assert not SpatialMachine().fast
        monkeypatch.setenv("REPRO_REFERENCE", "0")
        assert SpatialMachine().fast

    def test_explicit_fast_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        assert SpatialMachine(fast=True).fast

    def test_strict_machine_matches_reference_counters(self):
        """Strict mode forces reference paths; its counters must equal the
        ReferenceMachine's (validation never changes accounting)."""
        from repro.core.scan import scan

        region = Region(0, 0, SIDE, SIDE)
        x = np.random.default_rng(3).random(SIDE * SIDE)
        ms = SpatialMachine(fast=True, strict=True)
        scan(ms, ms.place_zorder(x, region), region)
        mr = ReferenceMachine()
        scan(mr, mr.place_zorder(x, region), region)
        assert ms.stats == mr.stats
