"""Differential conformance: fast machine vs the per-call reference oracle.

Every registry workload runs twice per point — once on a
:class:`ReferenceMachine` (the executable specification: scalar sends,
sequential relays) and once on a fast :class:`SpatialMachine` (vectorized
kernels, closed-form charging) — with the same algorithm seed and, for
faulty profiles, identically seeded fault plans.  The fast path is an
optimization, never an approximation: payloads must be bit-identical and
every counter (energy, messages, rounds, max_depth, max_distance, the
per-phase cost tree, the recovery accounting) exactly equal.
"""

import numpy as np
import pytest

from repro.machine import Region, ReferenceMachine, SpatialMachine
from repro.runner.chaos import run_entry
from repro.runner.conformance import (
    CONFORMANCE_PROFILES,
    conformance_plan,
    diff_point,
    run_conformance_pair,
    run_conformance_point,
)
from repro.workloads import WORKLOADS

SIDE = 8
SEEDS = (0, 1, 2)
#: the ISSUE's acceptance grid; ``mixed`` is exercised separately (1 seed)
#: to keep the suite's wall-clock in check.
CORE_PROFILES = ("clean", "drops", "corruption", "dead")


class TestConformanceGrid:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("profile", CORE_PROFILES)
    @pytest.mark.parametrize("algo", sorted(WORKLOADS))
    def test_point(self, algo, profile, seed):
        report = run_conformance_point(algo, profile, side=SIDE, seed=seed)
        assert report["conformant"], diff_point(report)

    @pytest.mark.parametrize("algo", sorted(WORKLOADS))
    def test_mixed_profile(self, algo):
        report = run_conformance_point(algo, "mixed", side=SIDE, seed=0)
        assert report["conformant"], diff_point(report)


class TestConformanceHarness:
    def test_profiles_cover_clean_and_all_chaos(self):
        assert CONFORMANCE_PROFILES == ("clean", "drops", "corruption", "dead", "mixed")

    def test_clean_profile_has_no_plan(self):
        assert conformance_plan("clean", 7, SIDE) is None
        assert conformance_plan("drops", 7, SIDE) is not None

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="unknown conformance algo"):
            run_conformance_point("nope", "clean")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown conformance profile"):
            run_conformance_point("scan", "nope")

    def test_pair_returns_both_machines(self):
        report, ref_m, fast_m = run_conformance_pair("scan", "clean", side=4)
        assert isinstance(ref_m, ReferenceMachine) and not ref_m.fast
        assert isinstance(fast_m, SpatialMachine) and fast_m.fast
        assert report["conformant"]

    def test_report_is_json_friendly(self):
        import json

        report = run_conformance_point("scan", "drops", side=4)
        json.dumps(report)

    def test_diff_point_names_divergent_counters(self):
        report = run_conformance_point("scan", "clean", side=4)
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
