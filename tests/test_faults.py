"""Fault injection, recovery accounting, and strict model validation.

The acceptance bar (ISSUE 3): every primitive returns bit-identical results
under at least three distinct seeded fault plans per fault class, recovery
costs surface as a top-level ``recovery`` phase of the CostTree, energy
inflation stays a constant factor, and strict mode rejects programs that
violate the model's O(1) word budget.
"""

import numpy as np
import pytest

from repro.core.scan import scan
from repro.machine import (
    RECOVERY_PHASE,
    FaultConfigError,
    FaultPlan,
    ModelViolation,
    Region,
    SpatialMachine,
)
from repro.machine.faults import (
    backoff_ticks,
    detour_extras,
    resolve_spares,
    sample_failures,
    spare_extras,
)
from repro.runner.chaos import CHAOS_PROFILES, run_chaos_pair, run_entry
from repro.workloads import WORKLOADS

SEEDS = (0, 1, 2)  # three distinct fault-plan seeds per profile


# ---------------------------------------------------------------------------
# bit-identical results + bounded inflation, every primitive x plan x seed
# ---------------------------------------------------------------------------
class TestRecoveryTransparency:
    @pytest.mark.parametrize("algo", sorted(WORKLOADS))
    @pytest.mark.parametrize("profile", CHAOS_PROFILES)
    def test_bit_identical_and_bounded(self, algo, profile):
        for seed in SEEDS:
            r, clean_m, faulty_m = run_chaos_pair(algo, profile, side=4, seed=seed)
            assert r["exact_match"], (
                f"{algo} under {profile} (seed {seed}) diverged from fault-free run"
            )
            # recovery is a constant-factor tax, never an asymptotic change
            assert r["energy_inflation"] < 3.0
            assert r["depth_inflation"] < 3.0
            # the flat counters and the cost tree must agree under faults too
            tot = faulty_m.cost_tree.total()
            assert tot.energy == faulty_m.stats.energy
            assert tot.messages == faulty_m.stats.messages
            # the recovery phase carries exactly the retry + detour energy
            node = faulty_m.cost_tree.node(RECOVERY_PHASE)
            rec = faulty_m.recovery
            if rec.total_recovery_energy:
                assert node is not None
                assert node.energy == rec.total_recovery_energy

    @pytest.mark.parametrize("algo", ("spmv", "mergesort", "allpairs", "quicksort"))
    @pytest.mark.parametrize("profile", ("dead", "mixed"))
    def test_side8_dead_regions(self, algo, profile):
        """Regression: at side=8 the dead region is 2x2, and sparing that
        rewrote delivered coordinates broke coordinate-arithmetic regrouping
        inside the All-Pairs Sort ("replication/broadcast cell mismatch").
        Address-transparent sparing keeps logical coordinates intact."""
        r, _, faulty_m = run_chaos_pair(algo, profile, side=8, seed=0)
        assert r["exact_match"], f"{algo} under {profile} diverged at side=8"
        assert r["energy_inflation"] < 3.0
        tot = faulty_m.cost_tree.total()
        assert tot.energy == faulty_m.stats.energy

    def test_faults_actually_fire(self):
        """The sweep above is vacuous if no plan ever injects anything."""
        fired = {"retries": 0, "detoured": 0, "spared": 0, "corrupted": 0, "dropped": 0}
        for profile in CHAOS_PROFILES:
            for seed in SEEDS:
                r, _, m = run_chaos_pair("select", profile, side=4, seed=seed)
                for k in fired:
                    fired[k] += r["recovery"][k]
        assert all(v > 0 for v in fired.values()), fired

    def test_deterministic_costs(self):
        a, _, ma = run_chaos_pair("mergesort", "mixed", side=4, seed=3)
        b, _, mb = run_chaos_pair("mergesort", "mixed", side=4, seed=3)
        assert a["faulty_energy"] == b["faulty_energy"]
        assert ma.recovery.as_dict() == mb.recovery.as_dict()
        assert a["exact_match"] and b["exact_match"]

    def test_no_plan_no_recovery_phase(self, rng):
        m = SpatialMachine()
        region = Region(0, 0, 4, 4)
        scan(m, m.place_zorder(rng.random(16), region), region)
        assert m.cost_tree.node(RECOVERY_PHASE) is None
        assert m.recovery.total_recovery_energy == 0


# ---------------------------------------------------------------------------
# strict mode: O(1) word budget, coordinate and payload guards
# ---------------------------------------------------------------------------
class TestStrictMode:
    def _fan_in(self, m, senders):
        ta = m.place(
            np.arange(float(senders)),
            np.arange(senders, dtype=np.int64),
            np.full(senders, 5, dtype=np.int64),
        )
        return m.send(ta, np.zeros(senders, dtype=np.int64), np.zeros(senders, dtype=np.int64))

    def test_occupancy_violation_raises(self):
        m = SpatialMachine(strict=True)
        with pytest.raises(ModelViolation, match="word budget"):
            self._fan_in(m, 12)

    def test_within_budget_passes(self):
        m = SpatialMachine(strict=True)
        out = self._fan_in(m, 6)
        assert len(out) == 6

    def test_custom_word_budget(self):
        m = SpatialMachine(strict=True, word_budget=2)
        with pytest.raises(ModelViolation):
            self._fan_in(m, 3)

    def test_tied_fan_in_names_the_lowest_cell(self):
        # cells (3, 1) and (2, 7) each receive three words against a budget
        # of two; the message names the lower (row, col)
        m = SpatialMachine(strict=True, word_budget=2)
        ta = m.place(np.arange(7.0), np.arange(7, dtype=np.int64), np.full(7, 9))
        rows = np.array([3, 2, 3, 2, 0, 3, 2], dtype=np.int64)
        cols = np.array([1, 7, 1, 7, 0, 1, 7], dtype=np.int64)
        with pytest.raises(ModelViolation, match=r"processor \(2, 7\) receives 3 messages"):
            m.send(ta, rows, cols)

    def test_non_strict_does_not_audit(self):
        # explicit strict=False so the test also holds under REPRO_STRICT=1
        m = SpatialMachine(strict=False)
        assert len(self._fan_in(m, 20)) == 20

    def test_env_flag_enables_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        assert SpatialMachine().strict
        monkeypatch.setenv("REPRO_STRICT", "0")
        assert not SpatialMachine().strict

    def test_nan_payload_rejected(self):
        m = SpatialMachine(strict=True)
        with pytest.raises(ValueError, match="NaN"):
            m.place(np.array([1.0, np.nan]), np.array([0, 0]), np.array([0, 1]))

    def test_nan_payload_allowed_when_lenient(self):
        # explicit strict=False so the test also holds under REPRO_STRICT=1
        m = SpatialMachine(strict=False)
        ta = m.place(np.array([1.0, np.nan]), np.array([0, 0]), np.array([0, 1]))
        assert np.isnan(ta.payload[1])

    def test_inf_payload_always_allowed(self):
        m = SpatialMachine(strict=True)
        ta = m.place(np.array([1.0, np.inf]), np.array([0, 0]), np.array([0, 1]))
        assert np.isinf(ta.payload[1])

    def test_non_integral_coords_rejected(self):
        m = SpatialMachine(strict=True)
        with pytest.raises(ValueError, match="integral"):
            m.place(np.array([1.0]), np.array([0.5]), np.array([0.0]))

    def test_non_finite_coords_rejected(self):
        m = SpatialMachine(strict=True)
        with pytest.raises(ValueError, match="finite"):
            m.place(np.array([1.0]), np.array([np.inf]), np.array([0.0]))

    def test_bounds_enforced(self):
        m = SpatialMachine(strict=True, bounds=Region(0, 0, 4, 4))
        with pytest.raises(ValueError, match="outside"):
            m.place(np.array([1.0]), np.array([7]), np.array([0]))

    def test_core_entry_guards(self, rng):
        from repro.core.blocked import blocked_scan
        from repro.core.sorting.mergesort2d import sort_values
        from repro.core.sorting.quicksort2d import quicksort_2d
        from repro.spmv import random_coo, spmv_spatial

        bad = rng.random(16)
        bad[3] = np.nan
        region = Region(0, 0, 4, 4)
        m = SpatialMachine(strict=True)
        with pytest.raises(ValueError, match="NaN"):
            sort_values(m, bad, region)
        with pytest.raises(ValueError, match="NaN"):
            blocked_scan(SpatialMachine(strict=True), bad, block=4)
        with pytest.raises(ValueError, match="NaN"):
            quicksort_2d(SpatialMachine(strict=True), bad, region, rng)
        A = random_coo(8, 24, rng)
        x = rng.random(8)
        x[0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            spmv_spatial(SpatialMachine(strict=True), A, x)

    def test_strict_mode_accepts_fault_free_primitives(self):
        """Strict mode must not reject any registry workload."""
        for entry in WORKLOADS.values():
            run_entry(entry, SpatialMachine(strict=True), 4, 0)


# ---------------------------------------------------------------------------
# FaultPlan validation
# ---------------------------------------------------------------------------
class TestFaultPlanValidation:
    def test_requires_generator(self):
        with pytest.raises(FaultConfigError, match="Generator"):
            FaultPlan(rng=42)

    def test_prob_ranges(self):
        with pytest.raises(FaultConfigError):
            FaultPlan.seeded(0, drop_prob=1.0)
        with pytest.raises(FaultConfigError):
            FaultPlan.seeded(0, corrupt_prob=-0.1)

    def test_retry_and_backoff_ranges(self):
        with pytest.raises(FaultConfigError):
            FaultPlan.seeded(0, max_retries=0)
        with pytest.raises(FaultConfigError):
            FaultPlan.seeded(0, backoff_base=-1)

    def test_empty_dead_region_rejected(self):
        with pytest.raises(FaultConfigError, match="non-empty"):
            FaultPlan.seeded(0, dead_regions=(Region(0, 0, 0, 4),))

    def test_describe_is_jsonable(self):
        import json

        plan = FaultPlan.seeded(0, drop_prob=0.1, dead_regions=(Region(1, 1, 2, 2),))
        doc = json.loads(json.dumps(plan.describe()))
        assert doc["drop_prob"] == 0.1
        assert doc["dead_regions"] == [[1, 1, 2, 2]]


# ---------------------------------------------------------------------------
# mechanism unit tests: sparing, detours, failure sampling, backoff
# ---------------------------------------------------------------------------
class TestSparing:
    def test_nearest_exit_with_tiebreak(self):
        plan = FaultPlan.seeded(0, dead_regions=(Region(1, 1, 2, 2),))
        r, c, spared = resolve_spares(plan, np.array([1, 0]), np.array([1, 0]))
        # (1,1) exits left to column 0 (left wins ties); (0,0) is live
        assert (r.tolist(), c.tolist()) == ([1, 0], [0, 0])
        assert spared.tolist() == [True, False]

    def test_inputs_never_mutated(self):
        plan = FaultPlan.seeded(0, dead_regions=(Region(0, 0, 1, 1),))
        rows, cols = np.array([0]), np.array([0])
        resolve_spares(plan, rows, cols)
        assert rows[0] == 0 and cols[0] == 0

    def test_spare_extras_distances(self):
        plan = FaultPlan.seeded(0, dead_regions=(Region(2, 2, 2, 2),))
        rows = np.array([2, 3, 0], dtype=np.int64)
        cols = np.array([2, 3, 0], dtype=np.int64)
        extra, spared = spare_extras(plan, rows, cols)
        assert spared.tolist() == [True, True, False]
        # (2,2) exits left to (2,1); (3,3) exits right to (3,4); (0,0) is live
        assert extra.tolist() == [1, 1, 0]

    def test_send_keeps_logical_coordinates(self):
        """Sparing is address-transparent: outputs keep the requested
        coordinates while the wire to/from the physical spare is charged."""
        plan = FaultPlan.seeded(0, dead_regions=(Region(1, 1, 2, 2),))
        m = SpatialMachine(faults=plan)
        src_r = np.zeros(4, dtype=np.int64)
        src_c = np.arange(4, dtype=np.int64)
        ta = m.place(np.arange(4.0), src_r, src_c)
        rows = np.array([1, 1, 2, 2], dtype=np.int64)
        cols = np.array([1, 2, 1, 2], dtype=np.int64)
        out = m.send(ta, rows, cols)
        assert out.rows.tolist() == rows.tolist()
        assert out.cols.tolist() == cols.tolist()
        assert m.recovery.spared == 4
        assert m.recovery.spare_energy > 0
        clean = SpatialMachine()
        clean.send(clean.place(np.arange(4.0), src_r, src_c), rows, cols)
        assert m.stats.energy > clean.stats.energy

    def test_unsatisfiable_ping_pong_rejected(self):
        # (0,2) spares left into B, whose nearest exit is right back into A
        plan = FaultPlan.seeded(
            0, dead_regions=(Region(0, 2, 1, 2), Region(0, 0, 1, 2))
        )
        with pytest.raises(FaultConfigError, match="spare"):
            resolve_spares(plan, np.array([0]), np.array([2]))


class TestDetours:
    def test_vertical_leg_detour(self):
        extra = detour_extras(
            (Region(1, 0, 2, 2),),
            np.array([0]), np.array([0]), np.array([4]), np.array([0]),
        )
        assert extra.tolist() == [2]  # shift one column out and back

    def test_clear_route_costs_nothing(self):
        extra = detour_extras(
            (Region(10, 10, 2, 2),),
            np.array([0]), np.array([0]), np.array([4]), np.array([4]),
        )
        assert extra.tolist() == [0]

    def test_crossing_k_rects_pays_k_detours(self):
        regs = (Region(1, 0, 1, 1), Region(3, 0, 1, 1))
        extra = detour_extras(
            regs, np.array([0]), np.array([0]), np.array([6]), np.array([0])
        )
        assert extra.tolist() == [4]


class TestFailureSampling:
    def test_capped_and_consistent(self):
        plan = FaultPlan.seeded(7, drop_prob=0.5, corrupt_prob=0.3, max_retries=4)
        failures, dropped, corrupted = sample_failures(plan, 500)
        assert failures.max() <= 4
        assert np.array_equal(failures, dropped + corrupted)
        assert failures.min() >= 0

    def test_deterministic_for_seed(self):
        a = sample_failures(FaultPlan.seeded(9, drop_prob=0.2), 100)[0]
        b = sample_failures(FaultPlan.seeded(9, drop_prob=0.2), 100)[0]
        assert np.array_equal(a, b)

    def test_zero_prob_is_all_zero(self):
        failures, dropped, corrupted = sample_failures(FaultPlan.seeded(0), 10)
        assert not failures.any() and not dropped.any() and not corrupted.any()

    def test_backoff_ticks_geometric_sum(self):
        plan = FaultPlan.seeded(0, drop_prob=0.1, backoff_base=1)
        assert backoff_ticks(plan, np.array([0, 1, 2])) == 0 + 1 + 3
        plan2 = FaultPlan.seeded(0, drop_prob=0.1, backoff_base=3)
        assert backoff_ticks(plan2, np.array([2])) == 9


# ---------------------------------------------------------------------------
# relay under faults
# ---------------------------------------------------------------------------
class TestRelayRecovery:
    def test_relay_charges_retries(self):
        stops_r = np.arange(1, 9, dtype=np.int64)
        stops_c = np.zeros(8, dtype=np.int64)
        plan = FaultPlan.seeded(11, drop_prob=0.4)
        m = SpatialMachine(faults=plan)
        depth, dist = m.relay((0, 0), stops_r, stops_c)
        clean = SpatialMachine()
        cdepth, cdist = clean.relay((0, 0), stops_r, stops_c)
        assert depth >= cdepth and dist >= cdist
        assert m.stats.energy >= clean.stats.energy
        assert m.recovery.retries > 0  # p=0.4 over 8 hops, seeded: fires
        assert m.cost_tree.node(RECOVERY_PHASE).energy == m.recovery.total_recovery_energy
        tot = m.cost_tree.total()
        assert tot.energy == m.stats.energy

    def test_relay_spared_through_dead_region(self):
        plan = FaultPlan.seeded(0, dead_regions=(Region(2, 0, 1, 1),))
        m = SpatialMachine(faults=plan)
        m.relay((0, 0), np.array([1, 2, 3], dtype=np.int64), np.zeros(3, dtype=np.int64))
        assert m.recovery.spared >= 1
