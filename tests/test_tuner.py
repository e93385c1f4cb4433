"""Tests for the auto-tuner subsystem (`repro tune`, repro.tuner.*).

Covers the search space enumeration, the pruning contract (bit-identical
argmin to brute force with >= 50% of the sort space pruned analytically),
plan DB round-trip and staleness, the library API, the CLI verb, the
`bench list` baseline column, the loadgen Zipf mix, and the service's
``/plan`` endpoint plus ``auto:`` dispatch.
"""

import asyncio
import json
import shutil

import numpy as np
import pytest

from repro.runner.cache import ResultCache
from repro.runner.registry import default_bench_dir
from repro.tuner import (
    Evaluator,
    PlanDB,
    SearchSpace,
    TuneConfig,
    TunePlan,
    TuneRequest,
    config_bounds,
    is_dominated,
    metric_value,
    plan_for,
    run_config,
    tune_one,
    variants_for,
)
from repro.tuner.planner import ServicePlanner


class TestSearchSpace:
    def test_sort_space_is_seven_sorters_by_three_layouts(self):
        space = SearchSpace.for_request("sort", 64)
        assert len(space) == 21
        assert len(variants_for("sort")) == 7
        assert {c.layout for c in space.configs} == {"rowmajor", "zorder", "square_l"}

    def test_native_layout_enumerates_first_per_variant(self):
        space = SearchSpace.for_request("sort", 64)
        seen = []
        for c in space.configs:
            if c.variant not in seen:
                # first configuration of each variant is its native layout
                assert not is_dominated(c), c.label()
                seen.append(c.variant)

    def test_scan_space_has_tree_layouts_and_block_factors(self):
        space = SearchSpace.for_request("scan", 64)
        labels = [c.label() for c in space.configs]
        assert "scan/tree@zorder" in labels
        assert "scan/blocked@host/b4" in labels
        blocks = {c.block for c in space.configs if c.variant == "blocked"}
        assert blocks == {4, 16, 64}

    def test_config_roundtrip(self):
        for c in SearchSpace.for_request("scan", 64).configs:
            assert TuneConfig.from_dict(c.as_dict()) == c
            assert TuneConfig.from_params(c.params(64)) == c

    def test_space_hash_depends_on_n(self):
        assert SearchSpace.for_request("scan", 64).hash() != SearchSpace.for_request(
            "scan", 256
        ).hash()

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown algo class"):
            SearchSpace.for_request("fft", 64)


class TestBounds:
    def test_bounds_admissible_on_small_sort_space(self):
        for config in SearchSpace.for_request("sort", 16).configs:
            lb = config_bounds(config, 16, seed=0)
            m = run_config(config, 16, seed=0).stats
            measured = {"energy": m.energy, "max_depth": m.max_depth}
            measured["edp"] = measured["energy"] * measured["max_depth"]
            for metric in ("energy", "max_depth", "edp"):
                assert lb[metric] <= measured[metric], (config.label(), metric)

    def test_network_energy_bound_is_exact(self):
        for variant in ("bitonic", "oddeven"):
            config = TuneConfig("sort", variant, "rowmajor")
            lb = config_bounds(config, 16)
            m = run_config(config, 16).stats
            assert lb["energy"] == m.energy
            assert lb["max_depth"] == m.max_depth

    def test_metric_value_edp(self):
        assert metric_value({"energy": 6, "max_depth": 7}, "edp") == 42
        with pytest.raises(ValueError, match="unknown tuning metric"):
            metric_value({"energy": 1}, "watts")


@pytest.fixture(scope="module")
def evaluator(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("tuner_cache"))
    return Evaluator(cache=cache, jobs=0)


class TestTuner:
    def test_pruned_matches_brute_and_prunes_half_the_sort_space(self, evaluator):
        """The acceptance criterion: >= 50% pruned, bit-identical best plan."""
        request = TuneRequest("sort", 64, "edp")
        plan = tune_one(request, evaluator)
        brute = tune_one(request, evaluator, brute=True)
        assert plan.best == brute.best
        assert plan.pruned_fraction() >= 0.5
        assert plan.counts["evaluated"] < plan.counts["total"]
        assert brute.counts["evaluated"] == brute.counts["total"] == 21

    def test_all_metrics_match_brute(self, evaluator):
        for metric in ("energy", "max_depth", "edp"):
            for algo_class, n in (("sort", 16), ("scan", 64), ("spmv", 16)):
                request = TuneRequest(algo_class, n, metric)
                plan = tune_one(request, evaluator)
                brute = tune_one(request, evaluator, brute=True)
                assert plan.best == brute.best, (algo_class, n, metric)

    def test_pareto_front_is_nondominated_and_holds_the_best(self, evaluator):
        plan = tune_one(TuneRequest("sort", 64, "energy"), evaluator)
        front = plan.pareto
        assert front, "empty Pareto front"
        for a in front:
            for b in front:
                if a is b:
                    continue
                assert not (
                    a["metrics"]["energy"] <= b["metrics"]["energy"]
                    and a["metrics"]["max_depth"] < b["metrics"]["max_depth"]
                )
        assert any(p["config"] == plan.best["config"] for p in front)

    def test_plan_roundtrips_through_dict(self, evaluator):
        plan = tune_one(TuneRequest("scan", 64), evaluator)
        again = TunePlan.from_dict(json.loads(json.dumps(plan.as_dict())))
        assert again.best == plan.best
        assert again.counts == plan.counts
        assert again.space_hash == plan.space_hash
        assert again.best_config == plan.best_config

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown tuning metric"):
            TuneRequest("sort", 64, "watts")

    def test_second_tune_is_fully_cached(self, evaluator):
        request = TuneRequest("scan", 64)
        tune_one(request, evaluator)
        before = evaluator.executed
        tune_one(request, evaluator)
        assert evaluator.executed == before  # every evaluation came from cache
        assert evaluator.cache_hits > 0


class TestPlanDB:
    def _plan(self, evaluator):
        return tune_one(TuneRequest("scan", 64), evaluator)

    def test_roundtrip(self, evaluator, tmp_path):
        plan = self._plan(evaluator)
        db = PlanDB(tmp_path / "db.json")
        db.put(plan)
        db.save()
        again = PlanDB(tmp_path / "db.json")
        hit = again.get(TuneRequest("scan", 64), plan.code_version, plan.space_hash)
        assert hit is not None and hit.best == plan.best

    def test_stale_code_version_is_ignored_never_served(self, evaluator, tmp_path):
        plan = self._plan(evaluator)
        db = PlanDB(tmp_path / "db.json")
        db.put(plan)
        db.save()
        again = PlanDB(tmp_path / "db.json")
        request = TuneRequest("scan", 64)
        assert again.get(request, "someone-elses-tree", plan.space_hash) is None
        assert again.get(request, plan.code_version, "different-space") is None
        # and the fresh key still hits
        assert again.get(request, plan.code_version, plan.space_hash) is not None

    def test_corrupt_db_reads_as_empty(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{not json")
        assert len(PlanDB(path)) == 0
        path.write_text(json.dumps({"schema_version": 999, "entries": {"x": {}}}))
        assert len(PlanDB(path)) == 0

    def test_stale_entry_is_retuned_by_plan_for(self, evaluator, tmp_path):
        db_path = tmp_path / "db.json"
        cache_dir = evaluator.cache.root
        plan = plan_for("scan", 64, db_path=db_path, cache_dir=cache_dir, persist=True)
        # poison the stored entry: stale code version and absurd best value
        doc = json.loads(db_path.read_text())
        (entry,) = doc["entries"].values()
        entry["code_version"] = "stale"
        entry["best"]["value"] = -1
        db_path.write_text(json.dumps(doc))
        fresh = plan_for("scan", 64, db_path=db_path, cache_dir=cache_dir)
        assert fresh.best == plan.best  # re-tuned, not the poisoned entry
        assert fresh.best["value"] != -1

    def test_plan_for_serves_fresh_db_entry(self, evaluator, tmp_path):
        db_path = tmp_path / "db.json"
        cache_dir = evaluator.cache.root
        first = plan_for("scan", 64, db_path=db_path, cache_dir=cache_dir, persist=True)
        second = plan_for("scan", 64, db_path=db_path, cache_dir=cache_dir)
        assert second.as_dict() == first.as_dict()


class TestServicePlanner:
    def test_memo_db_tuned_provenance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        planner = ServicePlanner(cache=cache, db_path=tmp_path / "db.json")
        plan, source = planner.plan("scan", 64)
        assert source == "tuned"
        _, source = planner.plan("scan", 64)
        assert source == "memo"
        # a fresh planner instance finds the persisted DB entry
        other = ServicePlanner(cache=cache, db_path=tmp_path / "db.json")
        plan2, source = other.plan("scan", 64)
        assert source == "db" and plan2.best == plan.best
        assert planner.stats()["tuned"] == 1


class TestTuneCLI:
    def test_quick_brute_force_run(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "tune", "--quick", "--algo-class", "sort", "--metric", "edp",
                "--brute-force",
                "--plan-db", str(tmp_path / "db.json"),
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(tmp_path / "table.json"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "bit-identical" in out
        assert "sort/bitonic@rowmajor" in out
        table = json.loads((tmp_path / "table.json").read_text())
        assert table and table[0]["counts"]["total"] == 21
        # second run resolves from the DB without evaluating anything
        rc = main(
            [
                "tune", "--quick", "--algo-class", "sort",
                "--plan-db", str(tmp_path / "db.json"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0 and " db" in out


class TestBenchListBaselines:
    def test_list_shows_baseline_column(self, capsys):
        from repro.cli import main

        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "baseline=yes" in out
        lines = [ln for ln in out.splitlines() if ln.strip().startswith("table1_sort ")]
        assert lines and "baseline=yes" in lines[0]
        assert "have a quick baseline" in out


class TestLoadgenZipf:
    def test_alpha_zero_is_the_historical_mix(self):
        import random

        from repro.service.loadgen import DEFAULT_MIX, build_requests

        rng = random.Random(11)
        expect = []
        for _ in range(80):
            algo, sizes = DEFAULT_MIX[rng.randrange(len(DEFAULT_MIX))]
            expect.append(
                {"algo": algo, "n": sizes[rng.randrange(len(sizes))], "seed": rng.randrange(3)}
            )
        assert build_requests(80, 11) == expect


class TestServicePlanEndpoint:
    def _config(self, tmp_path):
        from repro.service import ServiceConfig

        return ServiceConfig(
            port=0,
            inline=True,
            disk_cache=False,
            timeout=60.0,
            drain_timeout=10.0,
            plan_db=str(tmp_path / "plan_db.json"),
        )

    def _run(self, tmp_path, scenario, config=None):
        from repro.service import SpatialService
        from repro.service.httpio import http_call

        async def call(port, method, path, payload=None):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                status, _headers, doc, _ = await http_call(
                    reader, writer, method, path, payload, timeout=90.0
                )
                return status, doc
            finally:
                writer.close()

        async def go():
            service = SpatialService(config or self._config(tmp_path))
            await service.start()
            try:
                return await scenario(service, call)
            finally:
                await service.drain(10.0)
                await service.stop()

        return asyncio.run(go())

    def test_default_plan_db_lives_in_the_cache_dir(self, tmp_path, monkeypatch):
        """Without ``plan_db``, tuned plans go to ``<cache_dir>/plan_db.json``:
        a copy of the checked-in database, where the old cwd-relative
        default pointed, stays byte-identical."""
        from repro.service import ServiceConfig, SpatialService

        tracked = tmp_path / "benchmarks" / "plans" / "plan_db.json"
        tracked.parent.mkdir(parents=True)
        shutil.copyfile(default_bench_dir() / "plans" / "plan_db.json", tracked)
        before = tracked.read_bytes()
        monkeypatch.chdir(tmp_path)
        cache_dir = tmp_path / "cache"
        config = ServiceConfig(port=0, inline=True, timeout=60.0, drain_timeout=10.0,
                               cache_dir=str(cache_dir))

        async def scenario(service, call):
            status, run = await call(
                service.port, "POST", "/run", {"algo": "auto:sort", "n": 16, "seed": 1}
            )
            assert status == 200 and run["ok"] and run["plan"]["source"] == "tuned"
            return True

        assert self._run(tmp_path, scenario, config)
        assert tracked.read_bytes() == before
        assert list(json.loads((cache_dir / "plan_db.json").read_text())["entries"]) == [
            "sort/n=16/metric=edp/seed=1"
        ]
        # without the disk cache, plans stay in memory
        config.disk_cache = False
        assert SpatialService(config).planner.db_path is None

    def test_plan_endpoint_and_auto_dispatch_match_direct_run(self, tmp_path):
        async def scenario(service, call):
            # /plan answers with the tuned best configuration
            status, doc = await call(
                service.port, "POST", "/plan", {"algo_class": "sort", "n": 16, "seed": 1}
            )
            assert status == 200 and doc["ok"]
            assert doc["source"] == "tuned"
            assert doc["counts"]["total"] == 21
            planned = TuneConfig.from_dict(doc["plan"]["config"])

            # auto:sort executes exactly the plan-selected variant: counters
            # must match an in-process run of that configuration bit-for-bit
            status, run = await call(
                service.port, "POST", "/run", {"algo": "auto:sort", "n": 16, "seed": 1}
            )
            assert status == 200 and run["ok"]
            assert run["plan"]["source"] == "memo"  # /plan warmed the planner
            assert TuneConfig.from_dict(run["plan"]["config"]) == planned
            assert run["suite"] == "tuner"
            direct = run_config(planned, 16, seed=1).stats
            assert run["metrics"]["energy"] == direct.energy
            assert run["metrics"]["max_depth"] == direct.max_depth
            assert run["metrics"]["messages"] == direct.messages

            # identical auto request: served from cache, plan from memo
            status, again = await call(
                service.port, "POST", "/run", {"algo": "auto:sort", "n": 16, "seed": 1}
            )
            assert again["cached"] == "memory"
            assert again["metrics"] == run["metrics"]

            # planner stats surface in /metrics
            status, metrics = await call(service.port, "GET", "/metrics")
            assert metrics["service"]["planner"]["tuned"] >= 1
            return True

        assert self._run(tmp_path, scenario)

    def test_plan_endpoint_validation(self, tmp_path):
        async def scenario(service, call):
            status, doc = await call(
                service.port, "POST", "/plan", {"algo_class": "fft", "n": 64}
            )
            assert status == 400 and "unknown auto class" in doc["error"]
            status, doc = await call(
                service.port, "POST", "/plan", {"algo": "sort", "n": 64}
            )
            assert status == 400 and "/plan takes an auto:" in doc["error"]
            status, doc = await call(
                service.port, "POST", "/plan", {"algo_class": "sort", "n": 100}
            )
            assert status == 400 and "power of 4" in doc["error"]
            status, doc = await call(service.port, "GET", "/plan")
            assert status == 405
            return True

        assert self._run(tmp_path, scenario)


class TestProtocolAuto:
    def test_auto_request_validation(self):
        from repro.service import RequestError, ServiceRequest

        req = ServiceRequest.from_payload({"algo": "auto:sort", "n": 64})
        assert req.is_auto and req.algo_class == "sort" and req.metric == "edp"
        assert req.suite_name == "tuner"
        with pytest.raises(RuntimeError, match="no resolved plan"):
            req.params()
        resolved = req.resolve(TuneConfig("sort", "bitonic", "rowmajor").params(64))
        assert resolved.params()["variant"] == "bitonic"
        assert resolved.describe()["params"]["n"] == 64

        with pytest.raises(RequestError, match="unknown auto class"):
            ServiceRequest.from_payload({"algo": "auto:select", "n": 64})
        with pytest.raises(RequestError, match="only applies to auto"):
            ServiceRequest.from_payload({"algo": "sort", "n": 64, "metric": "edp"})
        with pytest.raises(RequestError, match="unknown metric"):
            ServiceRequest.from_payload({"algo": "auto:sort", "n": 64, "metric": "w"})
        with pytest.raises(RequestError, match="profile"):
            ServiceRequest.from_payload({"algo": "auto:sort", "n": 64, "profile": True})
        with pytest.raises(RequestError, match="power of 4"):
            ServiceRequest.from_payload({"algo": "auto:scan", "n": 100})
        with pytest.raises(RequestError, match="out of range"):
            ServiceRequest.from_payload({"algo": "auto:sort", "n": 4096})

    def test_resolved_cache_key_matches_tuner_evaluation(self):
        from repro.runner.cachekey import point_key
        from repro.runner.spec import PointSpec
        from repro.service import ServiceRequest

        config = TuneConfig("sort", "bitonic", "rowmajor")
        req = ServiceRequest.from_payload({"algo": "auto:sort", "n": 64, "seed": 3})
        resolved = req.resolve(config.params(64))
        expected = point_key(
            PointSpec(suite="tuner", params=config.params(64), seed=3), "v0"
        )
        assert resolved.cache_key("v0") == expected


class TestRunConfig:
    def test_sorters_sort_under_every_layout(self):
        # run_config verifies sortedness internally and raises on corruption,
        # so surviving the call is the correctness assertion
        for variant in ("bitonic", "mergesort", "shearsort"):
            for layout in ("rowmajor", "zorder", "square_l"):
                config = TuneConfig("sort", variant, layout)
                m = run_config(config, 16, seed=9)
                assert m.stats.energy > 0

    def test_run_config_point_reports_edp(self):
        from repro.tuner.variants import run_config_point

        params = TuneConfig("scan", "tree", "zorder").params(64)
        payload = run_config_point(params, np.random.default_rng(0))
        m = payload["metrics"]
        assert payload["extra"]["edp"] == m["energy"] * m["max_depth"]
        assert payload["extra"]["config"] == TuneConfig("scan", "tree", "zorder").as_dict()


class TestEvaluatorProcessModels:
    def test_in_process_and_pooled_evaluations_agree(self):
        configs = SearchSpace.for_request("sort", 16).configs
        here = Evaluator(jobs=0).evaluate(configs, 16, 0)
        pooled = Evaluator(jobs=2).evaluate(configs, 16, 0)
        assert [r.status for r in here] == ["ok"] * len(configs)
        assert [r.metrics for r in here] == [r.metrics for r in pooled]
        assert [r.extra for r in here] == [r.extra for r in pooled]
