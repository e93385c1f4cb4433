"""Tests for the repro.runner subsystem: specs, registry, cache, executor.

The failure-path tests register synthetic suites from a temporary benchmarks
directory so a crash/timeout/exception in a worker is exercised for real
(separate processes), with tiny timeouts and backoffs to keep the suite fast.
"""

import hashlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.runner import (
    ExperimentSpec,
    PointResult,
    PointSpec,
    ResultCache,
    RunConfig,
    SweepGrid,
    build_bench_result,
    canonical_json,
    default_bench_dir,
    load_suites,
    run_points,
    spec_hash,
    validate_bench_result,
)

SYNTH_BENCH = textwrap.dedent(
    """
    import os
    import time

    from repro.runner import register_suite

    def _metrics(n):
        return {
            "metrics": {"energy": n * 10, "messages": n, "rounds": 1,
                        "max_depth": 2, "max_distance": 3},
            "phases": [],
            "extra": {"n2": n * n},
        }

    @register_suite("rt_ok", artifact="synthetic", grid={"n": [4, 8]},
                    quick={"n": [4]})
    def _ok(params, rng):
        return _metrics(params["n"])

    @register_suite("rt_crash", grid={"n": [4]})
    def _crash(params, rng):
        os._exit(13)

    @register_suite("rt_sleep", grid={"n": [4]})
    def _sleep(params, rng):
        time.sleep(60)

    @register_suite("rt_raise", grid={"n": [4]})
    def _raise(params, rng):
        raise ValueError("synthetic failure")

    @register_suite("rt_mixed", grid={"n": [3, 4, 5]})
    def _mixed(params, rng):
        if params["n"] == 4:
            raise ValueError("only the middle point fails")
        return _metrics(params["n"])
    """
)


LATE_BENCH = textwrap.dedent(
    """
    from repro.runner import register_suite

    @register_suite("rt_late", grid={"n": [4]})
    def _late(params, rng):
        return {"late": True}
    """
)


@pytest.fixture
def synth_dir(tmp_path):
    (tmp_path / "bench_synth.py").write_text(SYNTH_BENCH)
    return tmp_path


@pytest.fixture
def synth(synth_dir):
    return load_suites(synth_dir)


FAST = dict(timeout=10.0, retries=2, backoff=0.01)


class TestSpec:
    def test_grid_cross_product(self):
        g = SweepGrid(params={"a": [1, 2], "b": ["x"]}, seeds=(0, 1), repeats=2)
        pts = g.points("s")
        assert len(pts) == 2 * 1 * 2 * 2
        assert pts[0].identity() == {
            "suite": "s", "params": {"a": 1, "b": "x"}, "seed": 0, "repeat": 0,
        }

    def test_grid_explicit_points(self):
        g = SweepGrid(params=[{"p": 16, "mode": "erew"}, {"p": 16, "mode": "crcw"}])
        assert [p.params["mode"] for p in g.points("s")] == ["erew", "crcw"]

    def test_hash_is_order_insensitive(self):
        a = spec_hash({"x": 1, "y": [1, 2]})
        b = spec_hash({"y": [1, 2], "x": 1})
        assert a == b
        assert a != spec_hash({"x": 1, "y": [2, 1]})

    def test_canonical_json_deterministic(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_experiment_spec_roundtrip(self):
        spec = ExperimentSpec("s", SweepGrid(params={"n": [4]}))
        assert spec.as_dict()["grid"]["params"] == {"n": [4]}
        assert spec.hash() == spec.hash()


class TestRegistry:
    def test_real_benchmarks_all_register(self):
        suites = load_suites()
        assert len(suites) >= 24
        for expected in ("table1_scan", "table1_sort", "table1_selection",
                         "table1_spmv", "pram", "phase_overhead"):
            assert expected in suites
        for s in suites.values():
            assert s.grid.seeds, f"{s.name} has no seeds"
            assert s.quick.points(s.name), f"{s.name} has an empty quick grid"

    def test_load_is_idempotent(self, synth_dir):
        first = load_suites(synth_dir)
        second = load_suites(synth_dir)
        assert first["rt_ok"].fn is second["rt_ok"].fn

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_suites(tmp_path / "nope")

    def test_module_names_are_directory_scoped(self, synth_dir):
        """Each file imports as ``repro_bench_<sha1(dir)[:8]>_<stem>``: the
        names pool workers and earlier loads already hold in sys.modules."""
        for d in (synth_dir, default_bench_dir()):
            load_suites(d)
            for path in sorted(Path(d).glob("bench_*.py")):
                digest = hashlib.sha1(str(path.parent).encode("utf-8")).hexdigest()[:8]
                assert f"repro_bench_{digest}_{path.stem}" in sys.modules

    def test_cold_load_imports_neither_scipy_nor_the_service(self):
        """Loading the suite registry leaves scipy (only
        ``COOMatrix.to_scipy`` needs it) and the serving stack unloaded."""
        code = (
            "import sys\n"
            "import repro\n"
            "from repro.runner import load_suites\n"
            "load_suites()\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] == 'scipy' or m.startswith('repro.service')))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"

    def test_file_added_after_first_load_is_imported(self, synth_dir):
        assert "rt_late" not in load_suites(synth_dir)
        (synth_dir / "bench_late.py").write_text(LATE_BENCH)
        late = load_suites(synth_dir)["rt_late"]
        assert late.fn({}, None) == {"late": True}
        assert load_suites(synth_dir)["rt_late"].fn is late.fn  # imported once


class TestCache:
    def _point(self, n=4):
        return PointSpec(suite="rt_ok", params={"n": n}, seed=0)

    def _result(self, n=4):
        return PointResult(
            params={"n": n}, seed=0, repeat=0, status="ok",
            metrics={"energy": 1, "messages": 1, "rounds": 1,
                     "max_depth": 1, "max_distance": 1},
        )

    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key_for(self._point(), "v1")
        assert cache.get(key) is None
        cache.put(key, self._result())
        hit = cache.get(key)
        assert hit is not None and hit.cached and hit.ok

    def test_entry_is_the_json_text_of_its_dict(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key_for(self._point(), "v1")
        result = self._result()
        result.wall_time_s = 0.25
        result.phases = [{"path": "total", "self_energy": 1}]
        result.extra = {"ratio": 1.5, "label": "n=4", "series": [1, 2.5, None]}
        cache.put(key, result)
        stored = {**result.as_dict(), "cached": False}
        assert cache.path_for(key).read_text() == json.dumps(stored)
        assert cache.get(key).as_dict() == {**stored, "cached": True}

    def test_spec_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(cache.key_for(self._point(4), "v1"), self._result(4))
        assert cache.get(cache.key_for(self._point(8), "v1")) is None

    def test_code_version_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(cache.key_for(self._point(), "v1"), self._result())
        assert cache.get(cache.key_for(self._point(), "v2")) is None
        assert cache.get(cache.key_for(self._point(), "v1")) is not None

    def test_failed_results_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key_for(self._point(), "v1")
        cache.put(key, PointResult(params={"n": 4}, seed=0, repeat=0,
                                   status="failed", error="boom"))
        assert cache.get(key) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key_for(self._point(), "v1")
        cache.put(key, self._result())
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None


class TestExecutor:
    def test_ok_sweep(self, synth, synth_dir):
        suite = synth["rt_ok"]
        results = run_points(suite, suite.spec().points(), RunConfig(jobs=2, **FAST),
                             bench_dir=synth_dir)
        assert [r.status for r in results] == ["ok", "ok"]
        assert results[0].metrics["energy"] == 40
        assert results[0].extra["n2"] == 16

    def test_crash_retry_exhaustion(self, synth, synth_dir):
        suite = synth["rt_crash"]
        results = run_points(suite, suite.spec().points(),
                             RunConfig(jobs=1, timeout=10.0, retries=2, backoff=0.01),
                             bench_dir=synth_dir)
        (r,) = results
        assert r.status == "failed"
        assert r.attempts == 3  # initial + 2 retries
        assert "exit code 13" in r.error

    def test_timeout_produces_failed_record_without_killing_sweep(
        self, synth, synth_dir
    ):
        # one hanging point amid ok points: the sweep must complete, with
        # exactly the hanging point recorded as failed (timeout)
        sleep = synth["rt_sleep"]
        ok = synth["rt_ok"]
        cfg = RunConfig(jobs=2, timeout=1.0, retries=0, backoff=0.01)
        slow = run_points(sleep, sleep.spec().points(), cfg, bench_dir=synth_dir)
        fast = run_points(ok, ok.spec().points(), cfg, bench_dir=synth_dir)
        assert slow[0].status == "failed" and "timeout" in slow[0].error
        assert all(r.ok for r in fast)

    def test_exception_is_recorded_not_retried(self, synth, synth_dir):
        suite = synth["rt_raise"]
        results = run_points(suite, suite.spec().points(), RunConfig(jobs=1, **FAST),
                             bench_dir=synth_dir)
        (r,) = results
        assert r.status == "failed"
        assert r.attempts == 1
        assert "synthetic failure" in r.error

    def test_partial_failure_keeps_other_points(self, synth, synth_dir):
        suite = synth["rt_mixed"]
        results = run_points(suite, suite.spec().points(), RunConfig(jobs=2, **FAST),
                             bench_dir=synth_dir)
        assert [r.status for r in results] == ["ok", "failed", "ok"]

    def test_cache_hits_skip_execution(self, synth, synth_dir, tmp_path):
        suite = synth["rt_ok"]
        cache = ResultCache(tmp_path / "c")
        cfg = RunConfig(jobs=2, **FAST)
        points = suite.spec().points()
        first = run_points(suite, points, cfg, cache=cache, code_ver="v1",
                           bench_dir=synth_dir)
        second = run_points(suite, points, cfg, cache=cache, code_ver="v1",
                            bench_dir=synth_dir)
        assert not any(r.cached for r in first)
        assert all(r.cached for r in second)
        assert [r.metrics for r in second] == [r.metrics for r in first]
        # a code-version bump invalidates every entry
        third = run_points(suite, points, cfg, cache=cache, code_ver="v2",
                           bench_dir=synth_dir)
        assert not any(r.cached for r in third)


class TestSchema:
    def _doc(self, synth, synth_dir):
        suite = synth["rt_ok"]
        spec = suite.spec()
        results = run_points(suite, spec.points(), RunConfig(jobs=2, **FAST),
                             bench_dir=synth_dir)
        return build_bench_result(suite.name, suite.artifact, spec.as_dict(),
                                  "v1", {"jobs": 2}, results)

    def test_valid_document(self, synth, synth_dir):
        doc = self._doc(synth, synth_dir)
        assert validate_bench_result(doc) == []
        assert doc["summary"] == {
            "total": 2, "ok": 2, "failed": 0, "cached": 0,
            "wall_time_s": doc["summary"]["wall_time_s"],
        }

    def test_validator_flags_problems(self, synth, synth_dir):
        doc = self._doc(synth, synth_dir)
        doc["points"][0]["metrics"].pop("energy")
        doc["points"][1]["status"] = "failed"
        doc["points"][1]["error"] = None
        errs = validate_bench_result(doc)
        assert any("metrics.energy" in e for e in errs)
        assert any("without an error message" in e for e in errs)
        assert any("summary.ok" in e for e in errs)

    def test_validator_rejects_non_objects(self):
        assert validate_bench_result([]) == ["document is not a JSON object"]
        assert "schema_version must be 1" in validate_bench_result({})[0]


class TestCacheTornWrites:
    """Concurrency hardening: torn writes are discarded, never loaded."""

    def _point(self, n=4):
        return PointSpec(suite="rt_ok", params={"n": n}, seed=0)

    def _result(self, n=4):
        return PointResult(params={"n": n}, seed=0, repeat=0, status="ok",
                           metrics={"energy": 10})

    def test_torn_write_is_discarded_not_loaded(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key_for(self._point(), "v1")
        cache.put(key, self._result())
        path = cache.path_for(key)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # simulated torn write
        assert cache.get(key) is None
        assert not path.exists()  # corrupt entry removed, not just skipped
        # the slot is clean: a fresh put works and reads back
        cache.put(key, self._result())
        assert cache.get(key) is not None

    def test_structurally_invalid_entry_discarded(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key_for(self._point(), "v1")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"valid_json": "but not a PointResult"}')
        assert cache.get(key) is None
        assert not path.exists()

    def test_no_stale_tmp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key_for(self._point(), "v1")
        cache.put(key, self._result())
        leftovers = [p for p in (tmp_path / "c").rglob("*.tmp")]
        assert leftovers == []

    def test_writers_serialize_on_entry_lock(self, tmp_path):
        import threading
        import time as _time

        try:
            import fcntl
        except ImportError:
            pytest.skip("no fcntl on this platform")
        cache = ResultCache(tmp_path / "c")
        key = cache.key_for(self._point(), "v1")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock_fh = open(path.with_suffix(".lock"), "w")
        fcntl.flock(lock_fh, fcntl.LOCK_EX)
        done = threading.Event()

        def writer():
            cache.put(key, self._result())
            done.set()

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        assert not done.wait(0.3)  # blocked while we hold the entry lock
        fcntl.flock(lock_fh, fcntl.LOCK_UN)
        lock_fh.close()
        assert done.wait(5.0)
        t.join(5.0)
        assert cache.get(key) is not None


class TestRetryJitter:
    """Crash-retry backoff carries deterministic, seeded jitter."""

    def test_deterministic_for_same_inputs(self):
        from repro.runner.executor import retry_delay

        cfg = RunConfig(backoff=0.25, jitter=0.5)
        assert retry_delay(cfg, 7, 3, 1) == retry_delay(cfg, 7, 3, 1)

    def test_within_jitter_envelope(self):
        from repro.runner.executor import retry_delay

        cfg = RunConfig(backoff=0.25, jitter=0.5)
        for attempt in range(3):
            base = 0.25 * 2**attempt
            d = retry_delay(cfg, 0, 0, attempt)
            assert base <= d <= base * 1.5

    def test_zero_jitter_is_pure_exponential(self):
        from repro.runner.executor import retry_delay

        cfg = RunConfig(backoff=0.25, jitter=0.0)
        assert retry_delay(cfg, 0, 0, 2) == 1.0

    def test_distinct_points_desynchronize(self):
        from repro.runner.executor import retry_delay

        cfg = RunConfig(backoff=0.25, jitter=0.5)
        delays = {retry_delay(cfg, seed, idx, 0) for seed in range(4) for idx in range(4)}
        assert len(delays) > 1  # not all in lockstep

    def test_crash_retries_still_succeed_with_jitter(self, synth, synth_dir):
        suite = synth["rt_crash"]
        pts = suite.spec().points()
        cfg = RunConfig(jobs=2, timeout=10.0, retries=2, backoff=0.01, jitter=0.5,
                        use_cache=False)
        res = run_points(suite, pts, cfg, bench_dir=synth_dir)
        assert all(r.status == "failed" for r in res)
        assert all(r.attempts == 3 for r in res)


PID_BENCH = textwrap.dedent(
    """
    import os
    import time

    from repro.runner import register_suite

    @register_suite("rt_pid", grid={"nap": [0.0]})
    def _pid(params, rng):
        time.sleep(params["nap"])
        return {
            "metrics": {"energy": 1, "messages": 1, "rounds": 1,
                        "max_depth": 1, "max_distance": 1},
            "phases": [],
            "extra": {"pid": os.getpid()},
        }
    """
)


@pytest.fixture
def pid_dir(tmp_path):
    (tmp_path / "bench_pid.py").write_text(PID_BENCH)
    return tmp_path


def _naps(*naps):
    return [PointSpec(suite="rt_pid", params={"nap": nap, "i": i}, seed=0)
            for i, nap in enumerate(naps)]


class TestPooledExecution:
    """Sweep points run on one WorkerPool; jobs=0 runs them in-process."""

    def test_warm_workers_are_reused(self, pid_dir):
        suite = load_suites(pid_dir)["rt_pid"]
        results = run_points(suite, _naps(*[0.0] * 6), RunConfig(jobs=2, **FAST),
                             bench_dir=pid_dir)
        assert [r.status for r in results] == ["ok"] * 6
        assert len({r.extra["pid"] for r in results}) <= 2

    def test_log_exception_leaves_no_live_worker(self, pid_dir):
        import multiprocessing
        import time

        suite = load_suites(pid_dir)["rt_pid"]

        def log(msg):
            if ": ok" in msg:
                raise RuntimeError("log sink failed")

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="log sink failed"):
            run_points(suite, _naps(0.0, 60.0, 60.0), RunConfig(jobs=2, timeout=120.0),
                       bench_dir=pid_dir, log=log)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - started < 30.0  # the napping point was killed

    def test_more_workers_than_cores_fill_every_result(self, pid_dir):
        suite = load_suites(pid_dir)["rt_pid"]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_points(suite, _naps(*[0.0] * 16), RunConfig(jobs=4, **FAST),
                                 bench_dir=pid_dir)
        finally:
            sys.setswitchinterval(switch)
        assert [r.params["i"] for r in results if r.ok] == list(range(16))
        assert len({r.extra["pid"] for r in results}) <= 4

    def test_closed_pool_kills_busy_worker_and_spawns_none(self, pid_dir):
        import multiprocessing
        import threading
        import time

        from repro.runner import PoolError, WorkerPool

        pool = WorkerPool(1, str(pid_dir))
        raised = []

        def call():
            try:
                pool.run("rt_pid", {"nap": 60.0}, 0, timeout=120.0)
            except PoolError as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        try:
            deadline = time.monotonic() + 30.0
            while pool._idle and time.monotonic() < deadline:
                caller.join(0.01)
            assert not pool._idle, "the task never reached the worker"
        finally:
            pool.close()
        caller.join(10.0)
        assert not caller.is_alive()
        assert [type(e) for e in raised] == [PoolError]
        assert multiprocessing.active_children() == []
        with pytest.raises(PoolError, match="closed"):
            pool.run("rt_pid", {"nap": 0.0}, 0)

    def test_close_stops_every_idle_worker_before_the_first_join(self, pid_dir):
        import multiprocessing

        from repro.runner import WorkerPool

        events = []

        class Recorded:
            """Delegates to a worker's pipe or process, logging stops and joins."""

            def __init__(self, inner, i):
                self._inner, self._i = inner, i

            def send(self, obj):
                if obj is None:
                    events.append(("stop", self._i))
                return self._inner.send(obj)

            def join(self, *args, **kwargs):
                events.append(("join", self._i))
                return self._inner.join(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        pool = WorkerPool(3, str(pid_dir))
        for i, w in enumerate(pool._idle):
            w.conn, w.proc = Recorded(w.conn, i), Recorded(w.proc, i)
        pool.close()
        # all three stops go out before the first join
        assert [kind for kind, _ in events[:3]] == ["stop"] * 3, events
        assert sorted(i for kind, i in events if kind == "stop") == [0, 1, 2]
        assert multiprocessing.active_children() == []

    def test_in_process_points_record_failures_without_retry(self, synth, synth_dir):
        results = run_points(synth["rt_mixed"], synth["rt_mixed"].spec().points(),
                             RunConfig(jobs=0, **FAST), bench_dir=synth_dir)
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        assert results[1].attempts == 1
        assert "only the middle point fails" in results[1].error
        assert "Traceback" in results[1].error
