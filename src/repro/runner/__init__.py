"""repro.runner — parallel experiment execution for the benchmark harness.

The subsystem turns the ad-hoc ``benchmarks/bench_*.py`` scripts into a
declarative, fault-tolerant, cached sweep runner:

* :mod:`repro.runner.spec` — :class:`ExperimentSpec` / :class:`SweepGrid`
  descriptions of (suite, sizes, seeds, repeats) with canonical hashing;
* :mod:`repro.runner.registry` — the :func:`register_suite` decorator every
  bench file uses, plus suite discovery;
* :mod:`repro.runner.executor` — runs a sweep's points on a worker pool
  with per-task timeouts, bounded crash retry with backoff, and graceful
  degradation (or in-process at ``jobs=0``);
* :mod:`repro.runner.cachekey` — the single source of truth for cache-key
  derivation (point identity + code version, ``+profile`` salting), shared
  by the executor, the CLI, and the serving layer;
* :mod:`repro.runner.cache` — a content-addressed on-disk result cache keyed
  by :func:`~repro.runner.cachekey.point_key`;
* :mod:`repro.runner.pool` — a bounded pool of *persistent* worker processes
  (imports warm, one pipe round-trip per task): the one process model of
  ``repro bench run``, the tuner and ``repro serve``;
* :mod:`repro.runner.result` — the unified ``BenchResult`` JSON schema
  (``BENCH_<suite>.json``);
* :mod:`repro.runner.compare` — the energy/depth regression gate behind
  ``repro bench compare``.

See ``docs/BENCHMARKS.md`` for the full workflow.
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .cachekey import PROFILE_SALT, code_version, point_key, suite_code_version
from .compare import GATED_METRICS, CompareReport, collect_results, compare_results
from .executor import RunConfig, run_points
from .pool import PoolCrash, PoolError, PoolTaskError, PoolTimeout, WorkerPool, mp_context
from .registry import (
    REGISTRY,
    Suite,
    default_bench_dir,
    load_suites,
    point_from_machine,
    register_suite,
    workload_point,
)
from .result import (
    METRIC_NAMES,
    SCHEMA_VERSION,
    PointResult,
    build_bench_result,
    load_bench_result,
    validate_bench_result,
    write_bench_result,
)
from .spec import ExperimentSpec, PointSpec, SweepGrid, canonical_json, spec_hash

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "PROFILE_SALT",
    "code_version",
    "point_key",
    "suite_code_version",
    "GATED_METRICS",
    "CompareReport",
    "collect_results",
    "compare_results",
    "RunConfig",
    "mp_context",
    "run_points",
    "PoolError",
    "PoolTimeout",
    "PoolCrash",
    "PoolTaskError",
    "WorkerPool",
    "REGISTRY",
    "Suite",
    "default_bench_dir",
    "load_suites",
    "point_from_machine",
    "register_suite",
    "workload_point",
    "METRIC_NAMES",
    "SCHEMA_VERSION",
    "PointResult",
    "build_bench_result",
    "load_bench_result",
    "validate_bench_result",
    "write_bench_result",
    "ExperimentSpec",
    "PointSpec",
    "SweepGrid",
    "canonical_json",
    "spec_hash",
]
