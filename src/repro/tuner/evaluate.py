"""Configuration evaluation through the runner's executor and cache.

The tuner never measures a configuration itself — every evaluation is a
sweep point of the registered ``tuner`` suite (``benchmarks/bench_tuner.py``),
run by :func:`repro.runner.executor.run_points` and keyed through
:mod:`repro.runner.cachekey` exactly like ``repro bench run`` and the
serving layer.  Consequences:

* ``jobs > 0`` evaluates on the runner's worker pool (process isolation,
  timeouts, retries) with zero new machinery, and ``jobs=0`` in-process,
  for hosts that must not fork (the service's planner runs on event-loop
  threads) and for tiny grids; both write the same cache entries;
* the content-addressed cache is shared — a config measured by the CLI
  warms ``plan_for`` and the ``/plan`` endpoint, and vice versa;
* PlanDB staleness falls out of ``suite_code_version``: any source change
  re-keys every evaluation.
"""

from __future__ import annotations

from pathlib import Path

from ..runner.cache import ResultCache
from ..runner.cachekey import suite_code_version
from ..runner.executor import RunConfig, run_points
from ..runner.registry import Suite, load_suites
from ..runner.result import PointResult
from ..runner.spec import PointSpec
from .space import TuneConfig

__all__ = ["TUNER_SUITE", "Evaluator"]

#: the registered suite every tuner evaluation runs through
TUNER_SUITE = "tuner"


class Evaluator:
    """Measure configurations as ``tuner``-suite points, cache-first."""

    def __init__(
        self,
        bench_dir: str | Path | None = None,
        cache: ResultCache | None = None,
        *,
        jobs: int = 0,
        timeout: float = 300.0,
        log=None,
    ) -> None:
        self.bench_dir = str(bench_dir or "")
        suites = load_suites(bench_dir)
        try:
            self.suite: Suite = suites[TUNER_SUITE]
        except KeyError:
            raise RuntimeError(
                f"the benchmark registry has no {TUNER_SUITE!r} suite; "
                "is benchmarks/bench_tuner.py present?"
            ) from None
        self.cache = cache
        self.jobs = int(jobs)  # 0 => in-process, no forking
        self.timeout = float(timeout)
        self.log = log
        self.code_version = suite_code_version(self.suite)
        self.executed = 0
        self.cache_hits = 0

    def evaluate(
        self, configs: list[TuneConfig], n: int, seed: int
    ) -> list[PointResult]:
        """Measure ``configs`` at ``(n, seed)``; one PointResult per config."""
        results = run_points(
            self.suite,
            [PointSpec(suite=TUNER_SUITE, params=c.params(n), seed=seed) for c in configs],
            RunConfig(jobs=self.jobs, timeout=self.timeout, use_cache=self.cache is not None),
            cache=self.cache,
            code_ver=self.code_version,
            bench_dir=self.bench_dir,
            log=self.log,
        )
        hits = sum(1 for r in results if r.cached)
        self.cache_hits += hits
        self.executed += len(results) - hits
        return results
