"""Sweep execution with timeouts, retry, and graceful degradation.

The executor runs a suite's uncached points on one
:class:`~repro.runner.pool.WorkerPool` of ``min(jobs, points)`` worker
*processes*, one calling thread each, so a segfaulting or runaway point can
never take the parent — or the rest of the sweep — down:

* **per-task timeout** — a point that exceeds its deadline has its worker
  killed and is recorded as ``status: "failed"`` (``error: "timeout ..."``);
* **bounded retry with backoff** — a worker that dies without reporting
  (crash, OOM-kill) is replaced and the point retried up to ``retries``
  times with exponential backoff; exhaustion records a failure.  Exceptions
  *inside* the point function are deterministic and are not retried;
* **graceful degradation** — every failure becomes a failed
  :class:`PointResult`; the sweep always runs to completion.

``jobs=0`` runs the points in-process instead (no fork, no deadline).
Completed points are stored in the :class:`~repro.runner.cache.ResultCache`
(when one is given) so re-running an unchanged spec only replays JSON reads.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .cache import ResultCache
from .cachekey import point_key
from .pool import PoolCrash, PoolTaskError, PoolTimeout, WorkerPool
from .registry import Suite
from .result import PointResult
from .spec import PointSpec
from .worker import run_suite_point

__all__ = ["RunConfig", "retry_delay", "run_points"]


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one sweep execution."""

    jobs: int = 2
    timeout: float = 300.0
    retries: int = 2
    backoff: float = 0.25
    jitter: float = 0.5
    use_cache: bool = True
    #: run every point under a SpatialProfiler (sets REPRO_PROFILE in workers)
    profile: bool = False


def retry_delay(config: RunConfig, point_seed: int, index: int, attempt: int) -> float:
    """Backoff before retrying a crashed worker: exponential plus jitter.

    The jitter term desynchronizes retries when several workers die at once
    (e.g. an OOM sweep) so they do not stampede back in lockstep, yet it is
    *deterministic*: drawn from a generator seeded by the point's own seed,
    its sweep index, and the attempt number, so re-running a sweep reproduces
    the exact same schedule.  ``config.jitter`` scales the spread — delay is
    uniform in ``[base, base * (1 + jitter)]`` with ``base = backoff * 2^a``.
    """
    base = config.backoff * (2**attempt)
    if config.jitter <= 0.0:
        return base
    rng = np.random.default_rng((point_seed, index, attempt))
    return base * (1.0 + config.jitter * float(rng.random()))


def _run_here(bench_dir: str, suite_name: str, params: dict, seed: int,
              profile: bool, *, timeout: float) -> dict:
    """:meth:`WorkerPool.run` in the calling process (``timeout`` unused)."""
    try:
        return run_suite_point(bench_dir, suite_name, params, seed, profile)
    except Exception:
        raise PoolTaskError(traceback.format_exc(limit=30)) from None


def run_points(
    suite: Suite,
    points: list[PointSpec],
    config: RunConfig,
    *,
    cache: ResultCache | None = None,
    code_ver: str = "",
    bench_dir: str | Path = "",
    log: Callable[[str], None] | None = None,
) -> list[PointResult]:
    """Execute ``points`` of ``suite``; return one PointResult per point, in order.

    An exception raised while points run (by ``log``, say) stops the sweep
    and propagates once every worker has been stopped.
    """
    say = log if log is not None else (lambda _msg: None)
    timeout = suite.timeout if suite.timeout is not None else config.timeout
    use_cache = config.use_cache and cache is not None
    results: list[PointResult | None] = [None] * len(points)
    todo: list[int] = []
    for i, pt in enumerate(points):
        results[i] = cache.get(point_key(pt, code_ver)) if use_cache else None
        if results[i] is None:
            todo.append(i)
        else:
            say(f"  [{suite.name}] {pt.label()}: cached")

    def execute(run, i: int) -> None:
        """Run point ``i`` through ``run`` until it reports, fails for good,
        or exhausts its crash retries; record and cache the outcome."""
        pt = points[i]
        for attempt in range(config.retries + 1):
            started = time.monotonic()
            try:
                out = run(suite.name, pt.params, pt.seed, config.profile, timeout=timeout)
            except PoolTimeout:
                outcome = dict(status="failed", error=f"timeout after {timeout:.1f}s")
            except PoolTaskError as exc:
                outcome = dict(status="failed", error=str(exc))
            except PoolCrash as exc:
                if attempt < config.retries:
                    delay = retry_delay(config, pt.seed, i, attempt)
                    say(
                        f"  [{suite.name}] {pt.label()}: {exc}, "
                        f"retry {attempt + 1}/{config.retries} in {delay:.2f}s"
                    )
                    time.sleep(delay)
                    continue
                outcome = dict(status="failed", error=f"{exc} on all {attempt + 1} attempts")
            else:
                outcome = dict(
                    status="ok",
                    metrics=out["metrics"],
                    phases=out.get("phases", []),
                    extra=out.get("extra", {}),
                    profile=out.get("profile"),
                )
            break
        res = results[i] = PointResult(
            params=dict(pt.params),
            seed=pt.seed,
            repeat=pt.repeat,
            attempts=attempt + 1,
            wall_time_s=time.monotonic() - started,
            **outcome,
        )
        if res.ok and use_cache:
            cache.put(point_key(pt, code_ver), res)
        state = "ok" if res.ok else f"FAILED ({(res.error or '?').splitlines()[-1][:80]})"
        say(f"  [{suite.name}] {pt.label()}: {state} in {res.wall_time_s:.2f}s")

    if config.jobs <= 0:
        for i in todo:
            execute(partial(_run_here, str(bench_dir)), i)
    elif todo:
        n = min(config.jobs, len(todo))
        # leaving the pool first kills the points in flight, so the threads
        # return at once when the sweep unwinds
        with ThreadPoolExecutor(n) as threads, WorkerPool(n, str(bench_dir)) as pool:
            for done in as_completed([threads.submit(execute, pool.run, i) for i in todo]):
                done.result()
    return results
