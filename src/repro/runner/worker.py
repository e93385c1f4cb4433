"""The execution core of a sweep point and the worker process around it.

Workers never receive function objects: a task is ``(suite name, params,
seed, profile[, trace])`` and the child re-resolves the suite through
:func:`~repro.runner.registry.load_suites` (a no-op after fork, a fresh
import under spawn).  :func:`run_suite_point` executes one point; it runs
in-process for perfbench, the service's inline backend and ``run_points``
at ``jobs=0``, and inside :func:`pool_worker_main`, the persistent child
of :class:`~repro.runner.pool.WorkerPool` that loops over tasks arriving
on a duplex pipe until told to stop.

A worker that dies without sending anything is treated as a crash by the
pool (replaced; the executor retries the point).
"""

from __future__ import annotations

import traceback

__all__ = ["run_suite_point", "pool_worker_main"]

#: lazily created per-process tracer for pool workers (None until first task
#: with trace context; NullTracer when REPRO_TRACE_DIR is unset)
_TRACER = None


def _worker_tracer():
    global _TRACER
    if _TRACER is None:
        from ..obs.tracer import tracer_from_env

        _TRACER = tracer_from_env("worker")
    return _TRACER


def run_suite_point(
    bench_dir: str,
    suite_name: str,
    params: dict,
    seed: int,
    profile: bool = False,
) -> dict:
    """Resolve ``suite_name`` and execute one point; return its payload dict.

    Raises whatever the point function raises; raises :class:`TypeError`
    when the suite returns something other than the ``point_from_machine()``
    shape.  ``profile`` sets ``REPRO_PROFILE`` for the duration of the call —
    suites build their own SpatialMachine, and the environment flag is how a
    profiler reaches machines we never see constructed (the machine's
    ``profile=None`` default consults REPRO_PROFILE).  The flag is restored
    afterwards so persistent pool workers can interleave profiled and
    unprofiled tasks.
    """
    import os

    import numpy as np

    from .registry import load_suites

    suites = load_suites(bench_dir or None)
    suite = suites[suite_name]
    rng = np.random.default_rng(seed)
    if profile:
        os.environ["REPRO_PROFILE"] = "1"
    try:
        out = suite.fn(dict(params), rng)
    finally:
        if profile:
            os.environ.pop("REPRO_PROFILE", None)
    if not isinstance(out, dict) or "metrics" not in out:
        raise TypeError(
            f"suite {suite_name!r} returned {type(out).__name__}, expected the "
            "point_from_machine() dict"
        )
    return out


def pool_worker_main(conn, bench_dir: str) -> None:
    """Persistent pool child: execute tasks from ``conn`` until shutdown.

    The protocol is one ``(suite_name, params, seed, profile[, trace])``
    tuple per task, answered with ``("ok", payload)`` or ``("error",
    traceback)``.  ``None``, a closed pipe or the parent's exit ends the
    loop: a forked worker inherits the parent ends of the pool's pipes, its
    own included, so a parent that dies unannounced closes none of them.
    The optional fifth element carries distributed-tracing context (parent
    span ids); when present and ``REPRO_TRACE_DIR`` is set, the task runs
    inside a ``worker.execute`` span whose attributes link the request trace
    to the machine-level cost breakdown (energy, messages, and the
    ``phases`` rows of the CostTree when the task was profiled).

    The first message the child ever sends is a ``("ready", pid)`` warm-up
    handshake: the parent pool uses it for readiness reporting (a freshly
    spawned worker that has not yet entered its task loop is "warming"),
    and skips it transparently when it arrives interleaved with a result.
    """
    import os

    parent = os.getppid()
    try:
        conn.send(("ready", os.getpid()))
    except (OSError, ValueError):  # pragma: no cover - parent already gone
        return
    while True:
        try:
            while not conn.poll(1.0):
                if os.getppid() != parent:
                    raise EOFError("parent process exited")
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        suite_name, params, seed, profile, *rest = task
        trace = rest[0] if rest else None
        span = None
        if trace:
            tracer = _worker_tracer()
            if tracer.enabled:
                from ..obs.context import TraceContext

                span = tracer.start_span(
                    "worker.execute",
                    parent=TraceContext(trace["trace"], trace["parent"]),
                    attrs={"suite": suite_name, "seed": int(seed)},
                )
        try:
            out = run_suite_point(bench_dir, suite_name, params, seed, profile)
            msg = ("ok", out)
            if span is not None:
                metrics = out.get("metrics") or {}
                span.set(
                    energy=metrics.get("energy"),
                    messages=metrics.get("messages"),
                    rounds=metrics.get("rounds"),
                    max_depth=metrics.get("max_depth"),
                )
                phases = out.get("phases")
                if phases:
                    # the CostTree link: phase rows render as nested
                    # sub-slices of this span in the merged Chrome trace
                    span.set(phases=phases[:64])
                span.end()
        except BaseException:
            msg = ("error", traceback.format_exc(limit=30))
            if span is not None:
                span.end("error")
        try:
            conn.send(msg)
        except (OSError, ValueError):  # pragma: no cover - parent went away
            break
    try:
        conn.close()
    except Exception:  # pragma: no cover
        pass
