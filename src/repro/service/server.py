"""The asyncio HTTP/1.1 server behind ``repro serve``.

Endpoints (all JSON; see ``docs/SERVICE.md``):

* ``POST /run``   — execute one validated simulation request; ``"algo":
  "auto:<class>"`` resolves the tuned variant through the plan database first
* ``POST /plan``  — resolve a tuning plan without executing it
* ``GET /healthz`` — liveness (reports draining state)
* ``GET /readyz``  — readiness: 503 while the worker pool is warming or the
  server is draining, 200 once it can take traffic (fleet gateways route on
  this, see :mod:`repro.service.fleet`)
* ``GET /metrics`` — counters, latency histograms, cache/batch efficiency
* ``GET /algos``   — served algorithms and admitted size ranges

The request path is: admission control (in-flight cap → 429 + Retry-After)
→ two-tier cache lookup → micro-batcher (identical in-flight requests
coalesce onto one execution) → worker pool.  A cache hit is answered on the
spot; a miss races a deadline, and losing it returns 504 while any shared
execution keeps running for the other waiters.
SIGTERM/SIGINT triggers a graceful drain: the listener closes, in-flight
requests finish, workers shut down, and the process exits 0 after printing
``drained cleanly``.

The listener, the connection loop, the endpoint table and the drain
loop are :class:`~repro.service.httpio.HttpFront`, shared with the fleet
gateway; this module holds what a server answers.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from .. import workloads
from ..obs.tracer import tracer_from_env
from ..runner.cache import DEFAULT_CACHE_DIR, ResultCache
from ..runner.cachekey import suite_code_version
from ..runner.registry import load_suites
from ..tuner.planner import ServicePlanner
from ..tuner.tuner import TuneError
from .batcher import Batcher
from .cache import ServiceCache
from .executor import ExecutionCrash, ExecutionError, ExecutionTimeout, ServiceExecutor
from .httpio import HttpFront, json_body
from .metrics import ServiceMetrics
from .protocol import (
    AUTO_CLASSES,
    AUTO_PREFIX,
    TUNER_SUITE_NAME,
    RequestError,
    ServiceRequest,
)

__all__ = ["ServiceConfig", "SpatialService", "serve_main"]


@dataclass
class ServiceConfig:
    """Knobs for one ``repro serve`` instance."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2
    #: run simulations on event-loop threads instead of the worker pool
    #: (for contexts that cannot fork; disables ``profile`` requests)
    inline: bool = False
    max_inflight: int = 64
    #: execution deadline; the request deadline adds 1s
    timeout: float = 30.0
    cache_dir: str = DEFAULT_CACHE_DIR
    disk_cache: bool = True
    bench_dir: str = ""
    drain_timeout: float = 30.0
    #: tuner plan database answering ``/plan`` and ``auto:`` dispatch; empty
    #: means ``<cache_dir>/plan_db.json``, or plans in memory only when the
    #: disk cache is off
    plan_db: str = ""
    #: fleet identity ("s0r1" = shard 0, replica 1); echoed on /healthz,
    #: /readyz and /metrics so gateways and chaos harnesses can tell
    #: replicas apart
    shard_id: str = ""
    #: span-sink directory; non-empty enables distributed tracing for this
    #: process and (via the inherited environment) its pool workers
    trace_dir: str = ""


class SpatialService(HttpFront):
    """One serving instance: batcher, cache, executor, metrics."""

    name = "repro-serve"

    def __init__(self, config: ServiceConfig) -> None:
        super().__init__(config)
        self.obs = tracer_from_env(f"shard-{config.shard_id}" if config.shard_id else "server")
        suites = load_suites(config.bench_dir or None)
        served = workloads.served()
        missing = [a for a, w in sorted(served.items()) if w.suite not in suites]
        if TUNER_SUITE_NAME not in suites:
            missing.append("auto:*")
        if missing:
            raise RuntimeError(
                f"registry is missing suites for algo(s): {', '.join(missing)}"
            )
        # unsalted per-suite code versions; requests salt for profile runs
        self.code_versions = {
            algo: suite_code_version(suites[w.suite])
            for algo, w in served.items()
        }
        tuner_ver = suite_code_version(suites[TUNER_SUITE_NAME])
        for cls_name in AUTO_CLASSES:
            self.code_versions[f"{AUTO_PREFIX}{cls_name}"] = tuner_ver
        disk = ResultCache(config.cache_dir) if config.disk_cache else None
        self.cache = ServiceCache(disk=disk)
        plan_db = config.plan_db
        if not plan_db and disk is not None:
            plan_db = disk.root / "plan_db.json"
        self.planner = ServicePlanner(
            bench_dir=config.bench_dir or None,
            cache=disk,
            db_path=plan_db or None,
        )
        self.batcher = Batcher()
        self.executor = ServiceExecutor(
            workers=config.workers,
            bench_dir=config.bench_dir,
            inline=config.inline,
            timeout=config.timeout,
        )
        self.metrics = ServiceMetrics()
        self._executing = 0
        self._bg: set[asyncio.Task] = set()

    # -- lifecycle -------------------------------------------------------
    def idle(self) -> bool:
        """No request in flight and no abandoned (504) execution running."""
        return super().idle() and not self._bg

    async def stop(self) -> None:
        await super().stop()
        self.executor.close()

    def banner(self) -> str:
        backend = "inline" if self.config.inline else f"pool({self.config.workers})"
        shard = f", shard={self.config.shard_id}" if self.config.shard_id else ""
        return f"backend={backend}{shard}"

    # -- request processing ---------------------------------------------
    def queue_depth(self) -> int:
        """Admitted requests not currently occupying an execution slot."""
        return max(0, self.metrics.inflight - self._executing)

    async def _resolve_auto(self, request: ServiceRequest) -> tuple[ServiceRequest, dict]:
        """Plan an ``auto:`` request; returns (resolved request, provenance)."""
        try:
            plan, source = await asyncio.to_thread(
                self.planner.plan,
                request.algo_class,
                request.n,
                request.metric,
                request.seed,
            )
        except TuneError as exc:
            raise ExecutionError(str(exc)) from exc
        resolved = request.resolve(plan.best_config.params(request.n))
        provenance = {
            "config": dict(plan.best["config"]),
            "label": plan.best["label"],
            "metric": plan.metric,
            "value": plan.best["value"],
            "source": source,
        }
        return resolved, provenance

    def _probe(
        self, request: ServiceRequest, key: str, plan_doc: dict | None, parent, stages: dict
    ) -> dict | None:
        """Look ``key`` up in the cache: ``request``'s result on a hit, else None.

        Counts the hit or miss; ``parent`` is the request's open
        ``server.request`` span (None when tracing is off), under which the
        probe gets its ``server.cache_probe`` span and ``stages`` entry."""
        probe = None
        if parent is not None:
            probe = self.obs.start_span("server.cache_probe", parent=parent.ctx)
        payload, tier = self.cache.get(key)
        if probe is not None:
            probe.set(tier=tier or "miss")
            probe.end()
            stages["cache_probe"] = round(probe.duration_ms, 3)
        if tier is None:
            self.metrics.cache_misses += 1
            return None
        self.metrics.cache_hit(tier)
        return {
            "payload": payload, "cached": tier, "batched": False, "leader": None,
            "plan": plan_doc, "request": request, "stages": stages,
        }

    async def _process(
        self, request: ServiceRequest, parent=None, key: str | None = None,
        stages: dict | None = None,
    ) -> dict:
        """Batcher -> executor for a cache miss; returns payload + provenance.

        A plain request comes here already probed, with its cache ``key``
        and its ``stages`` so far.  An ``auto:`` request resolves its plan
        and is probed here first.  ``parent`` is the request's open
        ``server.request`` span when tracing is enabled (else None); the
        batch wait, the execution and the cache write each get a child span,
        and their durations join ``stages`` for the response's trace
        annotation."""
        plan_doc = None
        if request.is_auto:
            request, plan_doc = await self._resolve_auto(request)
            key, stages = request.cache_key(self.code_versions[request.algo]), {}
            hit = self._probe(request, key, plan_doc, parent, stages)
            if hit is not None:
                return hit

        async def _execute() -> dict:
            self._executing += 1
            espan = None
            if parent is not None:
                espan = self.obs.start_span(
                    "server.execute",
                    parent=parent.ctx,
                    attrs={"backend": "inline" if self.config.inline else "pool"},
                )
            try:
                payload, exec_s = await self.executor.execute(
                    request, trace=espan.ctx if espan is not None else None
                )
            except BaseException:
                self.metrics.execution_failures += 1
                if espan is not None:
                    espan.end("error")
                raise
            finally:
                self._executing -= 1
                self.metrics.executions += 1
            if espan is not None:
                espan.set(exec_s=round(exec_s, 6))
                espan.end()
                stages["execute"] = round(espan.duration_ms, 3)
            self.metrics.execution_latency.observe(exec_s)
            # written before the batch closes, so a later duplicate hits memory
            cspan = None
            if parent is not None:
                cspan = self.obs.start_span("server.cache_write", parent=parent.ctx)
            self.cache.put(key, request, payload, exec_s)
            if cspan is not None:
                cspan.end()
                stages["cache_write"] = round(cspan.duration_ms, 3)
            return payload

        bspan = None
        if parent is not None:
            bspan = self.obs.start_span("server.batch", parent=parent.ctx)
        outcome = await self.batcher.submit(key, _execute)
        if bspan is not None:
            bspan.set(
                leader=outcome.leader, batched=outcome.batched,
                batch_size=getattr(outcome, "batch_size", None),
            )
            bspan.end()
            # a leader's batch span covers the execution and the cache write
            # too; its queue-side wait is what remains after those stages
            wait = bspan.duration_ms - stages.get("execute", 0.0)
            wait -= stages.get("cache_write", 0.0)
            stages["batch_wait"] = round(max(0.0, wait), 3)
        if outcome.leader:
            if outcome.batched:
                self.metrics.batched_executions += 1
        else:
            self.metrics.coalesced_requests += 1
        return {
            "payload": outcome.payload, "cached": False, "batched": outcome.batched,
            "leader": outcome.leader, "plan": plan_doc, "request": request,
            "stages": stages,
        }

    def _track(self, task: asyncio.Task) -> None:
        self._bg.add(task)

        def _done(t: asyncio.Task) -> None:
            self._bg.discard(t)
            if not t.cancelled():
                t.exception()  # retrieved; abandoned (504) leaders stay quiet

        task.add_done_callback(_done)

    async def serve_run(self, body: bytes, headers: dict) -> tuple[int, dict, list]:
        self.metrics.request_received()
        request = ServiceRequest.from_payload(json_body(body))
        span = self.request_span(
            "server.request",
            headers,
            {
                "algo": request.algo, "n": request.n, "seed": request.seed,
                "shard": self.config.shard_id or None,
            },
        )
        if self.draining:
            return self.refuse(span, 503, "server is draining", rejected="draining")
        if self.metrics.inflight >= self.config.max_inflight:
            return self.refuse(span, 429, "too many in-flight requests", rejected="max_inflight")

        started = time.monotonic()
        self.metrics.request_admitted(request.algo)
        status = 200
        result: dict = {}
        deadline = self.config.timeout + 1.0
        try:
            out = key = stages = None
            if not request.is_auto:
                key, stages = request.cache_key(self.code_versions[request.algo]), {}
                out = self._probe(request, key, None, span, stages)
            if out is None:
                task = asyncio.create_task(self._process(request, span, key, stages))
                self._track(task)
                out = await asyncio.wait_for(asyncio.shield(task), deadline)
            result = {
                "ok": True,
                **out.get("request", request).describe(),
                "cached": out["cached"] or False,
                "batched": out["batched"],
                "wall_time_s": round(time.monotonic() - started, 6),
                **out["payload"],
            }
            if out.get("plan") is not None:
                result["plan"] = out["plan"]
            if span is not None:
                span.set(
                    cached=out["cached"] or False,
                    batched=out["batched"],
                    leader=out.get("leader"),
                )
                stages = dict(out.get("stages") or {})
                stages["total"] = round((time.monotonic() - started) * 1000.0, 3)
                result["trace"] = {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "stages_ms": stages,
                }
        except asyncio.TimeoutError:
            status = 504
            self.metrics.timeouts += 1
            result = {"ok": False, "error": f"request timed out after {deadline:.1f}s"}
        except ExecutionCrash as exc:
            status = 504
            self.metrics.crashed += 1
            result = {"ok": False, "error": str(exc)}
            self.obs.event(
                "worker_crash",
                parent=span.ctx if span is not None else None,
                attrs={"algo": request.algo, "error": str(exc)[:200]},
            )
        except ExecutionTimeout as exc:
            status = 504
            self.metrics.timeouts += 1
            result = {"ok": False, "error": str(exc)}
        except RequestError as exc:
            status = 400
            result = {"ok": False, "error": str(exc), "field": exc.field}
        except ExecutionError as exc:
            status = 500
            result = {"ok": False, "error": str(exc)}
        except Exception as exc:  # defensive: never tear the connection down
            status = 500
            result = {"ok": False, "error": f"internal error: {exc!r}"}
        finally:
            self.finish(span, status, started)
        return status, result, []

    async def serve_plan(self, body: bytes, headers: dict) -> tuple[int, dict, list]:
        """Resolve a tuning plan (memo/DB/tune) without executing anything."""
        doc = json_body(body)
        if isinstance(doc, dict) and "algo_class" in doc and "algo" not in doc:
            doc = dict(doc)
            doc["algo"] = f"{AUTO_PREFIX}{doc.pop('algo_class')}"
        request = ServiceRequest.from_payload(doc)
        if not request.is_auto:
            raise RequestError(
                f"/plan takes an auto: algo or algo_class, got {request.algo!r}", "algo"
            )
        if self.draining:
            self.metrics.response_only(503)
            return 503, {"ok": False, "error": "server is draining"}, []
        try:
            plan, source = await asyncio.to_thread(
                self.planner.plan,
                request.algo_class,
                request.n,
                request.metric,
                request.seed,
            )
        except TuneError as exc:
            self.metrics.response_only(500)
            return 500, {"ok": False, "error": str(exc)}, []
        self.metrics.response_only(200)
        return (
            200,
            {
                "ok": True,
                "algo_class": request.algo_class,
                "n": request.n,
                "metric": request.metric,
                "seed": request.seed,
                "plan": dict(plan.best),
                "counts": dict(plan.counts),
                "pareto": list(plan.pareto),
                "source": source,
                "code_version": plan.code_version,
                "space_hash": plan.space_hash,
            },
            [],
        )

    def health_doc(self) -> dict:
        doc = {"status": "ok", "draining": self.draining}
        if self.config.shard_id:
            doc["shard"] = self.config.shard_id
        return doc

    def ready_doc(self) -> dict:
        reason = ""
        if self.draining:
            reason = "draining"
        elif not self.executor.ready():
            reason = "warming"
        doc = {"ready": not reason, "draining": self.draining}
        if self.config.shard_id:
            doc["shard"] = self.config.shard_id
        if reason:
            doc["reason"] = reason
        return doc

    def metrics_doc(self) -> dict:
        return self.metrics.snapshot(
            queue_depth=self.queue_depth(),
            extra={
                "service": {
                    "shard": self.config.shard_id,
                    "draining": self.draining,
                    "executor": self.executor.stats(),
                    "open_batches": self.batcher.depth(),
                    "memory_cache_entries": len(self.cache),
                    "max_inflight": self.config.max_inflight,
                    "planner": self.planner.stats(),
                },
            },
        )


def serve_main(args) -> int:
    """Entry point for the ``repro serve`` CLI verb."""
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        inline=args.inline,
        timeout=args.timeout,
        cache_dir=args.cache_dir,
        bench_dir=args.bench_dir,
        plan_db=args.plan_db,
        shard_id=args.shard_id,
        trace_dir=args.trace_dir,
    )
    return SpatialService.main(config)
