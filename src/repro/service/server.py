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

The request path is: admission control (in-flight cap and bounded queue →
429 + Retry-After) → two-tier cache lookup → micro-batcher (identical
in-flight requests coalesce onto one execution) → worker pool.  Each request
races a deadline; losing it returns 504 while any shared execution keeps
running for the other waiters.  SIGTERM/SIGINT triggers a graceful drain:
the listener closes, in-flight requests finish, workers shut down, and the
process exits 0 after printing ``drained cleanly``.

The HTTP handling is deliberately minimal — request line, headers,
``Content-Length`` bodies, keep-alive — and shared with the fleet gateway
and the load generator through :mod:`repro.service.httpio`, because the
protocol surface is a few JSON endpoints, not a general web server.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import time
from dataclasses import dataclass

from ..obs.context import TRACE_HEADER_LOWER, TraceContext
from .. import workloads
from ..obs.tracer import ENV_TRACE_DIR, tracer_from_env
from ..runner.cache import DEFAULT_CACHE_DIR, ResultCache
from ..runner.cachekey import suite_code_version
from ..runner.registry import load_suites
from ..tuner.planner import ServicePlanner
from ..tuner.tuner import TuneError
from .batcher import Batcher
from .cache import ServiceCache
from .executor import ExecutionCrash, ExecutionError, ExecutionTimeout, ServiceExecutor
from .httpio import BadRequest, read_http_request, write_json_response, write_text_response
from .metrics import ServiceMetrics
from .protocol import (
    AUTO_CLASSES,
    AUTO_PREFIX,
    TUNER_SUITE_NAME,
    RequestError,
    ServiceRequest,
    algos_doc,
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
    max_queue: int = 256
    batch_window: float = 0.02
    #: execution deadline; the request deadline adds the batch window + 1s
    timeout: float = 30.0
    memory_cache: int = 512
    cache_dir: str = DEFAULT_CACHE_DIR
    disk_cache: bool = True
    bench_dir: str = ""
    drain_timeout: float = 30.0
    #: tuner plan database answering ``/plan`` and ``auto:`` dispatch
    plan_db: str = "benchmarks/plans/plan_db.json"
    #: fleet identity ("s0r1" = shard 0, replica 1); echoed on /healthz,
    #: /readyz and /metrics so gateways and chaos harnesses can tell
    #: replicas apart
    shard_id: str = ""
    #: span-sink directory; non-empty enables distributed tracing for this
    #: process and (via the inherited environment) its pool workers
    trace_dir: str = ""


class SpatialService:
    """One serving instance: listener, batcher, cache, executor, metrics."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        # the env flag must be set before the executor forks its pool so the
        # workers inherit it and can trace their side of each task
        self._trace_env_set = False
        if config.trace_dir and os.environ.get(ENV_TRACE_DIR, "") != config.trace_dir:
            os.environ[ENV_TRACE_DIR] = config.trace_dir
            self._trace_env_set = True
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
        self.cache = ServiceCache(maxsize=config.memory_cache, disk=disk)
        self.planner = ServicePlanner(
            bench_dir=config.bench_dir or None,
            cache=disk,
            db_path=config.plan_db or None,
        )
        self.batcher = Batcher(window=config.batch_window)
        self.executor = ServiceExecutor(
            workers=config.workers,
            bench_dir=config.bench_dir,
            inline=config.inline,
            timeout=config.timeout,
        )
        self.metrics = ServiceMetrics()
        self.draining = False
        self.port = config.port
        self._server: asyncio.AbstractServer | None = None
        self._executing = 0
        self._writers: set[asyncio.StreamWriter] = set()
        self._bg: set[asyncio.Task] = set()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work; wait for in-flight requests. True if empty."""
        self.draining = True
        if self._server is not None:
            self._server.close()
        self.obs.event("drain_started", attrs={"inflight": self.metrics.inflight})
        budget = self.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while (self.metrics.inflight > 0 or self._bg) and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        clean = self.metrics.inflight == 0 and not self._bg
        self.obs.event(
            "drain_finished",
            attrs={"clean": clean, "inflight": self.metrics.inflight},
        )
        return clean

    async def stop(self) -> None:
        self.draining = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception, asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), 2.0)
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        self.executor.close()
        self.obs.close()
        if self._trace_env_set:
            os.environ.pop(ENV_TRACE_DIR, None)
            self._trace_env_set = False

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

    async def _process(self, request: ServiceRequest, parent=None) -> dict:
        """Cache lookup -> batcher -> executor; returns payload + provenance.

        ``parent`` is the request's open ``server.request`` span when tracing
        is enabled (else None); the cache probe, batch wait, and execution
        each get a child span, and their durations come back as ``stages``
        for the response's trace annotation."""
        plan_doc = None
        stages: dict[str, float] = {}
        if request.is_auto:
            request, plan_doc = await self._resolve_auto(request)
        key = request.cache_key(self.code_versions[request.algo])
        probe = None
        if parent is not None:
            probe = self.obs.start_span("server.cache_probe", parent=parent.ctx)
        payload, tier = self.cache.get(key)
        if probe is not None:
            probe.set(tier=tier or "miss")
            probe.end()
            stages["cache_probe"] = round(probe.duration_ms, 3)
        if tier is not None:
            self.metrics.cache_hit(tier)
            return {
                "payload": payload, "cached": tier, "batched": False, "leader": None,
                "plan": plan_doc, "request": request, "stages": stages,
            }
        self.metrics.cache_misses += 1

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
            self.cache.put(key, request, payload, exec_s)
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
            # a leader's batch span covers the execution too; its queue-side
            # wait is what remains after the execute stage
            wait = bspan.duration_ms - stages.get("execute", 0.0)
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

    async def _serve_run(
        self, body: bytes, headers: dict | None = None
    ) -> tuple[int, dict, list]:
        self.metrics.request_received()
        try:
            doc = json.loads(body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self.metrics.response_only(400)
            return 400, {"ok": False, "error": f"invalid JSON body: {exc}"}, []
        try:
            request = ServiceRequest.from_payload(doc)
        except RequestError as exc:
            self.metrics.response_only(400)
            return 400, {"ok": False, "error": str(exc), "field": exc.field}, []
        span = None
        if self.obs.enabled:
            incoming = TraceContext.parse((headers or {}).get(TRACE_HEADER_LOWER, ""))
            span = self.obs.start_span(
                "server.request",
                parent=incoming,
                attrs={
                    "algo": request.algo, "n": request.n, "seed": request.seed,
                    "shard": self.config.shard_id or None,
                },
            )
        if self.draining:
            self.metrics.response_only(503)
            if span is not None:
                span.set(status_code=503, rejected="draining")
                span.end("error")
            return (
                503,
                {"ok": False, "error": "server is draining"},
                [("Retry-After", "1")],
            )
        if self.metrics.inflight >= self.config.max_inflight:
            self.metrics.rejected += 1
            self.metrics.response_only(429)
            if span is not None:
                span.set(status_code=429, rejected="max_inflight")
                span.end("error")
            return (
                429,
                {"ok": False, "error": "too many in-flight requests"},
                [("Retry-After", "1")],
            )
        if self.queue_depth() >= self.config.max_queue:
            self.metrics.rejected += 1
            self.metrics.response_only(429)
            if span is not None:
                span.set(status_code=429, rejected="queue_full")
                span.end("error")
            return 429, {"ok": False, "error": "queue full"}, [("Retry-After", "1")]

        started = time.monotonic()
        self.metrics.request_admitted(request.algo)
        status = 200
        result: dict = {}
        task = asyncio.create_task(self._process(request, parent=span))
        self._track(task)
        deadline = self.config.timeout + self.config.batch_window + 1.0
        try:
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
            self.metrics.request_finished(status, time.monotonic() - started)
            if span is not None:
                span.set(status_code=status)
                span.end("ok" if status == 200 else "error")
        return status, result, []

    async def _serve_plan(self, body: bytes) -> tuple[int, dict, list]:
        """Resolve a tuning plan (memo/DB/tune) without executing anything."""
        try:
            doc = json.loads(body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self.metrics.response_only(400)
            return 400, {"ok": False, "error": f"invalid JSON body: {exc}"}, []
        if isinstance(doc, dict) and "algo_class" in doc and "algo" not in doc:
            doc = dict(doc)
            doc["algo"] = f"{AUTO_PREFIX}{doc.pop('algo_class')}"
        try:
            request = ServiceRequest.from_payload(doc)
            if not request.is_auto:
                raise RequestError(
                    f"/plan takes an auto: algo or algo_class, got {request.algo!r}",
                    "algo",
                )
        except RequestError as exc:
            self.metrics.response_only(400)
            return 400, {"ok": False, "error": str(exc), "field": exc.field}, []
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
                    "batch_window_s": self.config.batch_window,
                    "max_inflight": self.config.max_inflight,
                    "max_queue": self.config.max_queue,
                    "planner": self.planner.stats(),
                },
            },
        )

    async def _route(
        self,
        method: str,
        path: str,
        query: str = "",
        headers: dict | None = None,
        body: bytes = b"",
    ) -> tuple[int, dict | str, list]:
        if path == "/run":
            if method != "POST":
                self.metrics.response_only(405)
                return 405, {"ok": False, "error": "use POST /run"}, [("Allow", "POST")]
            return await self._serve_run(body, headers)
        if path == "/plan":
            if method != "POST":
                self.metrics.response_only(405)
                return 405, {"ok": False, "error": "use POST /plan"}, [("Allow", "POST")]
            return await self._serve_plan(body)
        if method != "GET":
            self.metrics.response_only(405)
            return 405, {"ok": False, "error": f"{method} not allowed here"}, [("Allow", "GET")]
        if path == "/healthz":
            doc = {"status": "ok", "draining": self.draining}
            if self.config.shard_id:
                doc["shard"] = self.config.shard_id
            return 200, doc, []
        if path == "/readyz":
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
                return 503, doc, [("Retry-After", "1")]
            return 200, doc, []
        if path == "/metrics":
            if "format=prometheus" in (query or ""):
                from .promexport import render_prometheus

                return 200, render_prometheus(self.metrics_doc()), []
            return 200, self.metrics_doc(), []
        if path == "/algos":
            return 200, algos_doc(), []
        if path == "/":
            return (
                200,
                {"endpoints": ["/run", "/plan", "/healthz", "/readyz", "/metrics", "/algos"]},
                [],
            )
        self.metrics.response_only(404)
        return 404, {"ok": False, "error": f"no route for {path}"}, []

    # -- HTTP plumbing (byte-level pieces live in .httpio) ----------------
    async def _handle_conn(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    parsed = await read_http_request(reader)
                except BadRequest as exc:
                    self.metrics.response_only(400)
                    await write_json_response(
                        writer, 400, {"ok": False, "error": str(exc)}, [], False
                    )
                    break
                if parsed is None:
                    break
                method, target, headers, body = parsed
                path, _, query = target.partition("?")
                keep_alive = (
                    not self.draining and headers.get("connection", "").lower() != "close"
                )
                status, doc, extra = await self._route(
                    method.upper(), path, query, headers, body
                )
                if isinstance(doc, str):
                    from .promexport import PROM_CONTENT_TYPE

                    await write_text_response(
                        writer, status, doc, extra, keep_alive,
                        content_type=PROM_CONTENT_TYPE,
                    )
                else:
                    await write_json_response(writer, status, doc, extra, keep_alive)
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()


async def _amain(config: ServiceConfig) -> int:
    service = SpatialService(config)
    await service.start()
    backend = "inline" if config.inline else f"pool({config.workers})"
    shard = f", shard={config.shard_id}" if config.shard_id else ""
    print(
        f"repro-serve: listening on http://{config.host}:{service.port} "
        f"(backend={backend}, window={config.batch_window}s{shard})",
        flush=True,
    )
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop_event.set)
        except NotImplementedError:  # pragma: no cover - non-posix loops
            signal.signal(sig, lambda *_: stop_event.set())
    await stop_event.wait()
    print("repro-serve: draining...", flush=True)
    clean = await service.drain()
    await service.stop()
    total = service.metrics.requests_total
    if clean:
        print(f"repro-serve: drained cleanly after {total} request(s)", flush=True)
        return 0
    print(
        f"repro-serve: drain timed out with {service.metrics.inflight} request(s) "
        "still in flight",
        flush=True,
    )
    return 1


def serve_main(args) -> int:
    """Entry point for the ``repro serve`` CLI verb."""
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        inline=args.inline,
        max_inflight=args.max_inflight,
        max_queue=args.queue,
        batch_window=args.batch_window,
        timeout=args.timeout,
        memory_cache=args.memory_cache,
        cache_dir=args.cache_dir,
        disk_cache=not args.no_disk_cache,
        bench_dir=args.bench_dir,
        drain_timeout=args.drain_timeout,
        plan_db=getattr(args, "plan_db", "benchmarks/plans/plan_db.json"),
        shard_id=getattr(args, "shard_id", "") or "",
        trace_dir=getattr(args, "trace_dir", "") or "",
    )
    return asyncio.run(_amain(config))
