"""Resilient sharded front tier: the ``repro fleet`` gateway.

The gateway sits in front of ``shards x replicas`` independent ``repro
serve`` processes and routes each request by **consistent hashing** of its
routing key (algo, n, seed, profile — the identity that also drives the
content-addressed cache).  Identical keys always land on the same shard, so
the shard's micro-batcher co-batches them; different keys spread across the
ring.  Within a shard, a key has a stable preferred replica (affinity keeps
co-batching effective) with the other replicas as failover targets.

Resilience is layered, in order of engagement:

1. **health loop** (:mod:`repro.service.health`) — background liveness +
   readiness probes per replica; routing prefers ready replicas.
2. **circuit breakers** (:mod:`repro.service.breaker`) — one per replica;
   consecutive failures open the breaker and traffic skips the replica
   until a half-open probe succeeds.
3. **deadline-budgeted failover** — a failed or timed-out attempt moves to
   the next replica while the request's overall deadline allows.  An
   attempt runs on a kept-alive connection to its replica under one
   deadline; a kept connection the replica hung up on while it sat idle
   is redialled once within the attempt, uncharged.
4. **hedged requests** — when the first attempt is slow, a bounded fraction
   of requests start a second attempt on another replica; the first answer
   wins and the loser is cancelled.
5. **graceful degradation** — when no replica can answer, the gateway
   serves a stale result from the shared content-addressed disk cache
   (marked ``"degraded": true``) or sheds the request with 503 +
   Retry-After.

Everything timing-related is seeded (breaker jitter, probe jitter) so the
fleet chaos harness (:mod:`repro.service.fleetchaos`) can assert exact
invariants across runs.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from .. import workloads
from ..obs.context import TRACE_HEADER
from ..obs.tracer import ENV_TRACE_DIR, tracer_from_env
from ..runner.cache import DEFAULT_CACHE_DIR, ResultCache
from ..runner.cachekey import suite_code_version
from ..runner.registry import load_suites
from .breaker import BreakerConfig, CircuitBreaker
from .cache import ServiceCache
from .health import BackendState, HealthMonitor
from .httpio import BadRequest, ConnectionPool, HttpFront, json_body, request_once
from .metrics import FleetMetrics
from .protocol import ServiceRequest

__all__ = [
    "FleetConfig",
    "FleetGateway",
    "HashRing",
    "ShardProcess",
    "fleet_main",
    "routing_key",
    "serve_argv",
    "spawn_replicas",
]


def _stable_hash(data: str) -> int:
    """First 8 bytes of sha256 as an int — stable across processes/runs."""
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


def routing_key(request: ServiceRequest) -> str:
    """The request identity the ring hashes on.

    Matches the cache-key inputs (minus code version, which is uniform
    across the fleet) so identical requests co-locate and co-batch."""
    key = f"{request.algo}|{request.n}|{request.seed}|{int(request.profile)}"
    if request.is_auto:
        key += f"|{request.metric}"
    return key


class HashRing:
    """Consistent-hash ring mapping keys onto shard indices.

    ``vnodes`` virtual nodes per shard smooth the key distribution; the
    ring is a pure function of (shards, vnodes), so every gateway instance
    agrees on placement without coordination."""

    def __init__(self, shards: int, vnodes: int = 64) -> None:
        self.shards = max(1, int(shards))
        self.vnodes = max(1, int(vnodes))
        points = sorted(
            (_stable_hash(f"shard-{s}-vnode-{v}"), s)
            for s in range(self.shards)
            for v in range(self.vnodes)
        )
        self._points = points
        self._hashes = [h for h, _ in points]

    def shard_for(self, key: str) -> int:
        i = bisect.bisect_right(self._hashes, _stable_hash(key)) % len(self._points)
        return self._points[i][1]

    def spread(self, keys) -> list[int]:
        """Per-shard key counts — handy for balance tests."""
        counts = [0] * self.shards
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts


@dataclass
class FleetConfig:
    """Knobs for one gateway instance."""

    host: str = "127.0.0.1"
    port: int = 8640
    vnodes: int = 64
    max_inflight: int = 256
    #: overall per-request deadline across all failover attempts
    request_timeout: float = 30.0
    #: per-attempt budget (connect + response) before failing over
    attempt_timeout: float = 5.0
    #: seconds a first attempt may be quiet before a hedge is considered
    hedge_after: float = 0.75
    #: hedges_started stays <= hedge_rate * requests_total (0 disables)
    hedge_rate: float = 0.05
    probe_interval: float = 0.5
    probe_timeout: float = 2.0
    fall: int = 2
    rise: int = 1
    failure_threshold: int = 3
    cooldown: float = 1.0
    max_cooldown: float = 15.0
    seed: int = 0
    cache_dir: str = DEFAULT_CACHE_DIR
    disk_cache: bool = True
    bench_dir: str = ""
    drain_timeout: float = 30.0
    #: span-sink directory; non-empty enables distributed tracing
    trace_dir: str = ""


class _AttemptFailed(Exception):
    """One backend attempt failed; carries the reason for accounting."""

    def __init__(self, backend: BackendState, reason: str, retry_after: str = "") -> None:
        super().__init__(f"{backend.name}: {reason}")
        self.backend = backend
        self.reason = reason
        self.retry_after = retry_after


class FleetGateway(HttpFront):
    """The front-tier HTTP server: route, probe, break, hedge, degrade."""

    name = "repro-fleet"

    def __init__(
        self,
        config: FleetConfig,
        backends: list[list[tuple[str, int]]],
        tracer=None,
    ) -> None:
        if not backends or any(not group for group in backends):
            raise ValueError("every shard needs at least one replica")
        super().__init__(config)
        self.obs = tracer if tracer is not None else tracer_from_env("gateway")
        self.shards: list[list[BackendState]] = []
        flat: list[BackendState] = []
        self.breakers: dict[str, CircuitBreaker] = {}
        bcfg = BreakerConfig(
            failure_threshold=config.failure_threshold,
            cooldown_s=config.cooldown,
            max_cooldown_s=config.max_cooldown,
        )
        for s, group in enumerate(backends):
            states = []
            for r, (host, port) in enumerate(group):
                st = BackendState(
                    name=f"s{s}r{r}", host=host, port=int(port), shard=s, replica=r
                )
                states.append(st)
                flat.append(st)
                self.breakers[st.name] = CircuitBreaker(
                    st.name, bcfg, seed=config.seed * 1000003 + len(flat)
                )
            self.shards.append(states)
        if self.obs.enabled:
            # breaker transitions and health flaps become typed trace events
            # next to their in-memory logs (the banner-print replacement)
            for br in self.breakers.values():
                br.on_transition = self._breaker_event
        self.ring = HashRing(len(self.shards), config.vnodes)
        self.monitor = HealthMonitor(
            flat,
            interval=config.probe_interval,
            timeout=config.probe_timeout,
            fall=config.fall,
            rise=config.rise,
            seed=config.seed,
            on_flip=self._health_event if self.obs.enabled else None,
        )
        self.metrics = FleetMetrics()
        #: kept-alive attempt connections; probes dial their own
        self.pool = ConnectionPool()
        disk = ResultCache(config.cache_dir) if config.disk_cache else None
        #: stale-serving tier: the same content-addressed cache the shards
        #: write through, read here only when no replica can answer
        self.stale_cache = ServiceCache(maxsize=256, disk=disk)
        suites = load_suites(config.bench_dir or None)
        self.code_versions = {
            algo: suite_code_version(suites[w.suite])
            for algo, w in workloads.served().items()
            if w.suite in suites
        }

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        self.monitor.start()

    async def stop(self) -> None:
        await self.monitor.stop()
        await super().stop()
        await self.pool.close()

    def banner(self) -> str:
        replicas = sum(len(g) for g in self.shards)
        return (
            f"shards={len(self.shards)}, replicas={replicas}, "
            f"hedge_rate={self.config.hedge_rate}"
        )

    # -- tracing hooks ----------------------------------------------------
    def _breaker_event(self, name: str, record: dict) -> None:
        self.obs.event(
            "breaker_transition",
            attrs={"backend": name, "from": record["from"], "to": record["to"],
                   "reason": record["reason"]},
        )

    def _health_event(self, backend: BackendState, ready: bool, reason: str) -> None:
        self.obs.event(
            "health_flap",
            attrs={"backend": backend.name, "ready": ready, "reason": reason},
        )

    # -- routing ---------------------------------------------------------
    def _candidates(self, shard: int, key: str) -> list[BackendState]:
        """Replicas of ``shard`` in preference order for ``key``.

        A stable per-key rotation gives each key a preferred replica (so
        repeats co-batch); a stable sort by health rank moves not-ready
        replicas to the back without disturbing the rotation."""
        replicas = self.shards[shard]
        start = _stable_hash(f"replica:{key}") % len(replicas)
        rotated = replicas[start:] + replicas[:start]
        rank = {True: 0, None: 1, False: 2}
        return sorted(rotated, key=lambda st: rank[st.ready])

    async def _attempt(
        self, st: BackendState, path: str, payload: dict, timeout: float, span=None
    ) -> tuple[int, dict, BackendState]:
        """One forwarded request; settles the replica's breaker either way.

        ``span`` is this attempt's already-open ``gateway.attempt`` span (or
        None); its context propagates to the replica via the trace header,
        and it ends here with the attempt's outcome — except on
        cancellation, where :meth:`_settle` ends it as ``cancelled``."""
        br = self.breakers[st.name]
        req_headers = None
        if span is not None:
            req_headers = [(TRACE_HEADER, span.ctx.header_value())]
        try:
            status, headers, doc = await request_once(
                st.host, st.port, "POST", path, payload,
                timeout=timeout, headers=req_headers, pool=self.pool,
            )
        except (
            OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError
        ) as exc:
            reason = type(exc).__name__
            br.record_failure(reason)
            self.metrics.attempt_failed(st.name, reason)
            if span is not None:
                span.set(reason=reason)
                span.end("error")
            raise _AttemptFailed(st, reason) from exc
        if status == 429:
            # the replica answered — just saturated; back off without
            # penalizing the breaker
            br.record_success()
            self.metrics.attempt_failed(st.name, "http 429")
            if span is not None:
                span.set(reason="http 429", status_code=429)
                span.end("error")
            raise _AttemptFailed(st, "http 429", headers.get("retry-after", ""))
        if status >= 500:
            br.record_failure(f"http {status}")
            self.metrics.attempt_failed(st.name, f"http {status}")
            if span is not None:
                span.set(reason=f"http {status}", status_code=status)
                span.end("error")
            raise _AttemptFailed(st, f"http {status}", headers.get("retry-after", ""))
        br.record_success()
        if span is not None:
            span.set(status_code=status)
            span.end("ok")
        return status, doc, st

    async def _settle(
        self,
        tasks: dict[asyncio.Task, tuple[BackendState, object]],
        primary: asyncio.Task | None = None,
    ) -> tuple[int, dict, BackendState] | None:
        """Await racing attempts; first success wins, losers are cancelled.

        ``tasks`` maps each attempt task to ``(backend, span)`` — the span
        (None when tracing is off) was opened before the task was scheduled,
        so even a hedge cancelled before its coroutine first ran still
        records a ``cancelled`` attempt span."""
        pending = set(tasks)
        winner = None
        while pending and winner is None:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for t in done:
                try:
                    winner = t.result()
                except _AttemptFailed:
                    continue
                if primary is not None and t is not primary and len(tasks) > 1:
                    self.metrics.hedge_wins += 1
                break
        for t in pending:
            t.cancel()
            self.metrics.hedges_cancelled += 1
            # the cancelled attempt never settles its breaker: return the
            # half-open probe slot it may be holding
            self.breakers[tasks[t][0].name].release()
        for t in pending:
            with contextlib.suppress(asyncio.CancelledError, _AttemptFailed):
                await t
            span = tasks[t][1]
            if span is not None:
                span.end("cancelled")  # no-op if _attempt already ended it
        return winner

    def _attempt_span(self, st: BackendState, parent, *, hedge: bool):
        """One pre-scheduled ``gateway.attempt`` span (None when disabled).

        Opened *before* the attempt task is created so the span count
        matches the metrics counters exactly, even for hedges cancelled
        before their coroutine first runs."""
        if not self.obs.enabled:
            return None
        return self.obs.start_span(
            "gateway.attempt",
            parent=parent,
            attrs={"backend": st.name, "shard": st.shard, "hedge": hedge},
        )

    async def _forward(
        self,
        path: str,
        payload: dict,
        shard: int,
        key: str,
        *,
        hedge: bool = False,
        parent=None,
    ) -> tuple[int, dict, BackendState] | None:
        """Failover walk over the shard's replicas for ``key`` (two passes)
        within the request deadline; the answer that wins is counted and
        annotated with ``"fleet"``."""
        cfg = self.config
        m = self.metrics
        deadline = time.monotonic() + cfg.request_timeout
        order = self._candidates(shard, key)
        queue = order + order
        first = True
        while queue:
            st = queue.pop(0)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            if not self.breakers[st.name].allow():
                if self.obs.enabled:
                    self.obs.event(
                        "breaker_skip", parent=parent, attrs={"backend": st.name}
                    )
                continue
            timeout = min(cfg.attempt_timeout, remaining)
            span = self._attempt_span(st, parent, hedge=False)
            task = asyncio.create_task(self._attempt(st, path, payload, timeout, span))
            tasks: dict[asyncio.Task, tuple[BackendState, object]] = {task: (st, span)}
            if hedge and first and cfg.hedge_rate > 0 and cfg.hedge_after < timeout:
                done, _ = await asyncio.wait({task}, timeout=cfg.hedge_after)
                if not done:
                    h_st = next(
                        (
                            c for c in queue
                            if c.name != st.name
                            and self.breakers[c.name].would_allow()
                        ),
                        None,
                    )
                    if (
                        h_st is not None
                        and m.hedge_allowed(cfg.hedge_rate)
                        and self.breakers[h_st.name].allow()
                    ):
                        m.hedges_started += 1
                        h_timeout = min(
                            cfg.attempt_timeout, deadline - time.monotonic()
                        )
                        h_span = self._attempt_span(h_st, parent, hedge=True)
                        h_task = asyncio.create_task(
                            self._attempt(h_st, path, payload, h_timeout, h_span)
                        )
                        tasks[h_task] = (h_st, h_span)
            first = False
            outcome = await self._settle(tasks, primary=task)
            if outcome is not None:
                _status, out, winner = outcome
                m.forwarded_by_backend[winner.name] += 1
                if isinstance(out, dict):
                    out["fleet"] = {"shard": shard, "replica": winner.name}
                return outcome
            m.failovers += 1
            if self.obs.enabled:
                self.obs.event("failover", parent=parent, attrs={"from": st.name})
        return None

    # -- degradation -----------------------------------------------------
    def _degrade(
        self, request: ServiceRequest, shard: int, parent=None
    ) -> tuple[int, dict, list]:
        """No replica answered: stale cache hit, else 503 + Retry-After."""
        m = self.metrics
        if not request.is_auto and request.algo in self.code_versions:
            key = request.cache_key(self.code_versions[request.algo])
            payload, tier = self.stale_cache.get(key)
            if payload is not None:
                m.degraded_stale += 1
                if self.obs.enabled:
                    self.obs.event(
                        "stale_degrade",
                        parent=parent,
                        attrs={"shard": shard, "tier": tier},
                    )
                doc = {
                    "ok": True,
                    **request.describe(),
                    "cached": "stale",
                    "batched": False,
                    "degraded": True,
                    "fleet": {"shard": shard, "replica": None, "stale_tier": tier},
                    **payload,
                }
                return 200, doc, []
        m.shed += 1
        waits = [
            self.breakers[st.name].seconds_until_probe()
            for st in self.shards[shard]
        ]
        retry = max(1.0, min(waits)) if waits else 1.0
        return (
            503,
            {
                "ok": False,
                "error": f"no replica available for shard {shard}",
                "degraded": False,
            },
            [("Retry-After", str(int(math.ceil(retry))))],
        )

    # -- request handlers ------------------------------------------------
    async def serve_run(self, body: bytes, headers: dict) -> tuple[int, dict, list]:
        m = self.metrics
        m.request_received()
        doc = json_body(body)
        request = ServiceRequest.from_payload(doc)
        span = self.request_span(
            "gateway.request",
            headers,
            {"algo": request.algo, "n": request.n, "seed": request.seed},
        )
        if self.draining:
            return self.refuse(span, 503, "gateway is draining", outcome="draining")
        if m.inflight >= self.config.max_inflight:
            return self.refuse(span, 429, "gateway at capacity", outcome="rejected")
        key = routing_key(request)
        shard = self.ring.shard_for(key)
        m.routed_by_shard[shard] += 1
        m.request_admitted()
        parent = None
        if span is not None:
            span.set(shard=shard)
            parent = span.ctx
        started = time.monotonic()
        status = 502
        try:
            outcome = await self._forward("/run", doc, shard, key, hedge=True, parent=parent)
            if outcome is not None:
                status, out, st = outcome
                if span is not None:
                    span.set(outcome="forwarded", backend=st.name)
                    if isinstance(out, dict):
                        # annotate the response with this hop's trace identity
                        # and add the gateway stage to the per-stage breakdown
                        trace = out.setdefault(
                            "trace",
                            {"trace_id": span.trace_id, "span_id": span.span_id},
                        )
                        stages = trace.setdefault("stages_ms", {})
                        stages["gateway"] = round(
                            (time.monotonic() - started) * 1000.0, 3
                        )
                return status, out, []
            status, out, extra = self._degrade(request, shard, parent=parent)
            if span is not None:
                span.set(outcome="degraded" if status == 200 else "shed")
            return status, out, extra
        except Exception as exc:  # defensive: the gateway must keep serving
            status = 502
            if span is not None:
                span.set(outcome="error", error=repr(exc)[:200])
            return 502, {"ok": False, "error": f"gateway error: {exc!r}"}, []
        finally:
            self.finish(span, status, started)

    async def serve_plan(self, body: bytes, headers: dict) -> tuple[int, dict, list]:
        """Forward a plan request, routed by its tuning identity (no hedge —
        a cold plan can trigger an expensive tuning run on the shard)."""
        m = self.metrics
        m.request_received()
        doc = json_body(body)
        if not isinstance(doc, dict):
            raise BadRequest("body must be a JSON object")
        if self.draining:
            return self.refuse(None, 503, "gateway is draining")
        cls = str(doc.get("algo_class") or doc.get("algo") or "")
        key = f"plan|{cls}|{doc.get('n')}|{doc.get('metric', 'edp')}"
        shard = self.ring.shard_for(key)
        m.routed_by_shard[shard] += 1
        m.request_admitted()
        # named gateway.plan, not gateway.request: plan forwards have no
        # server.request chain for the collector to demand
        span = self.request_span("gateway.plan", headers, {"shard": shard})
        started = time.monotonic()
        status = 502
        try:
            outcome = await self._forward(
                "/plan", doc, shard, key, parent=span.ctx if span is not None else None
            )
            if outcome is not None:
                status, out, _st = outcome
                return status, out, []
            m.shed += 1
            status = 503
            return (
                503,
                {"ok": False, "error": f"no replica available for shard {shard}"},
                [("Retry-After", "1")],
            )
        except Exception as exc:
            status = 502
            return 502, {"ok": False, "error": f"gateway error: {exc!r}"}, []
        finally:
            self.finish(span, status, started)

    # -- observability ---------------------------------------------------
    def health_doc(self) -> dict:
        return {"status": "ok", "role": "gateway", "draining": self.draining}

    def ready_doc(self) -> dict:
        """Ready when every shard has a ready replica and not draining."""
        per_shard = [sum(1 for st in group if st.ready) for group in self.shards]
        return {
            "ready": not self.draining and all(c > 0 for c in per_shard),
            "draining": self.draining,
            "shards_ready": per_shard,
            "all_ready": all(st.ready for group in self.shards for st in group),
        }

    def metrics_doc(self) -> dict:
        shards = [
            {
                "shard": i,
                "replicas": [st.name for st in group],
                "ready": sum(1 for st in group if st.ready),
            }
            for i, group in enumerate(self.shards)
        ]
        breakers = {name: br.snapshot() for name, br in sorted(self.breakers.items())}
        connects = {
            st.name: self.pool.connects[(st.host, st.port)]
            for group in self.shards
            for st in group
        }
        return self.metrics.snapshot(
            shards=shards,
            breakers=breakers,
            connects=connects,
            health=self.monitor.snapshot(),
            extra={
                "gateway": {
                    "draining": self.draining,
                    "shards": len(self.shards),
                    "replicas": sum(len(g) for g in self.shards),
                    "vnodes": self.ring.vnodes,
                    "hedge_rate": self.config.hedge_rate,
                    "probe_interval_s": self.config.probe_interval,
                    "probe_rounds": self.monitor.rounds,
                },
            },
        )


# -- shard process management -------------------------------------------

_BANNER_RE = re.compile(r"listening on http://[\d.]+:(\d+)")


def serve_argv(
    shard_id: str,
    *,
    port: int = 0,
    workers: int = 1,
    cache_dir: str = "",
    bench_dir: str = "",
) -> list[str]:
    """Build the ``repro serve`` command line for one shard replica."""
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1",
        "--port", str(port),
        "--shard-id", shard_id,
        "--workers", str(workers),
    ]
    if cache_dir:
        argv += ["--cache-dir", cache_dir]
    if bench_dir:
        argv += ["--bench-dir", bench_dir]
    return argv


class ShardProcess:
    """One spawned shard replica: banner-parsed port, log capture, signals."""

    def __init__(self, name: str, argv: list[str], env: dict | None = None) -> None:
        self.name = name
        self.argv = list(argv)
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.log: list[str] = []
        self._banner = threading.Event()

    def start(self, timeout: float = 30.0) -> int:
        self.proc = subprocess.Popen(
            self.argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=self.env,
            start_new_session=True,
        )
        threading.Thread(target=self._pump, daemon=True).start()
        if not self._banner.wait(timeout) or not self.port:
            raise RuntimeError(
                f"{self.name}: no listen banner within {timeout:.0f}s "
                f"(log tail: {self.log[-3:]})"
            )
        return self.port

    def _pump(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        with self.proc.stdout:  # closed at EOF, not left to the collector
            for line in self.proc.stdout:
                self.log.append(line.rstrip("\n"))
                if not self._banner.is_set():
                    match = _BANNER_RE.search(line)
                    if match:
                        self.port = int(match.group(1))
                        self._banner.set()
        self._banner.set()  # EOF without a banner unblocks start()

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def _signal(self, sig: int, group: bool = False) -> None:
        if self.proc is not None and self.proc.poll() is None:
            with contextlib.suppress(ProcessLookupError, OSError):
                if group:
                    # The replica runs in its own session (start_new_session),
                    # so the group covers its forked pool workers too — a bare
                    # SIGKILL to the parent would orphan them forever.
                    os.killpg(os.getpgid(self.proc.pid), sig)
                else:
                    self.proc.send_signal(sig)

    def kill(self) -> None:
        self._signal(signal.SIGKILL, group=True)

    def suspend(self) -> None:
        self._signal(signal.SIGSTOP)

    def resume(self) -> None:
        self._signal(signal.SIGCONT)

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def wait(self, timeout: float = 10.0) -> int | None:
        if self.proc is None:
            return None
        with contextlib.suppress(subprocess.TimeoutExpired):
            return self.proc.wait(timeout)
        return None


def spawn_replicas(
    procs: dict[str, ShardProcess],
    names: list[str],
    *,
    workers: int,
    cache_dir: str,
    bench_dir: str = "",
    trace_dir: str = "",
) -> None:
    """Start a ``repro serve`` replica for each of ``names``, one after another.

    A name already in ``procs`` restarts on its old port.  Each replica is
    entered in ``procs`` before it starts, so the caller's cleanup also
    reaches one that never printed its banner.  ``trace_dir`` traces the
    replicas and, through the environment they pass on, their pool workers.
    """
    env = dict(os.environ, **{ENV_TRACE_DIR: trace_dir}) if trace_dir else None
    for name in names:
        old = procs.get(name)
        argv = serve_argv(
            name,
            port=old.port if old is not None else 0,
            workers=workers,
            cache_dir=cache_dir,
            bench_dir=bench_dir,
        )
        proc = procs[name] = ShardProcess(name, argv, env=env)
        proc.start()


def fleet_main(args) -> int:
    """Entry point for the ``repro fleet`` CLI verb."""
    procs: dict[str, ShardProcess] = {}
    try:
        spawn_replicas(
            procs,
            [f"s{s}r{r}" for s in range(args.shards) for r in range(args.replicas)],
            workers=args.workers,
            cache_dir=args.cache_dir,
            bench_dir=args.bench_dir,
            trace_dir=args.trace_dir,
        )
        for name, proc in procs.items():
            print(f"repro-fleet: shard {name} up on :{proc.port}", flush=True)
        groups = [
            [("127.0.0.1", procs[f"s{s}r{r}"].port) for r in range(args.replicas)]
            for s in range(args.shards)
        ]
        config = FleetConfig(
            host=args.host,
            port=args.port,
            probe_interval=args.probe_interval,
            seed=args.seed,
            cache_dir=args.cache_dir,
            bench_dir=args.bench_dir,
            trace_dir=args.trace_dir,
        )
        return FleetGateway.main(config, groups)
    finally:
        for proc in procs.values():
            proc.terminate()
        for proc in procs.values():
            proc.wait(10)
