"""Closed-loop load generator for the serving layer.

``run_load`` drives ``N`` requests through a fixed set of persistent
connections: every worker opens its connection, all workers start together
(so the server really sees ``concurrency`` simultaneous requests), and each
worker issues its next request as soon as the previous response lands.

The request mix is pre-generated from a seed over small algo/size/seed
pools, which has two useful consequences: duplicates exist (so coalescing
and cache hits actually happen under load), and the multiset of requests —
hence the summed model metrics in the report — is a pure function of
``(count, seed)`` no matter how the requests interleave.  That determinism
is what lets ``benchmarks/bench_service.py`` gate on the summed metrics.

Back-pressure is honored, not counted as failure: a 429 or 503 answer with
``Retry-After`` makes the worker sleep for the server's hint (with seeded
jitter so a fleet of loadgen workers does not retry in lockstep) and resend,
up to ``max_retries`` times.  Only the final status of a request is
recorded, so the report's summed model metrics stay a pure function of the
request multiset even when the server sheds load mid-run.

Each worker sends through :func:`~repro.service.httpio.request_once` on a
:class:`~repro.service.httpio.ConnectionPool` of its own, so it follows the
gateway's reconnect rule: a kept connection the server closed before the
status line is redialled once; any other failure ends the request as an
error.

Also usable directly::

    python -m repro.service.loadgen --port 8642 --requests 200 --require-hits 1
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import random
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from ..obs.collect import print_stage_table, stage_rows
from ..obs.context import TRACE_HEADER, deterministic_span_id, deterministic_trace_id
from ..obs.tracer import make_tracer, tracer_from_env
from .httpio import ConnectionPool, request_once

__all__ = ["DEFAULT_MIX", "LoadReport", "build_requests", "fetch_metrics", "run_load", "wait_ready"]

#: (algo, candidate sizes) pools the generator draws from; deliberately small
#: so a few hundred requests revisit the same (algo, n, seed) keys
DEFAULT_MIX = (
    ("scan", (256, 1024, 4096)),
    ("sort", (256, 1024)),
    ("select", (256, 1024)),
    ("spmv", (16, 64)),
)

#: model metrics summed (vs maxed) across responses when aggregating
_SUM_METRICS = ("energy", "messages", "rounds")
_MAX_METRICS = ("max_depth", "max_distance")


def build_requests(
    count: int,
    seed: int,
    *,
    mix: tuple = DEFAULT_MIX,
    seed_pool: int = 3,
) -> list[dict]:
    """Deterministic request multiset for ``(count, seed)``, drawn uniformly
    from the ``mix`` pools; ``benchmarks/bench_service.py`` gates on it."""
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        algo, sizes = mix[rng.randrange(len(mix))]
        requests.append(
            {
                "algo": algo,
                "n": sizes[rng.randrange(len(sizes))],
                "seed": rng.randrange(seed_pool),
            }
        )
    return requests


@dataclass
class LoadReport:
    """Client-side view of one load run."""

    requests: int = 0
    ok: int = 0
    by_status: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    cache_hits: int = 0
    batched: int = 0
    #: 429/503 responses resent after honoring Retry-After (not failures)
    backoff_retries: int = 0
    #: responses marked ``"degraded": true`` (stale cache served by a gateway)
    degraded: int = 0
    latencies_s: list = field(default_factory=list)
    wall_s: float = 0.0
    model_metrics: dict = field(default_factory=dict)
    #: per-stage latency samples (ms) from response ``trace`` annotations:
    #: server stages (cache_probe/batch_wait/execute/total), the gateway
    #: stage, and the derived client-side network remainder
    stage_ms: dict = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        """Requests that never got an HTTP response."""
        return len(self.errors)

    def throughput_rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def record(self, status: int, doc: dict, latency_s: float) -> None:
        self.by_status[status] += 1
        self.latencies_s.append(latency_s)
        if status != 200 or not doc.get("ok"):
            return
        self.ok += 1
        if doc.get("cached"):
            self.cache_hits += 1
        if doc.get("batched"):
            self.batched += 1
        if doc.get("degraded"):
            self.degraded += 1
        metrics = doc.get("metrics") or {}
        for name in _SUM_METRICS:
            if name in metrics:
                self.model_metrics[name] = self.model_metrics.get(name, 0) + metrics[name]
        for name in _MAX_METRICS:
            if name in metrics:
                self.model_metrics[name] = max(self.model_metrics.get(name, 0), metrics[name])
        trace = doc.get("trace")
        if isinstance(trace, dict):
            stages = trace.get("stages_ms") or {}
            for name, value in stages.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self.stage_ms.setdefault(name, []).append(float(value))
            # the client-observed remainder: wire + connect + queueing in
            # front of whichever tier annotated the response
            upstream = stages.get("gateway", stages.get("total"))
            if isinstance(upstream, (int, float)) and not isinstance(upstream, bool):
                net = max(0.0, latency_s * 1000.0 - float(upstream))
                self.stage_ms.setdefault("network (client)", []).append(net)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "dropped": self.dropped,
            "by_status": {str(k): v for k, v in sorted(self.by_status.items())},
            "errors": list(self.errors[:20]),
            "cache_hits": self.cache_hits,
            "batched": self.batched,
            "backoff_retries": self.backoff_retries,
            "degraded": self.degraded,
            "wall_s": round(self.wall_s, 4),
            "throughput_rps": round(self.throughput_rps(), 2),
            "latency_p50_ms": round(self.latency_quantile(0.50) * 1000.0, 3),
            "latency_p95_ms": round(self.latency_quantile(0.95) * 1000.0, 3),
            "latency_p99_ms": round(self.latency_quantile(0.99) * 1000.0, 3),
            "latency_max_ms": round(max(self.latencies_s) * 1000.0, 3) if self.latencies_s else 0.0,
            "model_metrics": dict(self.model_metrics),
            "stages_ms": stage_rows(self.stage_ms),
        }


async def fetch_metrics(host: str, port: int, timeout: float = 10.0) -> dict:
    """One-shot ``GET /metrics``."""
    _status, _headers, doc = await request_once(host, port, "GET", "/metrics", timeout=timeout)
    return doc


async def wait_ready(host: str, port: int, timeout: float = 10.0) -> bool:
    """Poll ``/healthz`` until the server answers or the timeout lapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with contextlib.suppress(OSError, asyncio.TimeoutError, ConnectionError, ValueError):
            status, _headers, _doc = await request_once(host, port, "GET", "/healthz", timeout=2.0)
            if status == 200:
                return True
        await asyncio.sleep(0.05)
    return False


async def run_load(
    host: str,
    port: int,
    requests: list[dict],
    *,
    concurrency: int = 16,
    timeout: float = 30.0,
    max_retries: int = 8,
    backoff_seed: int = 0,
    tracer=None,
) -> LoadReport:
    """Drive ``requests`` through ``concurrency`` persistent connections.

    429/503 responses are resent after sleeping for the server's
    ``Retry-After`` hint (seeded jitter, up to ``max_retries`` per request);
    only the final status is recorded.  ``timeout`` bounds each request.

    ``tracer`` (or the ``REPRO_TRACE_DIR`` environment) enables distributed
    tracing: each request gets a root ``loadgen.request`` span with
    deterministic ids (a pure function of ``backoff_seed`` and the request
    index), and its context propagates downstream via the trace header.
    """
    report = LoadReport(requests=len(requests))
    obs = tracer if tracer is not None else tracer_from_env("loadgen")
    own_tracer = tracer is None and obs.enabled
    pending = deque(enumerate(requests))
    workers = max(1, min(int(concurrency), len(requests)))
    ready = 0
    start_gate = asyncio.Event()

    async def worker(windex: int) -> None:
        nonlocal ready
        rng = random.Random((backoff_seed << 16) ^ windex)
        pool = ConnectionPool()
        await pool.park((host, port))
        try:
            ready += 1
            if ready == workers:
                start_gate.set()
            await start_gate.wait()
            while True:
                try:
                    idx, payload = pending.popleft()
                except IndexError:
                    return
                span = None
                trace_headers = None
                if obs.enabled:
                    span = obs.start_span(
                        "loadgen.request",
                        trace_id=deterministic_trace_id("load", backoff_seed, idx),
                        span_id=deterministic_span_id("load", backoff_seed, idx),
                        attrs={"algo": payload["algo"], "n": payload["n"], "index": idx},
                    )
                    trace_headers = [(TRACE_HEADER, span.ctx.header_value())]
                t0 = time.monotonic()
                retries = 0
                while True:
                    try:
                        status, headers, doc = await request_once(
                            host, port, "POST", "/run", payload,
                            timeout=timeout, headers=trace_headers, pool=pool,
                        )
                    except (
                        OSError, asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError
                    ) as exc:
                        report.errors.append(f"{payload['algo']}/{payload['n']}: {exc!r}")
                        if span is not None:
                            span.set(error=repr(exc)[:200])
                            span.end("error")
                        return
                    if status in (429, 503) and retries < max_retries:
                        retries += 1
                        report.backoff_retries += 1
                        try:
                            base = float(headers.get("retry-after", "") or 0.5)
                        except ValueError:
                            base = 0.5
                        base = min(max(base, 0.05), 5.0)
                        # seeded jitter: sleep 0.5x..1.5x of the server hint
                        await asyncio.sleep(base * (0.5 + rng.random()))
                        continue
                    break
                report.record(status, doc, time.monotonic() - t0)
                if span is not None:
                    span.set(status_code=status, retries=retries)
                    span.end("ok" if status == 200 else "error")
        finally:
            await pool.close()

    t_start = time.monotonic()
    outcomes = await asyncio.gather(
        *(worker(i) for i in range(workers)), return_exceptions=True
    )
    report.wall_s = time.monotonic() - t_start
    for out in outcomes:
        if isinstance(out, BaseException):
            report.errors.append(f"worker crashed: {out!r}")
    if own_tracer:
        obs.close()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Closed-loop load generator for `repro serve`.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--wait", type=float, default=0.0, help="seconds to wait for /healthz first")
    parser.add_argument("--out", default="", help="write the load report JSON here")
    parser.add_argument("--metrics-out", default="", help="scrape /metrics afterwards into this file")
    parser.add_argument("--require-hits", type=int, default=0, help="fail unless >= N cache hits")
    parser.add_argument(
        "--require-batched", type=int, default=0, help="fail unless >= N responses were batched"
    )
    parser.add_argument(
        "--slo-p99-ms", type=float, default=0.0,
        help="fail when the client-observed p99 latency exceeds this bound (0 disables)",
    )
    parser.add_argument(
        "--trace-dir", default="",
        help="span-sink directory: emit a root span per request and propagate "
        "its context downstream via the trace header",
    )
    args = parser.parse_args(argv)

    if args.wait > 0 and not asyncio.run(wait_ready(args.host, args.port, args.wait)):
        print(f"loadgen: no /healthz from {args.host}:{args.port} after {args.wait}s", file=sys.stderr)
        return 2

    requests = build_requests(args.requests, args.seed)
    tracer = None
    if args.trace_dir:
        tracer = make_tracer("loadgen", args.trace_dir, seed=args.seed)
    report = asyncio.run(
        run_load(
            args.host,
            args.port,
            requests,
            concurrency=args.concurrency,
            backoff_seed=args.seed,
            tracer=tracer,
        )
    )
    if tracer is not None:
        tracer.close()
    doc = report.as_dict()
    print(
        f"loadgen: {report.ok}/{report.requests} ok, {report.dropped} dropped, "
        f"{report.cache_hits} cache hits, {report.batched} batched, "
        f"{report.backoff_retries} backoff retries, "
        f"{doc['throughput_rps']} req/s, p95 {doc['latency_p95_ms']}ms, "
        f"p99 {doc['latency_p99_ms']}ms"
    )
    print_stage_table(doc["stages_ms"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"loadgen: report -> {args.out}")
    if args.metrics_out:
        metrics = asyncio.run(fetch_metrics(args.host, args.port, timeout=30.0))
        with open(args.metrics_out, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
        print(f"loadgen: metrics -> {args.metrics_out}")

    failures = []
    if report.dropped:
        failures.append(f"{report.dropped} request(s) got no response")
    non_ok = report.requests - report.dropped - report.ok
    if non_ok:
        failures.append(f"{non_ok} non-200 response(s): {dict(report.by_status)}")
    if report.cache_hits < args.require_hits:
        failures.append(f"cache hits {report.cache_hits} < required {args.require_hits}")
    if report.batched < args.require_batched:
        failures.append(f"batched responses {report.batched} < required {args.require_batched}")
    if args.slo_p99_ms > 0 and doc["latency_p99_ms"] > args.slo_p99_ms:
        failures.append(
            f"latency p99 {doc['latency_p99_ms']}ms exceeds SLO {args.slo_p99_ms}ms"
        )
    if failures:
        for failure in failures:
            print(f"loadgen: FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
