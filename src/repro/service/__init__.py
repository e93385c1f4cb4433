"""repro.service — an async batch-serving layer for spatial-model simulations.

``repro serve`` exposes the benchmark registry's Table I primitives over a
minimal HTTP/1.1 interface (stdlib asyncio only, no new dependencies):

* :mod:`repro.service.protocol` — request validation against the runner
  registry (``{"algo": "scan", "n": 4096, "seed": 7, "profile": false}``);
* :mod:`repro.service.httpio` — the one HTTP/1.1 front end the server and
  the fleet gateway share (listener, keep-alive loop, endpoint table,
  signal-and-drain main) plus the client calls the gateway, the health
  prober and the load generator make;
* :mod:`repro.service.executor` — execution backends: a persistent
  :class:`~repro.runner.pool.WorkerPool` of forked workers, or inline
  threads for contexts that cannot fork (benchmarks inside sweep workers);
* :mod:`repro.service.batcher` — dynamic micro-batching: identical in-flight
  requests coalesce into one execution fanned back out to every waiter;
* :mod:`repro.service.cache` — an in-process LRU over the content-addressed
  on-disk :class:`~repro.runner.cache.ResultCache` (keys shared with
  ``repro bench run`` via :mod:`repro.runner.cachekey`);
* :mod:`repro.service.metrics` — request counters, latency histograms,
  cache/batch efficiency, queue depth (served as JSON at ``/metrics``);
* :mod:`repro.service.promexport` — Prometheus text exposition of the same
  snapshots (``GET /metrics?format=prometheus`` on server and gateway);
* :mod:`repro.service.server` — the HTTP server: admission control
  (429 + Retry-After), liveness/readiness split (``/healthz`` vs
  ``/readyz``), per-request timeouts (504), graceful SIGTERM drain;
* :mod:`repro.service.loadgen` — a closed-loop load generator (Retry-After
  honoring backoff) used by the tests, the CI smoke jobs, and
  ``benchmarks/bench_service.py``.

``repro fleet`` layers a resilient sharded front tier on top:

* :mod:`repro.service.fleet` — the consistent-hash gateway: key-affine
  routing over ``shards x replicas`` backends, deadline-budgeted failover,
  bounded hedged retries, stale-cache degradation;
* :mod:`repro.service.health` — background liveness/readiness probing with
  debounced state flips and periodic backend metrics scrapes;
* :mod:`repro.service.breaker` — per-replica circuit breakers with seeded
  jitter and an assertable transition log;
* :mod:`repro.service.fleetchaos` — ``repro fleet-chaos``: kills, hangs and
  restarts replicas mid-load and gates on exact clean-run equivalence.

Distributed tracing lives in :mod:`repro.obs`: every tier accepts an
``X-Repro-Trace`` context, records spans to per-process JSONL sinks when a
trace directory is configured, and ``repro trace-collect`` merges them.

See ``docs/SERVICE.md`` for endpoint and semantics documentation and
``docs/OBSERVABILITY.md`` for the tracing subsystem.
"""

from .batcher import Batcher
from .breaker import BreakerConfig, CircuitBreaker
from .cache import ServiceCache
from .executor import ExecutionCrash, ExecutionError, ExecutionTimeout, ServiceExecutor
from .fleet import FleetConfig, FleetGateway, HashRing, fleet_main
from .health import BackendState, HealthMonitor
from .metrics import FleetMetrics, LatencyHistogram, ServiceMetrics
from .promexport import PROM_CONTENT_TYPE, render_prometheus
from .protocol import RequestError, ServiceRequest
from .server import ServiceConfig, SpatialService, serve_main

__all__ = [
    "PROM_CONTENT_TYPE",
    "BackendState",
    "Batcher",
    "BreakerConfig",
    "CircuitBreaker",
    "ExecutionCrash",
    "ExecutionError",
    "ExecutionTimeout",
    "FleetConfig",
    "FleetGateway",
    "FleetMetrics",
    "HashRing",
    "HealthMonitor",
    "LatencyHistogram",
    "RequestError",
    "ServiceCache",
    "ServiceConfig",
    "ServiceExecutor",
    "ServiceMetrics",
    "ServiceRequest",
    "SpatialService",
    "fleet_main",
    "render_prometheus",
    "serve_main",
]
