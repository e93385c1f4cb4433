"""Service observability: counters and latency histograms for ``/metrics``.

Everything here is mutated from the single event-loop thread, so plain ints
suffice — no locks.  The snapshot is deliberately plain JSON (no Prometheus
text format) to stay consistent with the rest of the repo's artifacts:
``MachineStats`` counters and ``CostTree`` rows already travel as JSON in
``BENCH_*.json`` documents, and per-request cost payloads reuse exactly that
serialization (see :func:`repro.runner.registry.point_from_machine`).
"""

from __future__ import annotations

import time
from collections import Counter

__all__ = [
    "LATENCY_BUCKETS_MS",
    "FleetMetrics",
    "LatencyHistogram",
    "RequestMetrics",
    "ServiceMetrics",
]

#: upper bucket bounds in milliseconds; requests above the last bound land
#: in a +Inf overflow bucket.  The sub-millisecond bounds exist for cache
#: hits and gateway attempts, which would otherwise all collapse into the
#: first bucket.
LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram (cumulative-friendly, JSON-served)."""

    def __init__(self, bounds_ms: tuple[float, ...] = LATENCY_BUCKETS_MS) -> None:
        self.bounds_ms = tuple(bounds_ms)
        self.counts = [0] * (len(self.bounds_ms) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        self.count += 1
        self.sum_ms += ms
        self.max_ms = max(self.max_ms, ms)
        for i, bound in enumerate(self.bounds_ms):
            if ms <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Quantile in ms, linearly interpolated within the matching bucket.

        Observations are assumed uniform inside their bucket; the overflow
        bucket interpolates between the last bound and the observed max."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0.0
        lower = 0.0
        for i, bound in enumerate(self.bounds_ms):
            c = self.counts[i]
            if c > 0 and seen + c >= target:
                frac = (target - seen) / c
                return lower + (float(bound) - lower) * frac
            seen += c
            lower = float(bound)
        c = self.counts[-1]
        if c <= 0 or self.max_ms <= lower:
            return self.max_ms
        frac = min(1.0, max(0.0, (target - seen) / c))
        return lower + (self.max_ms - lower) * frac

    def as_dict(self) -> dict:
        buckets = {f"le_{b:g}ms": c for b, c in zip(self.bounds_ms, self.counts)}
        buckets["le_inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum_ms": round(self.sum_ms, 3),
            "mean_ms": round(self.sum_ms / self.count, 3) if self.count else 0.0,
            "max_ms": round(self.max_ms, 3),
            "p50_ms": round(self.quantile(0.50), 3),
            "p95_ms": round(self.quantile(0.95), 3),
            "p99_ms": round(self.quantile(0.99), 3),
            "buckets": buckets,
        }


class RequestMetrics:
    """The request lifecycle both HTTP fronts count: uptime, requests,
    responses by status, in-flight/peak, rejections and end-to-end latency.

    Everything mutates on the front's single event-loop thread, so plain
    ints suffice — no locks."""

    def __init__(self) -> None:
        self.started_monotonic = time.monotonic()
        self.started_at = time.time()
        self.requests_total = 0
        self.responses_by_status: Counter[int] = Counter()
        self.inflight = 0
        self.peak_inflight = 0
        #: requests refused with 429 by admission control
        self.rejected = 0
        self.latency = LatencyHistogram()

    # -- request lifecycle ----------------------------------------------
    def request_received(self) -> None:
        """Any request the role counts, valid or not."""
        self.requests_total += 1

    def request_admitted(self) -> None:
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)

    def request_finished(self, status: int, latency_s: float) -> None:
        self.inflight -= 1
        self.responses_by_status[status] += 1
        self.latency.observe(latency_s)

    def response_only(self, status: int) -> None:
        """A response that never entered the request lifecycle (404, 429...)."""
        self.responses_by_status[status] += 1

    def _snapshot(self, requests: dict, sections: dict, extra: dict | None) -> dict:
        """The shared sections, then the role's ``requests`` keys and
        ``sections``, then ``extra``."""
        doc = {
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
            "started_at_unix": round(self.started_at, 3),
            "requests": {
                "total": self.requests_total,
                "inflight": self.inflight,
                "peak_inflight": self.peak_inflight,
                "rejected": self.rejected,
                **requests,
            },
            "responses": {
                "by_status": {str(k): v for k, v in sorted(self.responses_by_status.items())},
            },
            "latency": self.latency.as_dict(),
            **sections,
        }
        if extra:
            doc.update(extra)
        return doc


class ServiceMetrics(RequestMetrics):
    """All counters behind a server's ``/metrics``: the request lifecycle
    (``requests_total`` counts ``POST /run``) plus cache and batching."""

    def __init__(self) -> None:
        super().__init__()
        self.requests_by_algo: Counter[str] = Counter()
        self.cache_hits_memory = 0
        self.cache_hits_disk = 0
        self.cache_misses = 0
        self.executions = 0
        self.execution_failures = 0
        self.batched_executions = 0
        self.coalesced_requests = 0
        self.timeouts = 0
        #: requests answered 504 because the executing worker died mid-task
        self.crashed = 0
        self.execution_latency = LatencyHistogram()

    def request_admitted(self, algo: str) -> None:
        self.requests_by_algo[algo] += 1
        super().request_admitted()

    # -- cache / batch accounting ---------------------------------------
    def cache_hit(self, tier: str) -> None:
        if tier == "memory":
            self.cache_hits_memory += 1
        else:
            self.cache_hits_disk += 1

    @property
    def cache_hits(self) -> int:
        return self.cache_hits_memory + self.cache_hits_disk

    # -- snapshot --------------------------------------------------------
    def snapshot(self, *, queue_depth: int = 0, extra: dict | None = None) -> dict:
        lookups = self.cache_hits + self.cache_misses
        return self._snapshot(
            {
                "by_algo": dict(self.requests_by_algo),
                "queue_depth": queue_depth,
                "timeouts": self.timeouts,
                "crashed": self.crashed,
            },
            {
                "cache": {
                    "hits": self.cache_hits,
                    "hits_memory": self.cache_hits_memory,
                    "hits_disk": self.cache_hits_disk,
                    "misses": self.cache_misses,
                    "hit_rate": round(self.cache_hits / lookups, 4) if lookups else 0.0,
                },
                "batching": {
                    "executions": self.executions,
                    "execution_failures": self.execution_failures,
                    "batched_executions": self.batched_executions,
                    "coalesced_requests": self.coalesced_requests,
                },
                "execution_latency": self.execution_latency.as_dict(),
            },
            extra,
        )


class FleetMetrics(RequestMetrics):
    """Gateway-side counters: the request lifecycle (``requests_total``
    counts ``POST /run`` and ``POST /plan``) plus routing, failover,
    hedging and degradation.

    Per-shard and per-backend aggregation lives here so the gateway's
    ``/metrics`` can answer "which shard is limping" without scraping every
    replica on the request path; the health monitor's periodic backend
    scrapes are folded in by the snapshot.
    """

    def __init__(self) -> None:
        super().__init__()
        #: requests routed per shard index, and outcomes per backend name
        self.routed_by_shard: Counter[int] = Counter()
        self.forwarded_by_backend: Counter[str] = Counter()
        self.attempt_failures: dict[str, Counter] = {}
        self.failovers = 0
        self.hedges_started = 0
        self.hedge_wins = 0
        self.hedges_cancelled = 0
        self.degraded_stale = 0
        self.shed = 0

    # -- routing accounting ---------------------------------------------
    def attempt_failed(self, backend: str, reason: str) -> None:
        self.attempt_failures.setdefault(backend, Counter())[reason] += 1

    def hedge_allowed(self, rate: float) -> bool:
        """Would starting one more hedge keep hedges within ``rate``?"""
        return self.hedges_started + 1 <= rate * max(1, self.requests_total)

    # -- snapshot --------------------------------------------------------
    def snapshot(
        self,
        *,
        shards: list[dict] | None = None,
        breakers: dict | None = None,
        connects: dict | None = None,
        health: list[dict] | None = None,
        extra: dict | None = None,
    ) -> dict:
        """``connects`` maps each backend to the connections the gateway
        opened to it for attempts (health probes excluded)."""
        sections = {
            "routing": {
                "by_shard": {str(k): v for k, v in sorted(self.routed_by_shard.items())},
                "forwarded_by_backend": dict(self.forwarded_by_backend),
                "backend_connects": dict(sorted((connects or {}).items())),
                "attempt_failures": {
                    name: dict(counts) for name, counts in sorted(self.attempt_failures.items())
                },
                "failovers": self.failovers,
            },
            "hedging": {
                "started": self.hedges_started,
                "wins": self.hedge_wins,
                "cancelled": self.hedges_cancelled,
            },
            "degraded": {
                "stale_served": self.degraded_stale,
                "shed": self.shed,
            },
        }
        for name, value in (("shards", shards), ("breakers", breakers), ("health", health)):
            if value is not None:
                sections[name] = value
        return self._snapshot({}, sections, extra)
