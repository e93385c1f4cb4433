"""Background health probing for the fleet's shard servers.

The monitor keeps one :class:`BackendState` per shard replica and runs a
single asyncio loop that probes every backend each interval (with seeded
jitter so a fleet of gateways does not thunder in lockstep):

* **readiness** — ``GET /readyz`` on the backend.  200 means the replica is
  warm and accepting work; 503 means it is alive but warming or draining;
  a connect error or timeout means it is down.
* **liveness** — implied: any HTTP answer marks the process alive.

State flips are debounced: ``fall`` consecutive failed probes mark a
backend down, ``rise`` consecutive successes mark it ready again.  Every
flip is recorded with a timestamp so the gateway's ``/metrics`` can show
the health history next to the breaker transitions.

Every 8th probe of a backend, from its first, also scrapes a compact
summary of the backend's own ``/metrics`` (request totals, executions,
cache hits) which the gateway aggregates per shard.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time
from dataclasses import dataclass, field

from .httpio import request_once

__all__ = ["BackendState", "HealthMonitor"]


@dataclass
class BackendState:
    """Last-known health of one shard replica, as seen by the prober."""

    name: str
    host: str
    port: int
    shard: int
    replica: int
    #: None = never probed; True/False once the debounce thresholds are met
    alive: bool | None = None
    ready: bool | None = None
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    probes: int = 0
    last_probe_unix: float = 0.0
    last_latency_ms: float = 0.0
    last_status: int = 0
    last_error: str = ""
    #: compact scrape of the backend's own /metrics (refreshed periodically)
    backend_metrics: dict = field(default_factory=dict)
    transitions: list = field(default_factory=list)

    def _flip(self, ready: bool, reason: str) -> bool:
        """Record a readiness change; True when the state actually flipped."""
        changed = self.ready != ready
        if changed:
            self.transitions.append(
                {
                    "t": round(time.monotonic(), 3),
                    "ready": ready,
                    "reason": reason,
                }
            )
            del self.transitions[:-64]
        self.ready = ready
        return changed

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "address": f"{self.host}:{self.port}",
            "shard": self.shard,
            "replica": self.replica,
            "alive": self.alive,
            "ready": self.ready,
            "probes": self.probes,
            "consecutive_failures": self.consecutive_failures,
            "last_latency_ms": round(self.last_latency_ms, 3),
            "last_status": self.last_status,
            "last_error": self.last_error,
            "transitions": list(self.transitions),
        }


class HealthMonitor:
    """One background probe loop over a set of backends."""

    def __init__(
        self,
        backends: list[BackendState],
        *,
        interval: float = 0.5,
        timeout: float = 2.0,
        fall: int = 2,
        rise: int = 1,
        seed: int = 0,
        on_flip=None,
    ) -> None:
        self.backends = list(backends)
        self.interval = float(interval)
        self.timeout = float(timeout)
        self.fall = max(1, int(fall))
        self.rise = max(1, int(rise))
        #: optional ``(backend, ready, reason)`` observer for debounced flips
        self.on_flip = on_flip
        self._rng = random.Random(seed)
        self._task: asyncio.Task | None = None
        self.rounds = 0

    # -- probing ---------------------------------------------------------
    async def _get(self, backend: BackendState, path: str) -> tuple[int, dict]:
        # a fresh connection per probe, never a gateway's kept one: the probe
        # must find out whether the replica's listener still accepts
        status, _headers, doc = await request_once(
            backend.host, backend.port, "GET", path, timeout=self.timeout
        )
        return status, doc

    async def probe(self, backend: BackendState) -> bool:
        """One readiness probe; returns True when the backend answered ready."""
        backend.probes += 1
        backend.last_probe_unix = time.time()
        t0 = time.monotonic()
        try:
            status, _doc = await self._get(backend, "/readyz")
        except (OSError, asyncio.TimeoutError, ConnectionError, ValueError) as exc:
            backend.last_latency_ms = (time.monotonic() - t0) * 1000.0
            backend.last_status = 0
            backend.last_error = f"{type(exc).__name__}: {exc}"
            self._mark(backend, ok=False, alive=False, reason=backend.last_error)
            return False
        backend.last_latency_ms = (time.monotonic() - t0) * 1000.0
        backend.last_status = status
        backend.last_error = ""
        backend.alive = True
        ok = status == 200
        self._mark(backend, ok=ok, alive=True, reason=f"http {status}")
        if ok and backend.probes % 8 == 1:
            with contextlib.suppress(
                OSError, asyncio.TimeoutError, ConnectionError, ValueError, KeyError
            ):
                await self.scrape_metrics(backend)
        return ok

    def _mark(self, backend: BackendState, *, ok: bool, alive: bool, reason: str) -> None:
        if ok:
            backend.consecutive_successes += 1
            backend.consecutive_failures = 0
            if backend.consecutive_successes >= self.rise:
                if backend._flip(True, reason) and self.on_flip is not None:
                    self.on_flip(backend, True, reason)
        else:
            backend.consecutive_failures += 1
            backend.consecutive_successes = 0
            if backend.consecutive_failures >= self.fall:
                if not alive:
                    backend.alive = False
                if backend._flip(False, reason) and self.on_flip is not None:
                    self.on_flip(backend, False, reason)

    async def scrape_metrics(self, backend: BackendState) -> None:
        """Refresh the compact per-backend /metrics summary."""
        status, doc = await self._get(backend, "/metrics")
        if status != 200:
            return
        backend.backend_metrics = {
            "requests_total": doc.get("requests", {}).get("total", 0),
            "by_status": dict(doc.get("responses", {}).get("by_status", {})),
            "executions": doc.get("batching", {}).get("executions", 0),
            "cache_hits": doc.get("cache", {}).get("hits", 0),
            "shard": doc.get("service", {}).get("shard", ""),
        }

    async def probe_all(self) -> None:
        self.rounds += 1
        await asyncio.gather(*(self.probe(b) for b in self.backends))

    # -- lifecycle -------------------------------------------------------
    async def _loop(self) -> None:
        while True:
            await self.probe_all()
            # deterministic jitter: 0.75x..1.25x of the interval per round
            await asyncio.sleep(self.interval * (0.75 + 0.5 * self._rng.random()))

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._loop())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    def snapshot(self) -> list[dict]:
        return [b.snapshot() for b in self.backends]
