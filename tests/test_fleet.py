"""Tests for the fleet front tier (`repro fleet` and repro.service.fleet/*).

Mirrors the tiers of ``test_service.py``:

* pure unit tests for the hash ring, circuit breaker, fleet metrics, and
  the chaos schedule;
* in-process integration tests: a real ``FleetGateway`` over real inline
  ``SpatialService`` backends on real sockets (health probing, failover,
  breakers, hedging, stale degradation, readiness);
* subprocess tests through the shipped ``repro serve`` entry point: a live
  replica killed under load, gating on zero failed client responses, a
  SIGTERM sent the moment the listen banner is read, gating on a clean drain,
  and the one replica spawner restarting a killed replica on its old port.
"""

import asyncio
import contextlib
import os
import signal
import socket
import sys
import time
from pathlib import Path

import pytest

from repro.service import (
    FleetConfig,
    FleetGateway,
    FleetMetrics,
    HashRing,
    HealthMonitor,
    ServiceConfig,
    SpatialService,
)
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, BreakerConfig, CircuitBreaker
from repro.obs.collect import load_trace_dir
from repro.service.fleet import (
    ShardProcess,
    routing_key,
    serve_argv,
    spawn_replicas,
)
from repro.service.fleetchaos import build_schedule
from repro.service.health import BackendState
from repro.service.httpio import http_call, read_http_request, request_once, write_response
from repro.service.loadgen import build_requests, run_load
from repro.service.protocol import ServiceRequest

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: small-n request mix: every key executes in well under a second
FAST_MIX = (
    ("scan", (64, 256)),
    ("sort", (64, 256)),
    ("select", (64, 256)),
    ("spmv", (16, 64)),
)


def _dead_port() -> int:
    """A port that was just free: connecting to it refuses immediately."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _service_config(**overrides) -> ServiceConfig:
    base = dict(
        port=0,
        inline=True,  # no forking under the test runner
        workers=4,
        disk_cache=False,
        drain_timeout=10.0,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def _fleet_config(**overrides) -> FleetConfig:
    base = dict(
        port=0,
        vnodes=16,
        max_inflight=64,
        request_timeout=10.0,
        attempt_timeout=2.0,
        hedge_after=5.0,
        hedge_rate=0.0,  # hedging off unless a test turns it on
        probe_interval=0.2,
        probe_timeout=1.0,
        fall=2,
        rise=1,
        failure_threshold=3,
        cooldown=30.0,  # long enough that a tripped breaker stays open
        max_cooldown=60.0,
        seed=0,
        disk_cache=False,
        drain_timeout=5.0,
    )
    base.update(overrides)
    return FleetConfig(**base)


def _count_accepted(svc: SpatialService) -> None:
    """Count the connections ``svc`` accepts in ``svc.accepted`` (before start)."""
    handle = svc._handle_conn
    svc.accepted = 0

    async def counting(reader, writer):
        svc.accepted += 1
        await handle(reader, writer)

    svc._handle_conn = counting


def _freeze_health(gateway: FleetGateway) -> None:
    """Reset every replica to the never-probed rank (monitor must be stopped).

    Keeps the per-key rotation in ``_candidates`` deterministic: no probe
    result can reorder replicas mid-test."""
    for group in gateway.shards:
        for st in group:
            st.ready = None
            st.alive = None
            st.consecutive_failures = 0
            st.consecutive_successes = 0


def _run_fleet(groups, scenario, *, config=None, freeze_health=False):
    """Run ``await scenario(gateway, services)`` against a live fleet.

    ``groups`` is one list per shard whose items are either a
    :class:`ServiceConfig` (a live inline backend is started) or an ``int``
    (a dead port standing in for a crashed replica)."""

    async def go():
        services = []
        try:
            addrs = []
            for group in groups:
                g_addrs = []
                for item in group:
                    if isinstance(item, int):
                        g_addrs.append(("127.0.0.1", item))
                    else:
                        svc = SpatialService(item)
                        _count_accepted(svc)
                        await svc.start()
                        services.append(svc)
                        g_addrs.append(("127.0.0.1", svc.port))
                addrs.append(g_addrs)
            gateway = FleetGateway(config or _fleet_config(), addrs)
            await gateway.start()
            if freeze_health:
                await gateway.monitor.stop()
                _freeze_health(gateway)
            try:
                return await scenario(gateway, services)
            finally:
                await gateway.stop()
        finally:
            for svc in services:
                await svc.drain(5.0)
                await svc.stop()

    return asyncio.run(go())


async def _gcall(port, method, path, payload=None, timeout=10.0):
    """One-shot request -> (status, headers, doc)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        status, headers, doc, _closed = await http_call(
            reader, writer, method, path, payload, timeout=timeout
        )
        return status, headers, doc
    finally:
        writer.close()


async def _trickle_stub(port: int = 0):
    """A replica that sends the status line at once, then one header line
    every 0.3 s for 6 s before its body: each line lands well inside a
    0.5 s per-line timeout, the whole response far outside it."""

    async def trickle(reader, writer):
        try:
            await reader.readuntil(b"\r\n\r\n")
            writer.write(b"HTTP/1.1 200 OK\r\n")
            for i in range(20):
                await writer.drain()
                await asyncio.sleep(0.3)
                writer.write(f"X-Trickle-{i}: 1\r\n".encode())
            writer.write(b"Content-Length: 2\r\n\r\n{}")
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client hung up
        finally:
            writer.close()

    return await asyncio.start_server(trickle, "127.0.0.1", port)


def _payloads_preferring(gateway, name, count, pool=64):
    """Valid /run payloads whose preferred replica is ``name``."""
    out = []
    for seed in range(pool):
        payload = {"algo": "scan", "n": 64, "seed": seed}
        key = routing_key(ServiceRequest.from_payload(payload))
        shard = gateway.ring.shard_for(key)
        if gateway._candidates(shard, key)[0].name == name:
            out.append(payload)
            if len(out) == count:
                return out
    raise AssertionError(f"no payloads prefer {name} in a pool of {pool}")


class TestHashRing:
    def test_placement_is_deterministic(self):
        a, b = HashRing(3, vnodes=32), HashRing(3, vnodes=32)
        keys = [f"key-{i}" for i in range(500)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]
        assert all(0 <= a.shard_for(k) < 3 for k in keys)

    def test_spread_is_balanced(self):
        counts = HashRing(3, vnodes=64).spread(f"key-{i}" for i in range(3000))
        assert sum(counts) == 3000
        assert all(500 <= c <= 2000 for c in counts), counts

    def test_single_shard_takes_everything(self):
        ring = HashRing(1, vnodes=8)
        assert ring.spread(f"k{i}" for i in range(100)) == [100]

    def test_routing_key_matches_request_identity(self):
        a = ServiceRequest.from_payload({"algo": "scan", "n": 64, "seed": 3})
        b = ServiceRequest.from_payload({"algo": "scan", "n": 64, "seed": 3})
        c = ServiceRequest.from_payload({"algo": "scan", "n": 64, "seed": 4})
        assert routing_key(a) == routing_key(b) != routing_key(c)

    def test_routing_key_includes_auto_metric(self):
        edp = ServiceRequest.from_payload({"algo": "auto:sort", "n": 256})
        energy = ServiceRequest.from_payload(
            {"algo": "auto:sort", "n": 256, "metric": "energy"}
        )
        assert routing_key(edp) != routing_key(energy)


def _breaker(**cfg):
    """A breaker on a hand-cranked clock; advance time via the returned list."""
    now = [0.0]
    config = BreakerConfig(**{"jitter": 0.0, **cfg})
    return CircuitBreaker("b", config, seed=1, clock=lambda: now[0]), now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        br, _now = _breaker(failure_threshold=3, cooldown_s=1.0)
        br.record_failure()
        br.record_failure()
        assert br.state == CLOSED and br.allow()
        br.record_failure()
        assert br.state == OPEN
        assert not br.allow()
        assert br.rejected == 1
        last = br.transitions[-1]
        assert (last["from"], last["to"]) == (CLOSED, OPEN)

    def test_success_resets_the_consecutive_count(self):
        br, _now = _breaker(failure_threshold=3)
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state == CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        br, now = _breaker(failure_threshold=1, cooldown_s=2.0)
        br.record_failure()
        assert br.state == OPEN
        now[0] = 2.5  # past the cooldown
        assert br.allow()  # the probe
        assert br.state == HALF_OPEN
        assert not br.allow()  # second caller is still rejected
        br.record_success()
        assert br.state == CLOSED
        reasons = [t["reason"] for t in br.transitions]
        assert "cooldown elapsed" in reasons and "probe succeeded" in reasons

    def test_probe_failure_doubles_cooldown_up_to_cap(self):
        br, now = _breaker(failure_threshold=1, cooldown_s=1.0, max_cooldown_s=3.0)
        br.record_failure()  # open, cooldown 1.0
        now[0] = 1.5
        assert br.allow()
        br.record_failure("still down")  # re-open, cooldown 2.0
        assert br.state == OPEN
        assert br.snapshot()["cooldown_s"] == 2.0
        assert br.seconds_until_probe() == pytest.approx(2.0)
        now[0] = 4.0
        assert br.allow()
        br.record_failure("still down")  # re-open, capped at 3.0
        assert br.snapshot()["cooldown_s"] == 3.0
        now[0] = 8.0
        assert br.allow()
        br.record_success()
        assert br.state == CLOSED
        assert br.snapshot()["cooldown_s"] == 1.0  # reset on recovery

    def test_release_returns_the_probe_slot(self):
        br, now = _breaker(failure_threshold=1, cooldown_s=1.0)
        br.record_failure()
        now[0] = 1.5
        assert br.allow()
        br.release()  # the admitted attempt was cancelled, not settled
        assert br.allow()

    def test_would_allow_is_non_mutating(self):
        br, now = _breaker(failure_threshold=1, cooldown_s=1.0)
        br.record_failure()
        assert not br.would_allow()
        now[0] = 1.5
        assert br.would_allow()
        assert br.state == OPEN  # no transition, no probe slot consumed
        assert br.rejected == 0

    def test_jitter_is_bounded_and_seeded(self):
        for seed in (0, 1, 7):
            a = CircuitBreaker(
                "a",
                BreakerConfig(failure_threshold=1, cooldown_s=10.0, jitter=0.2),
                seed=seed,
                clock=lambda: 0.0,
            )
            b = CircuitBreaker(
                "b",
                BreakerConfig(failure_threshold=1, cooldown_s=10.0, jitter=0.2),
                seed=seed,
                clock=lambda: 0.0,
            )
            a.record_failure()
            b.record_failure()
            assert 8.0 <= a.seconds_until_probe() <= 12.0
            assert a.seconds_until_probe() == b.seconds_until_probe()


class TestFleetMetrics:
    def test_hedge_budget_is_a_fraction_of_requests(self):
        m = FleetMetrics()
        m.requests_total = 19
        assert not m.hedge_allowed(0.05)  # 1 hedge > 5% of 19
        m.requests_total = 20
        assert m.hedge_allowed(0.05)
        m.hedges_started = 1
        assert not m.hedge_allowed(0.05)
        m.requests_total = 40
        assert m.hedge_allowed(0.05)

    def test_snapshot_sections(self):
        m = FleetMetrics()
        m.request_received()
        m.request_admitted()
        m.attempt_failed("s0r0", "boom")
        m.failovers += 1
        m.request_finished(200, 0.01)
        snap = m.snapshot(
            shards=[{"shard": 0}], breakers={"s0r0": {}}, connects={"s0r0": 3},
            health=[], extra={"x": 1},
        )
        assert snap["requests"]["total"] == 1
        assert snap["routing"]["attempt_failures"] == {"s0r0": {"boom": 1}}
        assert snap["routing"]["backend_connects"] == {"s0r0": 3}
        assert snap["routing"]["failovers"] == 1
        assert snap["shards"] == [{"shard": 0}]
        assert "s0r0" in snap["breakers"]
        assert snap["x"] == 1


class TestChaosSchedule:
    def test_schedule_is_seeded_and_keeps_shards_apart(self):
        sched = build_schedule(3, 2, seed=5)
        assert sched == build_schedule(3, 2, seed=5)
        actions = [e.action for e in sched]
        assert actions == ["kill", "hang", "restart", "resume"]
        kill, hang, restart, resume = sched
        # the killed and hung replicas live on different shards, so every
        # shard keeps at least one live replica throughout
        assert kill.target.split("r")[0] != hang.target.split("r")[0]
        assert restart.target == kill.target
        assert resume.target == hang.target
        assert [e.fraction for e in sched] == sorted(e.fraction for e in sched)

    def test_single_replica_fleets_are_rejected(self):
        with pytest.raises(SystemExit):
            build_schedule(2, 1, seed=0)


class TestBackendHelpers:
    def test_serve_argv_shape(self):
        argv = serve_argv("s1r0", workers=2, cache_dir="/tmp/c")
        assert argv[:3] == [sys.executable, "-m", "repro"]
        assert "--shard-id" in argv and argv[argv.index("--shard-id") + 1] == "s1r0"
        assert argv[argv.index("--cache-dir") + 1] == "/tmp/c"


class TestHealthMonitor:
    def test_readiness_flips_with_debounce(self):
        async def go():
            svc = SpatialService(_service_config())
            await svc.start()
            try:
                backend = BackendState("s0r0", "127.0.0.1", svc.port, 0, 0)
                monitor = HealthMonitor([backend], fall=2, rise=1)
                assert await monitor.probe(backend)
                assert backend.ready is True and backend.alive is True
                assert backend.last_status == 200

                svc.draining = True  # /readyz answers 503, /healthz stays 200
                assert not await monitor.probe(backend)
                assert backend.ready is True  # one failure < fall=2
                assert not await monitor.probe(backend)
                assert backend.ready is False and backend.alive is True
                assert backend.last_status == 503

                svc.draining = False
                assert await monitor.probe(backend)
                assert backend.ready is True  # rise=1 recovers immediately
                assert len(backend.transitions) >= 3
            finally:
                await svc.drain(5.0)
                await svc.stop()

        asyncio.run(go())

    def test_dead_backend_is_marked_down(self):
        async def go():
            backend = BackendState("s0r0", "127.0.0.1", _dead_port(), 0, 0)
            monitor = HealthMonitor([backend], fall=1, timeout=0.5)
            assert not await monitor.probe(backend)
            assert backend.ready is False and backend.alive is False
            assert backend.last_error

        asyncio.run(go())

    def test_probe_scrapes_backend_metrics(self):
        async def go():
            svc = SpatialService(_service_config(shard_id="s0r0"))
            await svc.start()
            try:
                backend = BackendState("s0r0", "127.0.0.1", svc.port, 0, 0)
                monitor = HealthMonitor([backend])
                await monitor.probe(backend)  # probe #1 also scrapes /metrics
                assert backend.backend_metrics["shard"] == "s0r0"
                assert "requests_total" in backend.backend_metrics
            finally:
                await svc.drain(5.0)
                await svc.stop()

        asyncio.run(go())


class TestFleetGateway:
    def test_routing_affinity_and_fleet_annotation(self):
        async def scenario(gateway, _services):
            body = {"algo": "scan", "n": 64, "seed": 1}
            seen = set()
            for _ in range(3):
                status, _h, doc = await _gcall(gateway.port, "POST", "/run", body)
                assert status == 200 and doc["ok"]
                seen.add((doc["fleet"]["shard"], doc["fleet"]["replica"]))
            assert len(seen) == 1  # identical keys always land together
            shard, replica = next(iter(seen))
            assert replica == f"s{shard}r0"
            assert sum(gateway.metrics.forwarded_by_backend.values()) == 3
            assert sum(gateway.metrics.routed_by_shard.values()) == 3

        _run_fleet([[_service_config()], [_service_config()]], scenario)

    def test_failover_skips_dead_replica_and_opens_breaker(self):
        def scenario_config():
            return _fleet_config(attempt_timeout=1.0, failure_threshold=3)

        async def scenario(gateway, _services):
            payloads = _payloads_preferring(gateway, "s0r0", 4)
            for payload in payloads[:3]:
                status, _h, doc = await _gcall(gateway.port, "POST", "/run", payload)
                assert status == 200 and doc["ok"]
                assert doc["fleet"]["replica"] == "s0r1"  # failed over
            br = gateway.breakers["s0r0"]
            assert br.state == OPEN  # three consecutive connect failures
            assert gateway.metrics.failovers >= 3
            assert sum(gateway.metrics.attempt_failures["s0r0"].values()) == 3

            # with the breaker open the dead replica is skipped, not retried
            status, _h, doc = await _gcall(gateway.port, "POST", "/run", payloads[3])
            assert status == 200 and doc["fleet"]["replica"] == "s0r1"
            assert sum(gateway.metrics.attempt_failures["s0r0"].values()) == 3
            assert br.rejected >= 1

            # the trip is visible on /metrics for the chaos gate to find
            _s, _h, metrics = await _gcall(gateway.port, "GET", "/metrics")
            transitions = metrics["breakers"]["s0r0"]["transitions"]
            assert any(t["to"] == OPEN for t in transitions)

        _run_fleet(
            [[_dead_port(), _service_config()]],
            scenario,
            config=scenario_config(),
            freeze_health=True,
        )

    def test_hedged_request_wins_over_a_stalled_replica(self):
        async def go():
            unblock = asyncio.Event()
            hung_up = asyncio.Event()

            async def hang(reader, writer):
                with contextlib.suppress(Exception):
                    while await reader.read(1 << 16):
                        pass  # swallow the request, never answer
                    hung_up.set()  # EOF: the gateway closed the losing attempt's connection
                    await unblock.wait()
                writer.close()

            stub = await asyncio.start_server(hang, "127.0.0.1", 0)
            stub_port = stub.sockets[0].getsockname()[1]
            svc = SpatialService(_service_config())
            await svc.start()
            gateway = FleetGateway(
                _fleet_config(hedge_after=0.15, hedge_rate=1.0),
                [[("127.0.0.1", stub_port), ("127.0.0.1", svc.port)]],
            )
            await gateway.start()
            await gateway.monitor.stop()
            _freeze_health(gateway)
            try:
                payload = _payloads_preferring(gateway, "s0r0", 1)[0]
                status, _h, doc = await _gcall(gateway.port, "POST", "/run", payload)
                assert status == 200 and doc["ok"]
                assert doc["fleet"]["replica"] == "s0r1"  # the hedge answered
                m = gateway.metrics
                assert (m.hedges_started, m.hedge_wins, m.hedges_cancelled) == (1, 1, 1)
                await asyncio.wait_for(hung_up.wait(), 2.0)
                assert not gateway.pool._idle.get(("127.0.0.1", stub_port))
            finally:
                unblock.set()
                stub.close()
                await gateway.stop()
                await svc.drain(5.0)
                await svc.stop()

        asyncio.run(go())

    def test_degraded_stale_serving_and_shed(self):
        async def scenario(gateway, _services):
            cached = ServiceRequest.from_payload({"algo": "scan", "n": 64, "seed": 0})
            key = cached.cache_key(gateway.code_versions["scan"])
            payload = {
                "metrics": {"energy": 5, "messages": 2, "rounds": 1,
                            "max_depth": 1, "max_distance": 1},
                "phases": [],
                "extra": {},
            }
            gateway.stale_cache.put(key, cached, payload, 0.1)

            # a previously-seen key is served stale when no replica answers
            status, _h, doc = await _gcall(
                gateway.port, "POST", "/run", {"algo": "scan", "n": 64, "seed": 0}
            )
            assert status == 200 and doc["ok"]
            assert doc["degraded"] is True and doc["cached"] == "stale"
            assert doc["fleet"]["replica"] is None
            assert doc["metrics"]["energy"] == 5

            # an unseen key is shed with an honest Retry-After
            status, headers, doc = await _gcall(
                gateway.port, "POST", "/run", {"algo": "scan", "n": 64, "seed": 9}
            )
            assert status == 503 and doc["degraded"] is False
            assert int(headers["retry-after"]) >= 1

            assert gateway.metrics.degraded_stale == 1
            assert gateway.metrics.shed == 1

        _run_fleet(
            [[_dead_port()]],
            scenario,
            config=_fleet_config(
                attempt_timeout=0.5, failure_threshold=1, cooldown=30.0
            ),
            freeze_health=True,
        )

    def test_readyz_metrics_and_draining(self):
        async def scenario(gateway, _services):
            # never probed: the gateway refuses to call itself ready
            status, headers, doc = await _gcall(gateway.port, "GET", "/readyz")
            assert status == 503 and doc["shards_ready"] == [0, 0]
            assert headers["retry-after"] == "1"

            await gateway.monitor.probe_all()
            status, _h, doc = await _gcall(gateway.port, "GET", "/readyz")
            assert status == 200 and doc["all_ready"] is True

            status, _h, doc = await _gcall(gateway.port, "GET", "/healthz")
            assert status == 200 and doc["role"] == "gateway"

            _s, _h, metrics = await _gcall(gateway.port, "GET", "/metrics")
            assert set(metrics["breakers"]) == {"s0r0", "s1r0"}
            assert metrics["gateway"]["shards"] == 2
            assert len(metrics["health"]) == 2

            gateway.draining = True
            status, _h, doc = await _gcall(gateway.port, "GET", "/readyz")
            assert status == 503 and doc["draining"] is True
            gateway.draining = False

        _run_fleet(
            [[_service_config()], [_service_config()]],
            scenario,
            freeze_health=True,
        )

    def test_gateway_serves_load_end_to_end(self):
        async def scenario(gateway, _services):
            requests = build_requests(30, seed=3, mix=FAST_MIX, seed_pool=2)
            report = await run_load(
                "127.0.0.1", gateway.port, requests, concurrency=8, timeout=30.0
            )
            assert report.dropped == 0, report.errors
            assert report.ok == 30, dict(report.by_status)
            assert sum(gateway.metrics.routed_by_shard.values()) == 30

        _run_fleet([[_service_config()], [_service_config()]], scenario)


class TestAttemptDeadline:
    """One deadline bounds a whole attempt, however slowly its bytes come."""

    def test_a_trickling_response_times_out_at_the_deadline(self):
        async def go():
            stub = await _trickle_stub()
            port = stub.sockets[0].getsockname()[1]
            try:
                t0 = time.monotonic()
                with pytest.raises(asyncio.TimeoutError):
                    await request_once("127.0.0.1", port, "GET", "/healthz", timeout=0.5)
                once_s = time.monotonic() - t0
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                t0 = time.monotonic()
                try:
                    with pytest.raises(asyncio.TimeoutError):
                        await http_call(reader, writer, "GET", "/healthz", timeout=0.5)
                finally:
                    writer.close()
                return once_s, time.monotonic() - t0
            finally:
                stub.close()

        once_s, call_s = asyncio.run(go())
        assert once_s < 0.5 + 0.2
        assert call_s < 0.5 + 0.2

    def test_the_gateway_answers_a_trickling_replica_within_the_request_deadline(self):
        port = _dead_port()

        async def scenario(gateway, _services):
            stub = await _trickle_stub(port)
            try:
                t0 = time.monotonic()
                status, _h, doc = await _gcall(
                    gateway.port, "POST", "/run", {"algo": "scan", "n": 64}
                )
                elapsed = time.monotonic() - t0
            finally:
                stub.close()
            assert elapsed < gateway.config.request_timeout
            # both passes over the one replica time out: shed, nothing stale
            assert status == 503 and doc["degraded"] is False
            assert gateway.metrics.attempt_failures == {"s0r0": {"TimeoutError": 2}}

        _run_fleet(
            [[port]],
            scenario,
            config=_fleet_config(attempt_timeout=0.5, request_timeout=3.0),
            freeze_health=True,
        )


class TestKeptAliveAttempts:
    """Gateway attempts reuse one kept-alive connection per replica."""

    def test_sequential_requests_share_one_backend_connection(self):
        async def scenario(gateway, services):
            for i in range(20):
                status, _h, doc = await _gcall(
                    gateway.port, "POST", "/run", {"algo": "scan", "n": 64, "seed": i % 4}
                )
                assert status == 200 and doc["ok"]
            assert services[0].accepted == 1
            _s, _h, metrics = await _gcall(gateway.port, "GET", "/metrics")
            assert metrics["routing"]["backend_connects"] == {"s0r0": 1}

        _run_fleet([[_service_config()]], scenario, freeze_health=True)

    def test_a_replica_restarted_on_its_port_answers_the_next_request(self):
        async def scenario(gateway, services):
            body = {"algo": "scan", "n": 64, "seed": 1}
            status, _h, _doc = await _gcall(gateway.port, "POST", "/run", body)
            assert status == 200
            old = services[0]
            await old.drain(5.0)
            await old.stop()  # closes the gateway's kept connection
            services[0] = SpatialService(_service_config(port=old.port))
            await services[0].start()
            status, _h, doc = await _gcall(gateway.port, "POST", "/run", body)
            assert status == 200 and doc["ok"]
            assert gateway.metrics.attempt_failures == {}
            assert gateway.breakers["s0r0"].state == CLOSED
            assert gateway.metrics_doc()["routing"]["backend_connects"] == {"s0r0": 2}

        _run_fleet([[_service_config()]], scenario, freeze_health=True)

    def test_a_kept_connection_hung_up_on_mid_request_is_redialled_uncharged(self):
        """The replica closes a kept connection as the next request arrives
        on it, before answering: the attempt redials once, uncharged."""
        port = _dead_port()
        accepted = []

        async def one_answer_per_connection(reader, writer):
            accepted.append(writer)
            try:
                if await read_http_request(reader) is not None:
                    await write_response(writer, 200, {"ok": True}, [], True)
                    await read_http_request(reader)  # then hang up unanswered
            finally:
                writer.close()

        async def scenario(gateway, _services):
            stub = await asyncio.start_server(one_answer_per_connection, "127.0.0.1", port)
            try:
                for _ in range(2):
                    status, _h, doc = await _gcall(
                        gateway.port, "POST", "/run", {"algo": "scan", "n": 64}
                    )
                    assert status == 200 and doc["ok"]
            finally:
                stub.close()
            m = gateway.metrics
            assert len(accepted) == 2
            assert (m.attempt_failures, m.failovers) == ({}, 0)
            assert gateway.breakers["s0r0"].state == CLOSED
            assert gateway.metrics_doc()["routing"]["backend_connects"] == {"s0r0": 2}

        _run_fleet([[port]], scenario, freeze_health=True)

    def test_a_partial_body_fails_the_attempt_and_is_not_kept(self):
        port = _dead_port()
        accepted = []

        async def short_body(reader, writer):
            accepted.append(writer)
            try:
                if await read_http_request(reader) is not None:
                    writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}")
                    await writer.drain()
            finally:
                writer.close()

        async def scenario(gateway, _services):
            stub = await asyncio.start_server(short_body, "127.0.0.1", port)
            try:
                status, _h, _doc = await _gcall(
                    gateway.port, "POST", "/run", {"algo": "scan", "n": 64}
                )
            finally:
                stub.close()
            # both passes cut short: failed over, then shed — not a 502
            assert status == 503
            assert gateway.metrics.attempt_failures == {"s0r0": {"IncompleteReadError": 2}}
            assert len(accepted) == 2
            assert not gateway.pool._idle.get(("127.0.0.1", port))

        _run_fleet([[port]], scenario, freeze_health=True)

    def test_a_draining_replicas_close_answer_is_not_kept(self):
        async def scenario(gateway, services):
            body = {"algo": "scan", "n": 64, "seed": 1}
            addr = ("127.0.0.1", services[0].port)
            status, _h, _doc = await _gcall(gateway.port, "POST", "/run", body)
            assert status == 200 and len(gateway.pool._idle[addr]) == 1
            services[0].draining = True  # answers 503 + Connection: close
            status, _h, _doc = await _gcall(gateway.port, "POST", "/run", body)
            assert status == 503  # both passes refused: shed
            assert gateway.pool._idle[addr] == []
            assert gateway.metrics.attempt_failures == {"s0r0": {"http 503": 2}}
            assert gateway.metrics_doc()["routing"]["backend_connects"] == {"s0r0": 2}

        _run_fleet([[_service_config()]], scenario, freeze_health=True)


class TestFleetSubprocess:
    """Real replicas through the shipped entry points: signalled at the
    banner, killed under load."""

    def _spawn_replica(self, name, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = ShardProcess(
            name,
            serve_argv(
                name,
                workers=1,
                cache_dir=str(tmp_path / "cache"),
            ),
            env=env,
        )
        proc.start(timeout=60.0)
        return proc

    def test_sigterm_the_moment_the_banner_is_read_drains(self, tmp_path):
        """A supervisor may signal as soon as it parses the listen banner."""
        proc = self._spawn_replica("s0r0", tmp_path)
        proc.terminate()
        try:
            assert proc.wait(15.0) == 0
            deadline = time.monotonic() + 5.0
            while not any("drained cleanly" in line for line in proc.log):
                assert time.monotonic() < deadline, proc.log
                time.sleep(0.02)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.proc.pid, signal.SIGKILL)  # a stray pool worker too
            proc.wait(5.0)

    def test_replica_kill_under_load_zero_failures(self, tmp_path):
        procs = [
            self._spawn_replica("s0r0", tmp_path),
            self._spawn_replica("s0r1", tmp_path),
        ]
        try:
            async def go():
                gateway = FleetGateway(
                    _fleet_config(
                        request_timeout=20.0,
                        attempt_timeout=5.0,
                        probe_interval=0.15,
                        fall=1,
                        rise=1,
                        failure_threshold=2,
                        cooldown=0.5,
                        max_cooldown=2.0,
                    ),
                    [[("127.0.0.1", p.port) for p in procs]],
                )
                await gateway.start()
                try:
                    async def killer():
                        while gateway.metrics.latency.count < 5:
                            await asyncio.sleep(0.02)
                        procs[0].kill()

                    kill_task = asyncio.ensure_future(killer())
                    requests = build_requests(30, seed=7, mix=FAST_MIX, seed_pool=2)
                    report = await run_load(
                        "127.0.0.1", gateway.port, requests,
                        concurrency=4, timeout=30.0, max_retries=12, backoff_seed=7,
                    )
                    await kill_task
                    return report
                finally:
                    await gateway.stop()

            report = asyncio.run(go())
            assert not procs[0].alive  # the kill really happened mid-run
            assert report.dropped == 0, report.errors
            assert report.ok == 30, dict(report.by_status)
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(15.0)


async def _until_ready(port: int, timeout: float = 60.0) -> bool:
    """Poll ``/readyz`` on ``port`` until it answers 200 or ``timeout`` lapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with contextlib.suppress(OSError, asyncio.TimeoutError):
            status, _headers, _doc = await request_once(
                "127.0.0.1", port, "GET", "/readyz", timeout=2.0
            )
            if status == 200:
                return True
        await asyncio.sleep(0.05)
    return False


class TestSpawnReplicas:
    """``spawn_replicas``, the one place replicas are spawned: ``repro
    fleet``'s replicas, fleet-chaos's, and fleet-chaos's restart."""

    def test_a_killed_replica_restarts_on_its_old_port(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "PYTHONPATH", str(SRC_DIR) + os.pathsep + os.environ.get("PYTHONPATH", "")
        )
        trace_dir = tmp_path / "spans"
        procs: dict[str, ShardProcess] = {}
        retired: list[ShardProcess] = []

        def spawn(names):
            spawn_replicas(
                procs, names, workers=1, cache_dir=str(tmp_path / "cache"),
                trace_dir=str(trace_dir),
            )

        try:
            spawn(["s0r0", "s0r1"])
            ports = {name: proc.port for name, proc in procs.items()}
            assert list(ports) == ["s0r0", "s0r1"]
            assert all(ports.values()) and ports["s0r0"] != ports["s0r1"]

            retired.append(procs["s0r1"])
            procs["s0r1"].kill()
            assert procs["s0r1"].wait(10.0) is not None
            spawn(["s0r1"])
            assert procs["s0r1"] is not retired[0] and procs["s0r1"].alive
            assert {name: proc.port for name, proc in procs.items()} == ports

            async def both_ready():
                return await asyncio.gather(*(_until_ready(p) for p in ports.values()))

            assert asyncio.run(both_ready()) == [True, True]
        finally:
            for proc in procs.values():
                proc.terminate()
            codes = [proc.wait(15.0) for proc in procs.values()]
            for proc in retired:
                proc.kill()
                proc.wait(5.0)
        assert codes == [0, 0], {name: proc.log[-3:] for name, proc in procs.items()}
        for proc in procs.values():
            deadline = time.monotonic() + 5.0
            while not any("drained cleanly" in line for line in proc.log):
                assert time.monotonic() < deadline, proc.log
                time.sleep(0.02)
        # the tracing env reached both replicas, the restarted one included:
        # each drain wrote its events to the replica's own span sink
        sinks = {(log.service, log.pid) for log in load_trace_dir(trace_dir)}
        assert sinks == {
            (f"shard-{name}", proc.proc.pid) for name, proc in procs.items()
        }
