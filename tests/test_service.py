"""Tests for the serving layer (`repro serve` and repro.service.*).

Three tiers:

* pure unit tests for the protocol, batcher, cache, and metrics pieces;
* in-process integration tests driving a real asyncio server over real
  sockets (inline executor — no forking under the test runner);
* one subprocess test exercising the shipped entry points end to end:
  ``repro serve`` with the worker pool, the loadgen module, ``/metrics``
  scraping, and SIGTERM graceful drain.
"""

import asyncio
import gc
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.runner.cache import ResultCache
from repro.runner.cachekey import PROFILE_SALT, point_key
from repro.runner.spec import PointSpec
from repro.service import (
    Batcher,
    FleetConfig,
    FleetGateway,
    RequestError,
    ServiceCache,
    ServiceConfig,
    ServiceMetrics,
    ServiceRequest,
    SpatialService,
)
from repro.service.httpio import http_call, read_http_request, write_response
from repro.service.loadgen import build_requests, fetch_metrics, run_load

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: small-n request mix: every key executes in well under a second
FAST_MIX = (
    ("scan", (64, 256)),
    ("sort", (64, 256)),
    ("select", (64, 256)),
    ("spmv", (16, 64)),
)


class TestProtocol:
    def test_roundtrip(self):
        req = ServiceRequest.from_payload({"algo": "scan", "n": 4096, "seed": 7})
        assert req == ServiceRequest("scan", 4096, 7, False)
        assert req.suite_name == "table1_scan"
        assert req.params() == {"n": 4096}
        assert req.describe()["suite"] == "table1_scan"

    def test_sort_sweeps_side_not_n(self):
        req = ServiceRequest.from_payload({"algo": "sort", "n": 1024})
        assert req.params() == {"side": 32}
        assert req.point() == PointSpec(suite="table1_sort", params={"side": 32}, seed=0)

    def test_rejects_non_object(self):
        with pytest.raises(RequestError):
            ServiceRequest.from_payload([1, 2, 3])

    def test_rejects_unknown_algo(self):
        with pytest.raises(RequestError) as exc:
            ServiceRequest.from_payload({"algo": "fft", "n": 64})
        assert exc.value.field == "algo"

    def test_rejects_unknown_field(self):
        with pytest.raises(RequestError, match="unknown field"):
            ServiceRequest.from_payload({"algo": "scan", "n": 64, "shards": 2})

    def test_rejects_missing_n(self):
        with pytest.raises(RequestError) as exc:
            ServiceRequest.from_payload({"algo": "scan"})
        assert exc.value.field == "n"

    def test_rejects_out_of_range_n(self):
        with pytest.raises(RequestError, match="out of range"):
            ServiceRequest.from_payload({"algo": "sort", "n": 16384})

    def test_rejects_non_power_of_four(self):
        with pytest.raises(RequestError, match="power of 4"):
            ServiceRequest.from_payload({"algo": "scan", "n": 100})

    def test_spmv_any_size_in_range(self):
        assert ServiceRequest.from_payload({"algo": "spmv", "n": 100}).n == 100

    def test_rejects_bool_masquerading_as_int(self):
        with pytest.raises(RequestError):
            ServiceRequest.from_payload({"algo": "scan", "n": True})

    def test_rejects_non_bool_profile(self):
        with pytest.raises(RequestError, match="boolean"):
            ServiceRequest.from_payload({"algo": "scan", "n": 64, "profile": 1})

    def test_cache_key_matches_runner_identity(self):
        req = ServiceRequest("scan", 256, seed=1)
        expected = point_key(
            PointSpec(suite="table1_scan", params={"n": 256}, seed=1), "v0"
        )
        assert req.cache_key("v0") == expected

    def test_profile_salts_cache_key(self):
        plain = ServiceRequest("scan", 256, 1, False).cache_key("v0")
        prof = ServiceRequest("scan", 256, 1, True).cache_key("v0")
        assert plain != prof
        assert prof == point_key(
            PointSpec(suite="table1_scan", params={"n": 256}, seed=1),
            "v0" + PROFILE_SALT,
        )


class TestBatcher:
    def test_leader_executes_on_its_first_loop_turn(self):
        async def go():
            batcher = Batcher()
            started = asyncio.Event()

            async def execute():
                started.set()
                return {}

            task = asyncio.ensure_future(batcher.submit("k", execute))
            await asyncio.sleep(0)
            began = started.is_set()
            await task
            return began

        assert asyncio.run(go())

    def test_identical_keys_coalesce_to_one_execution(self):
        async def go():
            batcher = Batcher()
            calls = 0

            async def execute():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.01)
                return {"v": 42}

            outs = await asyncio.gather(*(batcher.submit("k", execute) for _ in range(5)))
            return calls, outs

        calls, outs = asyncio.run(go())
        assert calls == 1
        assert [o.leader for o in outs].count(True) == 1
        assert all(o.payload == {"v": 42} for o in outs)
        assert all(o.batched for o in outs)

    def test_distinct_keys_do_not_coalesce(self):
        async def go():
            batcher = Batcher()
            calls = 0

            async def execute():
                nonlocal calls
                calls += 1
                return {}

            outs = await asyncio.gather(
                batcher.submit("a", execute), batcher.submit("b", execute)
            )
            return calls, outs

        calls, outs = asyncio.run(go())
        assert calls == 2
        assert all(o.leader and not o.batched for o in outs)

    def test_leader_failure_propagates_to_waiters(self):
        async def go():
            batcher = Batcher()

            async def execute():
                await asyncio.sleep(0.01)
                raise ValueError("boom")

            tasks = [
                asyncio.ensure_future(batcher.submit("k", execute)) for _ in range(3)
            ]
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, batcher.depth()

        results, depth = asyncio.run(go())
        assert all(isinstance(r, ValueError) for r in results)
        assert depth == 0  # failed batch is closed, not wedged

    def test_cancelled_waiter_does_not_kill_the_batch(self):
        async def go():
            batcher = Batcher()
            calls = 0

            async def execute():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.05)
                return {"v": 1}

            leader = asyncio.ensure_future(batcher.submit("k", execute))
            await asyncio.sleep(0.01)  # leader is inside its execution
            waiter = asyncio.ensure_future(batcher.submit("k", execute))
            await asyncio.sleep(0.01)
            waiter.cancel()
            out = await leader
            return calls, out

        calls, out = asyncio.run(go())
        assert calls == 1
        assert out.payload == {"v": 1}


class TestServiceCache:
    def _request(self):
        return ServiceRequest("scan", 64, 0, False)

    def test_memory_roundtrip_and_lru_eviction(self):
        cache = ServiceCache(maxsize=2, disk=None)
        req = self._request()
        for key in ("a", "b", "c"):
            cache.put(key, req, {"metrics": {"energy": 1}, "phases": [], "extra": {}}, 0.1)
        assert cache.get("a") == (None, None)  # evicted
        payload, tier = cache.get("c")
        assert tier == "memory" and payload["metrics"]["energy"] == 1

    def test_disk_tier_shared_with_runner_cache(self, tmp_path):
        disk = ResultCache(tmp_path / "cache")
        req = self._request()
        payload = {"metrics": {"energy": 7}, "phases": [], "extra": {"note": 1}}
        ServiceCache(maxsize=4, disk=disk).put("key1", req, payload, 0.2)

        # a fresh instance (empty LRU) falls through to disk, then promotes
        fresh = ServiceCache(maxsize=4, disk=disk)
        got, tier = fresh.get("key1")
        assert tier == "disk" and got["metrics"]["energy"] == 7
        assert fresh.get("key1")[1] == "memory"

        # and the stored artifact is a schema-valid runner PointResult
        stored = disk.get("key1")
        assert stored.status == "ok" and stored.params == {"n": 64}


class TestServiceMetrics:
    def test_lifecycle_counters(self):
        m = ServiceMetrics()
        m.request_received()
        m.request_admitted("scan")
        assert (m.inflight, m.peak_inflight) == (1, 1)
        m.request_finished(200, 0.005)
        assert m.inflight == 0
        m.response_only(404)
        snap = m.snapshot(queue_depth=3)
        assert snap["requests"]["total"] == 1
        assert snap["requests"]["queue_depth"] == 3
        assert snap["responses"]["by_status"] == {"200": 1, "404": 1}
        assert snap["latency"]["count"] == 1

    def test_cache_hit_rate(self):
        m = ServiceMetrics()
        m.cache_hit("memory")
        m.cache_hit("disk")
        m.cache_misses += 2
        assert m.snapshot()["cache"]["hit_rate"] == 0.5

    def test_histogram_quantiles(self):
        from repro.service import LatencyHistogram

        h = LatencyHistogram()
        for ms in (1, 1, 1, 1, 1, 1, 1, 1, 1, 900):
            h.observe(ms / 1000.0)
        d = h.as_dict()
        assert d["count"] == 10
        # nine observations fill the (0.5, 1] bucket: p50 interpolates to
        # 0.5 + 0.5 * (5/9), not the 1ms upper bound
        assert d["p50_ms"] == 0.778
        # the straggler interpolates inside its (500, 1000] bucket
        assert d["p99_ms"] == 950.0
        assert d["max_ms"] == 900


class TestLoadgen:
    def test_request_mix_is_deterministic(self):
        assert build_requests(50, 7) == build_requests(50, 7)
        assert build_requests(50, 7) != build_requests(50, 8)

    def test_generated_requests_all_validate(self):
        for payload in build_requests(200, 3):
            ServiceRequest.from_payload(payload)


async def _start_stub(respond):
    """A tiny HTTP stub: ``respond(request_number) -> (status, doc, headers)``."""
    counter = {"n": 0}

    async def handler(reader, writer):
        try:
            while True:
                parsed = await read_http_request(reader)
                if parsed is None:
                    break
                counter["n"] += 1
                status, doc, extra = respond(counter["n"])
                await write_response(writer, status, doc, extra, True)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], counter


class TestLoadgenBackoff:
    """429/503 + Retry-After answers are resent, not counted as failures."""

    def test_retry_after_is_honored_then_succeeds(self):
        async def go():
            def respond(n):
                if n <= 3:  # the first three answers push back
                    return 503, {"ok": False, "error": "warming"}, [("Retry-After", "0.05")]
                return 200, {"ok": True, "metrics": {"energy": 1}}, []

            server, port, counter = await _start_stub(respond)
            try:
                requests = [{"algo": "scan", "n": 64, "seed": i} for i in range(5)]
                report = await run_load(
                    "127.0.0.1", port, requests,
                    concurrency=2, timeout=10.0, backoff_seed=3,
                )
                return report, counter["n"]
            finally:
                server.close()
                await server.wait_closed()

        report, calls = asyncio.run(go())
        assert report.dropped == 0
        assert report.ok == 5
        assert dict(report.by_status) == {200: 5}  # only final statuses recorded
        assert report.backoff_retries == 3
        assert calls == 8  # 5 requests + 3 Retry-After resends
        assert report.model_metrics["energy"] == 5

    def test_backoff_gives_up_after_max_retries(self):
        async def go():
            def respond(n):
                return 503, {"ok": False, "error": "down"}, [("Retry-After", "0.05")]

            server, port, _counter = await _start_stub(respond)
            try:
                requests = [{"algo": "scan", "n": 64, "seed": i} for i in range(3)]
                return await run_load(
                    "127.0.0.1", port, requests,
                    concurrency=1, timeout=10.0, max_retries=2,
                )
            finally:
                server.close()
                await server.wait_closed()

        report = asyncio.run(go())
        assert report.dropped == 0  # an HTTP 503 is an answer, not a drop
        assert report.ok == 0
        assert dict(report.by_status) == {503: 3}
        assert report.backoff_retries == 6  # 3 requests x max_retries=2


class TestLoadgenReconnect:
    def test_server_close_reopens_once_per_request_and_closes_the_old(self):
        """A server that answers ``Connection: close`` costs one connection
        per request: none after the last, and every old one is closed."""

        async def go():
            connections = 0

            async def handler(reader, writer):
                nonlocal connections
                connections += 1
                try:
                    if await read_http_request(reader) is not None:
                        doc = {"ok": True, "metrics": {"energy": 1}}
                        await write_response(writer, 200, doc, [], False)
                finally:
                    writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                requests = [{"algo": "scan", "n": 64, "seed": i} for i in range(10)]
                report = await run_load(
                    "127.0.0.1", port, requests, concurrency=1, timeout=10.0
                )
                await asyncio.sleep(0.2)  # let the server accept any straggler
            finally:
                server.close()
                await server.wait_closed()
            return report, connections

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            report, connections = asyncio.run(go())
            gc.collect()
        assert report.ok == 10 and report.dropped == 0
        assert connections == 10
        leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []


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


def _gate_executions(service) -> asyncio.Event:
    """Park every execution ``service`` starts until the returned event is
    set, then run it for real: a slow simulation without the timing."""
    gate = asyncio.Event()
    execute = service.executor.execute

    async def gated(request, trace=None):
        await gate.wait()
        return await execute(request, trace)

    service.executor.execute = gated
    return gate


async def _until(ready, timeout=20.0):
    """Poll ``ready()`` until it holds or ``timeout`` seconds pass (a
    broken server then fails the caller's assertions instead of hanging)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not ready() and asyncio.get_running_loop().time() < deadline:
        await asyncio.sleep(0.005)


def _with_service(config, scenario):
    """Run ``await scenario(service)`` against a live in-process server."""

    async def go():
        service = SpatialService(config)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.drain(10.0)
            await service.stop()

    return asyncio.run(go())


def _with_front(role, scenario):
    """Run ``await scenario(port)`` against one live HTTP front.

    ``role`` is ``"server"`` (an inline :class:`SpatialService`) or
    ``"gateway"`` (a :class:`FleetGateway` in front of one inline server)."""
    if role == "server":
        return _with_service(_service_config(), lambda service: scenario(service.port))

    async def go():
        service = SpatialService(_service_config())
        await service.start()
        gateway = FleetGateway(
            FleetConfig(port=0, disk_cache=False, drain_timeout=5.0),
            [[("127.0.0.1", service.port)]],
        )
        await gateway.start()
        try:
            return await scenario(gateway.port)
        finally:
            await gateway.drain(5.0)
            await gateway.stop()
            await service.drain(10.0)
            await service.stop()

    return asyncio.run(go())


async def _call(port, method, path, payload=None, timeout=30.0):
    """One request on a fresh connection -> (status, doc, server_closed)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        status, _headers, doc, closed = await http_call(
            reader, writer, method, path, payload, timeout=timeout
        )
        return status, doc, closed
    finally:
        writer.close()


async def _call_raw(port, body: bytes, timeout=10.0):
    """Send raw bytes; return (status, headers, doc) — doc is the body text
    when the response is not JSON."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(body)
        await writer.drain()
        status = int((await asyncio.wait_for(reader.readline(), timeout)).split()[1])
        headers = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await reader.readexactly(length) if length else b""
        if headers.get("content-type") != "application/json":
            return status, headers, raw.decode()
        return status, headers, json.loads(raw) if raw else {}
    finally:
        writer.close()


#: /healthz answer of each role behind the shared HTTP front
_HEALTH = {
    "server": {"status": "ok", "draining": False},
    "gateway": {"status": "ok", "role": "gateway", "draining": False},
}


class TestServerRoutes:
    @pytest.mark.parametrize("role", ["server", "gateway"])
    def test_basic_routes(self, role):
        async def scenario(port):
            status, doc, _ = await _call(port, "GET", "/healthz")
            assert (status, doc) == (200, _HEALTH[role])
            status, doc, _ = await _call(port, "GET", "/algos")
            assert status == 200 and doc["algos"]["scan"]["suite"] == "table1_scan"
            status, doc, _ = await _call(port, "GET", "/")
            assert status == 200 and "/run" in doc["endpoints"]
            status, doc, _ = await _call(port, "GET", "/nope")
            assert status == 404 and doc["error"] == "no route for /nope"
            for path in ("/run", "/plan"):
                raw = f"GET {path} HTTP/1.1\r\n\r\n".encode()
                status, headers, doc = await _call_raw(port, raw)
                assert status == 405 and headers["allow"] == "POST"
                assert doc["error"] == f"use POST {path}"
            status, headers, doc = await _call_raw(port, b"DELETE /metrics HTTP/1.1\r\n\r\n")
            assert status == 405 and headers["allow"] == "GET"
            status, doc, _ = await _call(port, "POST", "/run", {"algo": "fft", "n": 64})
            assert status == 400 and "unknown algo" in doc["error"]
            status, doc, _ = await _call(port, "GET", "/metrics")
            assert status == 200 and doc["responses"]["by_status"]["404"] == 1
            raw = b"GET /metrics?format=prometheus HTTP/1.1\r\n\r\n"
            status, headers, text = await _call_raw(port, raw)
            assert status == 200
            assert headers["content-type"] == "text/plain; version=0.0.4; charset=utf-8"
            assert "# TYPE repro_requests_total gauge" in text

        _with_front(role, scenario)

    @pytest.mark.parametrize("role", ["server", "gateway"])
    def test_malformed_json_and_http(self, role):
        async def scenario(port):
            raw = b"POST /run HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!"
            status, headers, doc = await _call_raw(port, raw)
            assert status == 400 and "invalid JSON" in doc["error"]
            assert headers["connection"] == "keep-alive"
            status, headers, doc = await _call_raw(port, b"garbage\r\n\r\n")
            assert status == 400 and "malformed request line" in doc["error"]
            assert headers["connection"] == "close"
            raw = b"POST /run HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n"
            status, _, doc = await _call_raw(port, raw)
            assert status == 400 and "exceeds" in doc["error"]

        _with_front(role, scenario)

    def test_run_executes_and_caches(self):
        async def scenario(service):
            port = service.port
            body = {"algo": "scan", "n": 64, "seed": 0}
            status, doc, _ = await _call(port, "POST", "/run", body)
            assert status == 200 and doc["ok"]
            assert doc["cached"] is False
            for name in ("energy", "messages", "rounds", "max_depth", "max_distance"):
                assert name in doc["metrics"]
            status, doc2, _ = await _call(port, "POST", "/run", body)
            assert status == 200 and doc2["cached"] == "memory"
            assert doc2["metrics"] == doc["metrics"]
            snap = service.metrics_doc()
            assert snap["cache"]["hits_memory"] == 1
            assert snap["batching"]["executions"] == 1

        _with_service(_service_config(), scenario)

    def test_a_cache_hit_is_answered_without_a_task(self):
        async def scenario(service):
            body = {"algo": "scan", "n": 64, "seed": 0}
            status, _doc, _ = await _call(service.port, "POST", "/run", body)
            assert status == 200
            processed = []
            process = service._process

            def counting(request, *args):
                processed.append(request.algo)
                return process(request, *args)

            service._process = counting
            status, doc, _ = await _call(service.port, "POST", "/run", body)
            assert status == 200 and doc["cached"] == "memory"
            assert processed == []  # answered by the handler itself
            status, doc, _ = await _call(service.port, "POST", "/run", dict(body, seed=1))
            assert status == 200 and doc["cached"] is False
            assert processed == ["scan"]  # a miss goes on to the batcher

        _with_service(_service_config(), scenario)

    def test_profile_rejected_inline(self):
        async def scenario(service):
            status, doc, _ = await _call(
                service.port, "POST", "/run", {"algo": "scan", "n": 64, "profile": True}
            )
            assert status == 400 and "profile" in doc["error"]

        _with_service(_service_config(), scenario)

    def test_readyz_splits_from_healthz(self):
        async def scenario(service):
            port = service.port
            status, doc, _ = await _call(port, "GET", "/readyz")
            assert status == 200 and doc == {"ready": True, "draining": False}

            # a warming executor flips readiness but never liveness
            service.executor.ready = lambda: False
            status, doc, _ = await _call(port, "GET", "/readyz")
            assert status == 503 and doc["reason"] == "warming"
            status, doc, _ = await _call(port, "GET", "/healthz")
            assert status == 200
            del service.executor.ready

            # draining does the same, with a Retry-After hint
            service.draining = True
            status, headers, doc = await _call_raw(port, b"GET /readyz HTTP/1.1\r\n\r\n")
            assert status == 503 and doc["reason"] == "draining"
            assert headers["retry-after"] == "1"
            service.draining = False
            status, doc, _ = await _call(port, "GET", "/readyz")
            assert status == 200 and doc["ready"] is True

        _with_service(_service_config(), scenario)

    def test_shard_id_echoed_on_health_and_metrics(self):
        async def scenario(service):
            _, doc, _ = await _call(service.port, "GET", "/healthz")
            assert doc["shard"] == "s1r0"
            _, doc, _ = await _call(service.port, "GET", "/readyz")
            assert doc["shard"] == "s1r0"
            assert service.metrics_doc()["service"]["shard"] == "s1r0"

        _with_service(_service_config(shard_id="s1r0"), scenario)

    def test_draining_returns_503(self):
        async def scenario(service):
            service.draining = True
            status, doc, _ = await _call(
                service.port, "POST", "/run", {"algo": "scan", "n": 64}
            )
            assert status == 503 and "draining" in doc["error"]
            service.draining = False

        _with_service(_service_config(), scenario)

    def test_admission_control_429_with_retry_after(self):
        async def scenario(service):
            port = service.port
            # eight distinct keys at once against max_inflight=3: a gated
            # execution holds the first three in flight, the rest must bounce
            gate = _gate_executions(service)

            async def post(seed):
                body = json.dumps({"algo": "scan", "n": 64, "seed": seed}).encode()
                raw = (
                    b"POST /run HTTP/1.1\r\nContent-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                return await _call_raw(port, raw, timeout=30.0)

            posts = asyncio.gather(*(post(s) for s in range(8)))
            await _until(lambda: service.metrics.rejected == 5)
            gate.set()
            outs = await posts
            statuses = [s for s, _, _ in outs]
            assert statuses.count(200) == 3
            assert statuses.count(429) == 5
            rejected = next(out for out in outs if out[0] == 429)
            assert rejected[1].get("retry-after") == "1"
            assert service.metrics.rejected == 5

        _with_service(_service_config(max_inflight=3), scenario)


class TestServerUnderLoad:
    def test_fifty_concurrent_inflight_zero_drops(self):
        """The headline acceptance: >=50 in flight, nothing dropped."""

        async def scenario(service):
            port = service.port
            requests = build_requests(60, seed=11, mix=FAST_MIX, seed_pool=2)
            # executions stay parked until 50 requests are in flight
            gate = _gate_executions(service)
            load = asyncio.ensure_future(
                run_load("127.0.0.1", port, requests, concurrency=50, timeout=60.0)
            )
            await _until(lambda: service.metrics.inflight >= 50)
            gate.set()
            report = await load
            assert report.dropped == 0, report.errors
            assert report.ok == 60, dict(report.by_status)

            # 50 simultaneous first requests over <=16 distinct keys: the
            # pigeonhole guarantees coalescing happened
            snap = service.metrics_doc()
            assert snap["requests"]["peak_inflight"] >= 50
            assert snap["batching"]["batched_executions"] >= 1
            assert snap["batching"]["coalesced_requests"] >= 1

            # any repeated request is now a cache hit
            status, doc, _ = await _call(port, "POST", "/run", requests[0])
            assert status == 200 and doc["cached"] == "memory"
            assert service.metrics_doc()["cache"]["hits"] >= 1

        _with_service(_service_config(max_inflight=128, workers=8), scenario)

    def test_timeout_returns_504_pool_backend(self, tmp_path):
        # needs the real pool: kill-on-timeout is a process-level contract
        async def scenario(service):
            status, doc, _ = await _call(
                service.port,
                "POST",
                "/run",
                {"algo": "sort", "n": 4096},
                timeout=30.0,
            )
            assert status == 504, doc
            assert service.metrics.timeouts == 1
            # the pool replaced the killed worker and still serves
            status, doc, _ = await _call(
                service.port, "POST", "/run", {"algo": "scan", "n": 64}, timeout=30.0
            )
            assert status == 200 and doc["ok"]
            assert service.executor.stats()["pool_replaced"] >= 1

        _with_service(
            _service_config(
                inline=False,
                workers=1,
                timeout=0.05,
                disk_cache=True,
                cache_dir=str(tmp_path / "cache"),
            ),
            scenario,
        )

    def test_worker_crash_mid_batch_one_504_per_request(self, tmp_path):
        """A worker killed mid-batch: every coalesced waiter gets exactly one
        504, the failure is counted once, and the replacement worker serves."""

        async def scenario(service):
            port = service.port
            pool = service.executor._pool
            pids = [w.proc.pid for w in pool._idle]
            assert len(pids) == 1

            body = {"algo": "sort", "n": 4096}
            gate = _gate_executions(service)
            leader = asyncio.ensure_future(_call(port, "POST", "/run", body, timeout=60.0))
            await _until(lambda: service.batcher.depth() == 1)  # leader is parked
            follower = asyncio.ensure_future(_call(port, "POST", "/run", body, timeout=60.0))
            await _until(
                lambda: sum(b.waiters for b in service.batcher._inflight.values()) == 2
            )
            gate.set()

            # wait until the batch has actually been dispatched to the worker,
            # then kill it mid-task
            deadline = asyncio.get_running_loop().time() + 20.0
            while pool._idle and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.01)
            assert not pool._idle, "execution never reached the worker"
            os.kill(pids[0], signal.SIGKILL)

            (s1, d1, _), (s2, d2, _) = await asyncio.gather(leader, follower)
            assert (s1, s2) == (504, 504), (d1, d2)
            assert "died" in d1["error"] and "died" in d2["error"]

            snap = service.metrics_doc()
            assert snap["requests"]["crashed"] == 2  # one 504 per affected request
            assert snap["responses"]["by_status"]["504"] == 2
            assert snap["batching"]["executions"] == 1  # ...but one execution
            assert snap["batching"]["execution_failures"] == 1  # counted once
            assert snap["requests"]["timeouts"] == 0  # a crash is not a timeout
            assert service.executor.stats()["pool_replaced"] >= 1

            # the replacement worker serves the next request
            status, doc, _ = await _call(port, "POST", "/run", {"algo": "scan", "n": 64}, timeout=60.0)
            assert status == 200 and doc["ok"]

        _with_service(
            _service_config(
                inline=False,
                workers=1,
                timeout=60.0,
                disk_cache=True,
                cache_dir=str(tmp_path / "cache"),
            ),
            scenario,
        )


def _stat(pid) -> list[str]:
    """``/proc/<pid>/stat`` after the command name (state, ppid, ...);
    empty once the process is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _alive(pid) -> bool:
    return _stat(pid)[:1] not in ([], ["Z"])


def _live_children(pid: int) -> list[int]:
    """Live (non-zombie) child processes of ``pid``."""
    return [
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and _alive(entry) and _stat(entry)[1:2] == [str(pid)]
    ]


class TestServeSubprocess:
    """End to end through the shipped entry points, pool backend included."""

    def _spawn(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
                *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        banner = proc.stdout.readline()
        match = re.search(r"listening on http://[\d.]+:(\d+)", banner)
        if not match:
            proc.kill()
            raise AssertionError(f"no listen banner, got: {banner!r}")
        return proc, int(match.group(1))

    def test_serve_loadgen_metrics_and_sigterm_drain(self, tmp_path):
        proc, port = self._spawn(tmp_path)
        try:
            requests = build_requests(60, seed=5, mix=FAST_MIX, seed_pool=2)
            report = asyncio.run(
                run_load("127.0.0.1", port, requests, concurrency=50, timeout=60.0)
            )
            assert report.dropped == 0, report.errors
            assert report.ok == 60, dict(report.by_status)
            assert report.batched >= 1

            # a repeat of the whole mix is served from cache, no new executions
            metrics_before = asyncio.run(fetch_metrics("127.0.0.1", port))
            report2 = asyncio.run(
                run_load("127.0.0.1", port, requests, concurrency=10, timeout=60.0)
            )
            assert report2.ok == 60 and report2.cache_hits == 60
            metrics = asyncio.run(fetch_metrics("127.0.0.1", port))
            assert metrics["requests"]["peak_inflight"] >= 50
            assert metrics["batching"]["batched_executions"] >= 1
            assert metrics["cache"]["hits"] >= 60
            assert metrics["batching"]["executions"] == metrics_before["batching"]["executions"]
            assert metrics["service"]["executor"]["backend"] == "pool"
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "drained cleanly" in out

    def test_sigterm_drains_inflight_request(self, tmp_path):
        """SIGTERM while a request is executing: it completes, then exit 0."""

        async def scenario(proc, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                task = asyncio.ensure_future(
                    http_call(reader, writer, "POST", "/run",
                              {"algo": "select", "n": 1024}, timeout=60.0)
                )
                await asyncio.sleep(0.05)  # request is in flight
                proc.send_signal(signal.SIGTERM)
                status, _headers, doc, _ = await task
                assert status == 200 and doc["ok"]
            finally:
                writer.close()

        proc, port = self._spawn(tmp_path)
        try:
            asyncio.run(scenario(proc, port))
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "drained cleanly" in out

    def test_sigterm_drain_completes_batched_followers(self, tmp_path):
        """SIGTERM with a leader AND a coalesced follower in flight: both get
        the leader's result — a follower is never dropped mid-drain."""

        async def scenario(proc, port):
            # a ~0.5 s execution: the follower attaches while it runs
            body = {"algo": "graph", "n": 256}
            r1, w1 = await asyncio.open_connection("127.0.0.1", port)
            r2, w2 = await asyncio.open_connection("127.0.0.1", port)
            try:
                leader = asyncio.ensure_future(
                    http_call(r1, w1, "POST", "/run", body, timeout=60.0)
                )
                await asyncio.sleep(0.05)  # leader is executing
                follower = asyncio.ensure_future(
                    http_call(r2, w2, "POST", "/run", body, timeout=60.0)
                )
                await asyncio.sleep(0.05)  # both attached, execution running
                proc.send_signal(signal.SIGTERM)
                (s1, _, d1, _), (s2, _, d2, _) = await asyncio.gather(leader, follower)
                for status, doc in ((s1, d1), (s2, d2)):
                    assert status == 200 and doc["ok"], (status, doc)
                assert d1["metrics"] == d2["metrics"]
                assert d1.get("batched") and d2.get("batched")
            finally:
                w1.close()
                w2.close()

        proc, port = self._spawn(tmp_path)
        try:
            asyncio.run(scenario(proc, port))
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "drained cleanly" in out

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_sigkilled_server_leaves_no_pool_worker(self, tmp_path):
        """A server killed without a drain never stops its pool: the workers
        must notice on their own and exit."""
        proc, _port = self._spawn(tmp_path)
        workers = _live_children(proc.pid)
        try:
            assert len(workers) == 2, workers
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            for pid in filter(_alive, workers):
                os.kill(pid, signal.SIGKILL)
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=60)
