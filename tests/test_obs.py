"""Tests for the observability subsystem (repro.obs.*).

Covers the wire context (parse/propagate round-trips and malformed-header
totality), the bounded span sink, the clock-alignment merge in the
collector, validation of span chains, the Prometheus exposition of the
metrics snapshots, and the interpolating latency-histogram edges.
"""

import json
from pathlib import Path

import pytest

from repro.obs import (
    NULL_TRACER,
    TRACE_HEADER,
    TraceContext,
    deterministic_span_id,
    deterministic_trace_id,
    make_tracer,
    tracer_from_env,
)
from repro.obs.collect import (
    aligned_events,
    aligned_spans,
    chrome_trace_doc,
    group_traces,
    load_trace_dir,
    quantile,
    stage_breakdown,
    validate_traces,
)
from repro.obs.tracer import ENV_TRACE_DIR, SpanSink, WallClock
from repro.service import LatencyHistogram, render_prometheus, ServiceMetrics

TID = "a" * 32
SID = "b" * 16


class FakeClock(WallClock):
    """Injectable clock: fixed unix epoch, manually advanced monotonic."""

    def __init__(self, unix_at_start: float, mono: float = 0.0) -> None:
        self._unix0 = unix_at_start
        self._mono0 = mono
        self.t = mono

    def unix(self) -> float:
        return self._unix0 + (self.t - self._mono0)

    def mono(self) -> float:
        return self.t


class TestTraceContext:
    def test_header_round_trip(self):
        ctx = TraceContext(trace_id=TID, span_id=SID)
        assert ctx.header_value() == f"00-{TID}-{SID}-01"
        assert TraceContext.parse(ctx.header_value()) == ctx

    def test_unsampled_round_trip(self):
        ctx = TraceContext(trace_id=TID, span_id=SID, sampled=False)
        assert ctx.header_value().endswith("-00")
        parsed = TraceContext.parse(ctx.header_value())
        assert parsed is not None and not parsed.sampled

    def test_parse_normalizes_case(self):
        parsed = TraceContext.parse(f"00-{TID.upper()}-{SID.upper()}-01")
        assert parsed == TraceContext(trace_id=TID, span_id=SID)

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "",
            "garbage",
            f"01-{TID}-{SID}-01",  # unknown version
            f"00-{TID[:-1]}-{SID}-01",  # short trace id
            f"00-{TID}-{SID}x-01",  # long span id
            f"00-{'g' * 32}-{SID}-01",  # non-hex trace id
            f"00-{'0' * 32}-{SID}-01",  # all-zero trace id
            f"00-{TID}-{'0' * 16}-01",  # all-zero span id
            f"00-{TID}-{SID}",  # missing flags
        ],
    )
    def test_malformed_headers_yield_none(self, bad):
        assert TraceContext.parse(bad) is None

    def test_child_keeps_trace_id(self):
        ctx = TraceContext(trace_id=TID, span_id=SID)
        child = ctx.child("c" * 16)
        assert child.trace_id == TID and child.span_id == "c" * 16

    def test_deterministic_ids(self):
        assert deterministic_trace_id("load", 7, 3) == deterministic_trace_id("load", 7, 3)
        assert deterministic_trace_id("load", 7, 3) != deterministic_trace_id("load", 7, 4)
        assert len(deterministic_trace_id("x")) == 32
        assert len(deterministic_span_id("x")) == 16
        # minted ids must survive the wire format
        ctx = TraceContext(deterministic_trace_id("a"), deterministic_span_id("b"))
        assert TraceContext.parse(ctx.header_value()) == ctx


class TestSink:
    def test_bounding_and_truncation_marker(self, tmp_path):
        sink = SpanSink(tmp_path / "spans.jsonl", {"kind": "process"}, max_records=3)
        for i in range(6):
            sink.write({"kind": "span", "i": i})
        sink.close()
        lines = [json.loads(x) for x in (tmp_path / "spans.jsonl").read_text().splitlines()]
        kinds = [r["kind"] for r in lines]
        # header + 3 records + exactly one truncated marker, drops counted
        assert kinds == ["process", "span", "span", "span", "truncated"]
        assert lines[-1]["after"] == 3
        assert sink.dropped == 3

    def test_no_file_until_first_write(self, tmp_path):
        sink = SpanSink(tmp_path / "never.jsonl", {"kind": "process"})
        sink.close()
        assert not (tmp_path / "never.jsonl").exists()

    def test_seeded_tracer_ids_are_stable(self, tmp_path):
        a = make_tracer("svc", tmp_path / "a", seed=42)
        b = make_tracer("svc", tmp_path / "b", seed=42)
        assert a.new_trace_id() == b.new_trace_id()
        assert a.new_span_id() == b.new_span_id()
        a.close()
        b.close()

    def test_tracer_from_env_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_TRACE_DIR, raising=False)
        assert tracer_from_env("svc") is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_null_tracer_is_inert(self):
        NULL_TRACER.event("whatever")
        NULL_TRACER.close()

    def test_span_end_is_idempotent(self, tmp_path):
        tracer = make_tracer("svc", tmp_path, seed=1)
        span = tracer.start_span("op")
        span.end("error")
        span.end("ok")  # ignored: first end wins
        tracer.close()
        logs = load_trace_dir(tmp_path)
        assert len(logs[0].spans) == 1
        assert logs[0].spans[0]["status"] == "error"


def _write_sink(path: Path, service: str, clock: FakeClock, spans, events=()):
    tracer = make_tracer(service, path.parent, seed=0, clock=clock)
    # make_tracer names the file spans-<service>-<pid>.jsonl; steer the sink
    # to a caller-chosen name so two fake processes can share one test pid
    tracer.sink.path = path
    for name, start, end, ctx in spans:
        clock.t = start
        span = tracer.start_span(name, parent=ctx)
        clock.t = end
        span.end()
    for etype, t, attrs in events:
        clock.t = t
        tracer.event(etype, attrs=attrs)
    tracer.close()


class TestCollect:
    def test_clock_alignment_across_processes(self, tmp_path):
        # two processes booted at different monotonic origins but overlapping
        # in absolute time: process B's clock started 1000s "later" on its
        # monotonic axis yet only 5s later on the wall
        clock_a = FakeClock(unix_at_start=1_000_000.0, mono=50.0)
        clock_b = FakeClock(unix_at_start=1_000_005.0, mono=1050.0)
        ctx = TraceContext(trace_id=TID, span_id=SID)
        _write_sink(tmp_path / "spans-a-1.jsonl", "a", clock_a, [("one", 51.0, 52.0, ctx)])
        _write_sink(tmp_path / "spans-b-2.jsonl", "b", clock_b, [("two", 1052.0, 1053.0, ctx)])
        logs = load_trace_dir(tmp_path)
        spans = {s["name"]: s for s in aligned_spans(logs)}
        assert spans["one"]["start_u"] == pytest.approx(1_000_001.0)
        # b's span started at mono 1052 = 2s after its boot = unix 1000007
        assert spans["two"]["start_u"] == pytest.approx(1_000_007.0)
        assert spans["two"]["start_u"] - spans["one"]["start_u"] == pytest.approx(6.0)

    def test_event_alignment(self, tmp_path):
        clock = FakeClock(unix_at_start=500.0, mono=10.0)
        _write_sink(
            tmp_path / "spans-svc-1.jsonl",
            "svc",
            clock,
            [],
            events=[("failover", 12.0, {"from": "s0r0"})],
        )
        logs = load_trace_dir(tmp_path)
        (event,) = aligned_events(logs)
        assert event["type"] == "failover"
        assert event["t_u"] == pytest.approx(502.0)

    def test_load_trace_dir_empty_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace_dir(tmp_path)

    def test_group_and_validate_complete_chain(self, tmp_path):
        tracer = make_tracer("all", tmp_path, seed=0, clock=FakeClock(0.0))
        gw = tracer.start_span("gateway.request", attrs={"outcome": "forwarded"})
        attempt = tracer.start_span("gateway.attempt", parent=gw.ctx)
        srv = tracer.start_span(
            "server.request",
            parent=attempt.ctx,
            attrs={"status_code": 200, "cached": False, "leader": True},
        )
        ex = tracer.start_span("server.execute", parent=srv.ctx, attrs={"backend": "pool"})
        wk = tracer.start_span("worker.execute", parent=ex.ctx)
        for span in (wk, ex, srv, attempt, gw):
            span.end()
        tracer.close()
        logs = load_trace_dir(tmp_path)
        traces = group_traces(aligned_spans(logs))
        assert len(traces) == 1 and len(next(iter(traces.values()))) == 5
        assert validate_traces(traces) == []

    def test_validate_flags_missing_links(self, tmp_path):
        tracer = make_tracer("all", tmp_path, seed=0, clock=FakeClock(0.0))
        gw = tracer.start_span("gateway.request", attrs={"outcome": "forwarded"})
        gw.end()  # forwarded but no attempt spans at all
        orphan = tracer.start_span("server.request", parent=TraceContext(TID, SID))
        orphan.end()  # parent span id never recorded
        tracer.close()
        traces = group_traces(aligned_spans(load_trace_dir(tmp_path)))
        failures = validate_traces(traces)
        assert any("no attempt spans" in f for f in failures)
        assert any("unresolved parent" in f for f in failures)

    def test_stage_breakdown_derives_network_component(self, tmp_path):
        clock = FakeClock(unix_at_start=0.0, mono=0.0)
        tracer = make_tracer("all", tmp_path, seed=0, clock=clock)
        attempt = tracer.start_span("gateway.attempt")
        clock.t = 0.001
        srv = tracer.start_span("server.request", parent=attempt.ctx)
        clock.t = 0.004
        srv.end()
        clock.t = 0.005
        attempt.end()
        tracer.close()
        rows = {r["stage"]: r for r in stage_breakdown(aligned_spans(load_trace_dir(tmp_path)))}
        assert rows["gateway.attempt"]["p50_ms"] == pytest.approx(5.0, abs=0.01)
        # 5ms attempt minus 3ms server = 2ms on the wire
        assert rows["network (gw->server)"]["p50_ms"] == pytest.approx(2.0, abs=0.01)

    def test_chrome_trace_doc_shape(self, tmp_path):
        clock = FakeClock(unix_at_start=0.0, mono=0.0)
        _write_sink(
            tmp_path / "spans-svc-1.jsonl",
            "svc",
            clock,
            [("op", 1.0, 2.0, TraceContext(TID, SID))],
            events=[("drain_started", 3.0, {})],
        )
        doc = chrome_trace_doc(load_trace_dir(tmp_path), label="test")
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "i"} <= phases  # metadata, slices, instants
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices[0]["name"] == "op" and slices[0]["dur"] == pytest.approx(1e6)

    def test_quantile_interpolates(self):
        assert quantile([], 0.5) == 0.0
        assert quantile([7.0], 0.99) == 7.0
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)


class TestHistogramEdges:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.quantile(0.5) == 0.0
        assert h.as_dict()["p99_ms"] == 0.0

    def test_sub_ms_observations_spread_across_buckets(self):
        h = LatencyHistogram()
        for ms in (0.05, 0.2, 0.4, 0.9):
            h.observe(ms / 1000.0)
        buckets = h.as_dict()["buckets"]
        assert buckets["le_0.1ms"] == 1
        assert buckets["le_0.25ms"] == 1
        assert buckets["le_0.5ms"] == 1
        assert buckets["le_1ms"] == 1

    def test_single_observation_interpolates_within_bucket(self):
        h = LatencyHistogram()
        h.observe(0.0007)  # 0.7ms -> the (0.5, 1] bucket
        # the sole observation sits at the q-fraction of its bucket
        assert h.quantile(0.5) == pytest.approx(0.75)
        assert h.quantile(1.0) == pytest.approx(1.0)

    def test_overflow_interpolates_to_observed_max(self):
        h = LatencyHistogram()
        h.observe(20.0)  # 20000ms: beyond the last 10000ms bound
        assert h.quantile(0.5) == pytest.approx(15000.0)
        assert h.quantile(1.0) == pytest.approx(20000.0)
        assert h.as_dict()["buckets"]["le_inf"] == 1

    def test_monotone_in_q(self):
        h = LatencyHistogram()
        for ms in (0.2, 0.8, 3, 3, 40, 900, 12000):
            h.observe(ms / 1000.0)
        qs = [h.quantile(q / 20.0) for q in range(21)]
        assert qs == sorted(qs)


async def _raw_get(port: int, target: str, timeout: float = 10.0):
    """GET without JSON-decoding the body -> (status, headers, body bytes)."""
    import asyncio

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"GET {target} HTTP/1.1\r\nHost: repro\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        status = int((await asyncio.wait_for(reader.readline(), timeout)).split()[1])
        headers = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        body = await reader.read()
        return status, headers, body
    finally:
        writer.close()


class TestServerIntegration:
    """In-process server round-trips: trace propagation and the prometheus route."""

    def _run(self, scenario, **config_overrides):
        import asyncio

        from repro.service import ServiceConfig, SpatialService

        config = ServiceConfig(
            port=0, inline=True, workers=2, disk_cache=False,
            **config_overrides,
        )

        async def go():
            service = SpatialService(config)
            await service.start()
            try:
                return await scenario(service)
            finally:
                await service.drain(10.0)
                await service.stop()

        return asyncio.run(go())

    def test_trace_header_propagates_to_span_file(self, tmp_path):
        import asyncio

        from repro.service.httpio import http_call

        sent = TraceContext(trace_id=TID, span_id=SID)

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                status, _h, doc, _c = await http_call(
                    reader, writer, "POST", "/run",
                    {"algo": "scan", "n": 64, "seed": 1},
                    headers=[(TRACE_HEADER, sent.header_value())],
                )
            finally:
                writer.close()
            return status, doc

        status, doc = self._run(scenario, trace_dir=str(tmp_path))
        assert status == 200
        # the response names its own trace and breaks the latency into stages
        assert doc["trace"]["trace_id"] == TID
        stages = doc["trace"]["stages_ms"]
        assert "total" in stages and "execute" in stages
        # the cache write is a stage of its own, not part of the batch wait
        assert stages["cache_write"] >= 0 and stages["batch_wait"] >= 0
        logs = load_trace_dir(tmp_path)
        reqs = [s for s in aligned_spans(logs) if s["name"] == "server.request"]
        assert len(reqs) == 1
        assert reqs[0]["trace"] == TID
        assert reqs[0]["parent"] == SID  # the client's span is our parent
        assert reqs[0]["attrs"]["status_code"] == 200
        writes = [s for s in aligned_spans(logs) if s["name"] == "server.cache_write"]
        assert len(writes) == 1
        assert writes[0]["trace"] == TID
        assert writes[0]["parent"] == reqs[0]["span"]
        batch = next(s for s in aligned_spans(logs) if s["name"] == "server.batch")
        # the write runs inside the batch, so a later duplicate hits memory
        assert batch["start"] <= writes[0]["start"] <= writes[0]["end"] <= batch["end"]

    def test_disabled_tracing_emits_nothing(self, tmp_path):
        import asyncio

        from repro.service.httpio import http_call

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                _s, _h, doc, _c = await http_call(
                    reader, writer, "POST", "/run", {"algo": "scan", "n": 64, "seed": 1},
                    headers=[(TRACE_HEADER, f"00-{TID}-{SID}-01")],
                )
            finally:
                writer.close()
            return doc

        doc = self._run(scenario)  # no trace_dir: tracing off
        assert "trace" not in doc
        assert list(tmp_path.iterdir()) == []

    def test_metrics_prometheus_route(self):
        from repro.service import PROM_CONTENT_TYPE

        async def scenario(service):
            return await _raw_get(service.port, "/metrics?format=prometheus")

        status, headers, body = self._run(scenario)
        assert status == 200
        assert headers["content-type"] == PROM_CONTENT_TYPE
        text = body.decode()
        assert "# TYPE repro_latency_ms histogram" in text
        assert 'repro_latency_ms_bucket{le="+Inf"}' in text

    def test_metrics_default_stays_json(self):
        async def scenario(service):
            return await _raw_get(service.port, "/metrics")

        status, headers, body = self._run(scenario)
        assert status == 200
        assert headers["content-type"].startswith("application/json")
        assert "latency" in json.loads(body)


class TestPromExport:
    def test_histogram_exposition(self):
        m = ServiceMetrics()
        m.request_received()
        m.request_admitted("scan")
        m.request_finished(200, 0.0042)
        text = render_prometheus(m.snapshot())
        assert text.endswith("\n")
        # cumulative buckets with the canonical suffixes
        assert 'repro_latency_ms_bucket{le="5"} 1' in text
        assert 'repro_latency_ms_bucket{le="+Inf"} 1' in text
        assert "repro_latency_ms_count 1" in text
        assert "repro_latency_ms_sum 4.2" in text
        assert "repro_requests_total 1" in text

    def test_buckets_are_cumulative(self):
        m = ServiceMetrics()
        m.request_received()
        m.request_admitted("scan")
        m.request_finished(200, 0.0003)  # 0.3ms
        m.request_received()
        m.request_admitted("scan")
        m.request_finished(200, 0.003)  # 3ms
        text = render_prometheus(m.snapshot())
        assert 'repro_latency_ms_bucket{le="0.5"} 1' in text
        assert 'repro_latency_ms_bucket{le="5"} 2' in text

    def test_labeled_counters(self):
        m = ServiceMetrics()
        m.request_received()
        m.request_admitted("sort")
        m.request_finished(429, 0.001)
        text = render_prometheus(m.snapshot())
        assert 'repro_requests_by_algo{algo="sort"} 1' in text
        assert 'repro_responses_by_status{status="429"} 1' in text
