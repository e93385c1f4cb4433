"""Serving-layer throughput/latency — the full stack minus process forking.

Each sweep point boots a real :class:`~repro.service.server.SpatialService`
on a loopback socket (inline executor: sweep workers are daemonic and may
not fork children), then drives a seeded closed-loop request mix through
the loadgen over persistent connections.  The *gated* metrics are the model
costs summed over the served responses — the request multiset is a pure
function of the mix seed, and every response carries the simulator's
deterministic counters, so the sums are reproducible no matter how requests
interleave, coalesce, or hit the cache.  Wall-clock figures (throughput,
latency percentiles, cache/batch efficiency) ride along in ``extra``.
"""

import asyncio

#: small-n mix: every distinct key simulates in well under a second
MIX = (
    ("scan", (64, 256, 1024)),
    ("sort", (64, 256)),
    ("select", (64, 256)),
    ("spmv", (16, 64)),
)


def _serve_load(requests: int, concurrency: int, mix_seed: int) -> dict:
    """Boot a service, push the seeded mix through it, return the report."""
    # imported here so that loading the suite registry leaves the service
    # stack unloaded
    from repro.service.loadgen import build_requests, run_load
    from repro.service.server import ServiceConfig, SpatialService

    async def go():
        config = ServiceConfig(
            port=0,
            inline=True,
            workers=4,
            max_inflight=max(64, 2 * concurrency),
            disk_cache=False,
            drain_timeout=30.0,
        )
        service = SpatialService(config)
        await service.start()
        try:
            mix = build_requests(requests, mix_seed, mix=MIX, seed_pool=2)
            report = await run_load(
                "127.0.0.1", service.port, mix,
                concurrency=concurrency, timeout=120.0,
            )
            snapshot = service.metrics_doc()
        finally:
            await service.drain(10.0)
            await service.stop()
        if report.ok != requests:
            raise RuntimeError(
                f"service dropped work: {report.ok}/{requests} ok, "
                f"errors={report.errors[:3]}, statuses={dict(report.by_status)}"
            )
        return report, snapshot

    return asyncio.run(go())


def test_service_throughput(benchmark, report):
    rep, snap = benchmark.pedantic(
        lambda: _serve_load(40, 16, mix_seed=1), rounds=1, iterations=1
    )
    doc = rep.as_dict()
    report(
        f"service: {doc['requests']} requests at c=16 -> "
        f"{doc['throughput_rps']} req/s, p95 {doc['latency_p95_ms']} ms, "
        f"{doc['cache_hits']} cache hits, {doc['batched']} batched, "
        f"{snap['batching']['executions']} executions"
    )
    assert doc["dropped"] == 0
    assert doc["ok"] == 40
    # 16 concurrent arrivals over <=14 distinct keys: coalescing must happen
    assert snap["batching"]["executions"] < 40


# -- repro.runner suite ----------------------------------------------------
from repro.runner import register_suite


@register_suite(
    "service",
    artifact="serving layer — summed model costs gate; wall-clock in extra",
    grid={"requests": [120], "concurrency": [32]},
    quick={"requests": [40], "concurrency": [16]},
    timeout=300.0,
)
def _suite_point(params, rng):
    mix_seed = int(rng.integers(0, 2**31))
    rep, snap = _serve_load(params["requests"], params["concurrency"], mix_seed)
    doc = rep.as_dict()
    metrics = rep.model_metrics
    return {
        "metrics": {
            "energy": int(metrics["energy"]),
            "messages": int(metrics["messages"]),
            "rounds": int(metrics["rounds"]),
            "max_depth": int(metrics["max_depth"]),
            "max_distance": int(metrics["max_distance"]),
        },
        "phases": [],
        "extra": {
            "requests": doc["requests"],
            "throughput_rps": doc["throughput_rps"],
            "latency_p50_ms": doc["latency_p50_ms"],
            "latency_p95_ms": doc["latency_p95_ms"],
            "cache_hits": doc["cache_hits"],
            "batched_responses": doc["batched"],
            "executions": snap["batching"]["executions"],
            "coalesced_requests": snap["batching"]["coalesced_requests"],
            "peak_inflight": snap["requests"]["peak_inflight"],
        },
    }
