"""Fleet-level chaos harness: ``repro fleet-chaos``.

Extends the repo's fault-injection discipline (simulator-level ``repro
chaos``, single-server ``--chaos`` drain tests) to the sharded serving
tier.  The harness runs the same seeded request multiset twice through a
``shards x replicas`` fleet behind an in-process gateway:

1. a **clean run** — no faults, establishing the baseline summed model
   counters (deterministic simulations make the sums a pure function of
   the request multiset);
2. a **chaos run** — a seeded schedule kills one replica (SIGKILL),
   hangs another on a *different* shard (SIGSTOP), restarts the killed
   replica on its old port mid-run (slow start: the gateway must not route
   to it until its worker pool is warm), and finally resumes the hung one.
   The event after the restart first holds new requests at the gateway
   until the restarted replica is ready and its breaker may probe, so the
   rest of the load re-admits it.

Because every shard keeps at least one live replica throughout, the gates
are exact, not statistical:

* zero dropped requests and zero failed (non-200) client responses;
* summed model counters **byte-identical** to the clean run;
* hedged duplicate executions bounded by the configured hedge rate;
* at least one circuit breaker ``-> open`` transition in the gateway's
  ``/metrics`` during chaos;
* surviving replicas drain cleanly on SIGTERM (banner grep);
* the restarted replica served requests and its breaker ended ``closed``.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

from ..machine.chrometrace import write_trace_doc
from ..obs.tracer import make_tracer
from .fleet import FleetConfig, FleetGateway, ShardProcess, spawn_replicas
from .loadgen import build_requests, run_load

__all__ = ["ChaosEvent", "build_schedule", "fleet_chaos_main"]


@dataclass(frozen=True)
class ChaosEvent:
    """One fault, fired when ``fraction`` of the load has completed."""

    fraction: float
    action: str  # kill | hang | restart | resume
    target: str  # replica name, e.g. "s1r0"


def build_schedule(shards: int, replicas: int, seed: int) -> list[ChaosEvent]:
    """The seeded kill/hang/restart/resume schedule.

    The killed and hung replicas live on different shards, so with
    ``replicas >= 2`` every shard keeps at least one untouched replica and
    the exact invariants are achievable."""
    if replicas < 2:
        raise SystemExit("fleet-chaos needs --replicas >= 2 to keep every shard alive")
    rng = random.Random(seed)
    kill_shard = rng.randrange(shards)
    if shards > 1:
        hang_shard = (kill_shard + 1 + rng.randrange(shards - 1)) % shards
    else:
        hang_shard = kill_shard
    kill_target = f"s{kill_shard}r{rng.randrange(replicas)}"
    hang_target = f"s{hang_shard}r{rng.randrange(replicas)}"
    if shards == 1 and hang_target == kill_target:
        # single-shard fallback: hang a different replica than the kill
        hang_target = f"s0r{(int(kill_target[-1]) + 1) % replicas}"
    return [
        ChaosEvent(0.20, "kill", kill_target),
        ChaosEvent(0.40, "hang", hang_target),
        ChaosEvent(0.60, "restart", kill_target),
        ChaosEvent(0.80, "resume", hang_target),
    ]


class _HeldGateway(FleetGateway):
    """A gateway that holds new ``/run`` requests while ``admit`` is clear."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.admit = asyncio.Event()
        self.admit.set()

    async def serve_run(self, body: bytes, headers: dict) -> tuple[int, dict, list]:
        await self.admit.wait()
        return await super().serve_run(body, headers)


async def _controller(
    gateway: _HeldGateway,
    procs: dict[str, ShardProcess],
    retired: list[ShardProcess],
    schedule: list[ChaosEvent],
    total: int,
    fired: list[dict],
    spawn,
) -> None:
    """Fire each event once ``fraction * total`` responses have completed;
    ``spawn([name])`` restarts a replica on its old port."""

    def finished() -> int:
        return gateway.metrics.latency.count

    restarted = ""
    for event in schedule:
        threshold = event.fraction * total
        while finished() < threshold:
            await asyncio.sleep(0.05)
        if restarted:
            # hold the rest of the load until the restarted replica is ready
            # and its breaker may probe (30 s: inside the client timeout)
            st = next(b for group in gateway.shards for b in group if b.name == restarted)
            gateway.admit.clear()
            since = time.monotonic()
            while not (st.ready and gateway.breakers[restarted].would_allow()):
                if time.monotonic() - since > 30.0:
                    break
                await asyncio.sleep(0.05)
            gateway.admit.set()
            held = round(time.monotonic() - since, 3)
            fired.append({"action": "readmit", "target": restarted, "held_s": held})
            print(f"fleet-chaos: readmit {restarted} after holding the load {held}s", flush=True)
            restarted = ""
        proc = procs[event.target]
        if event.action == "kill":
            proc.kill()
        elif event.action == "hang":
            proc.suspend()
        elif event.action == "resume":
            proc.resume()
        elif event.action == "restart":
            retired.append(proc)

            def _start(t=event.target):
                try:
                    spawn([t])
                except RuntimeError as exc:
                    fired.append({"action": "restart-failed", "target": t,
                                  "error": str(exc)})

            # don't block the controller on the slow start: the point is that
            # the gateway keeps routing around the replica while it warms
            asyncio.get_running_loop().run_in_executor(None, _start)
            restarted = event.target
        fired.append(
            {
                "action": event.action,
                "target": event.target,
                "at_responses": finished(),
            }
        )
        print(
            f"fleet-chaos: {event.action} {event.target} "
            f"at {finished()}/{total} responses",
            flush=True,
        )


async def _drive(
    config: FleetConfig,
    groups: list[list[tuple[str, int]]],
    requests: list[dict],
    *,
    concurrency: int,
    seed: int,
    schedule: list[ChaosEvent] | None,
    procs: dict[str, ShardProcess],
    retired: list[ShardProcess],
    spawn,
    gw_tracer=None,
    lg_tracer=None,
) -> tuple[dict, dict, list[dict]]:
    gateway = _HeldGateway(config, groups, tracer=gw_tracer)
    await gateway.start()
    deadline = time.monotonic() + 60.0
    while not all(st.ready for group in gateway.shards for st in group):
        if time.monotonic() > deadline:
            await gateway.stop()
            raise RuntimeError("fleet never became ready (pool warm-up stalled?)")
        await asyncio.sleep(0.05)
    fired: list[dict] = []
    controller = None
    if schedule:
        controller = asyncio.create_task(
            _controller(gateway, procs, retired, schedule, len(requests), fired, spawn)
        )
    report = await run_load(
        "127.0.0.1",
        gateway.port,
        requests,
        concurrency=concurrency,
        timeout=60.0,
        max_retries=12,
        backoff_seed=seed,
        tracer=lg_tracer,
    )
    if controller is not None:
        controller.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await controller
    metrics = gateway.metrics_doc()
    await gateway.drain(5.0)
    await gateway.stop()
    return report.as_dict(), metrics, fired


def _run_scenario(
    label: str,
    args,
    cache_dir: str,
    schedule: list[ChaosEvent] | None,
    trace_dir: str = "",
) -> tuple[dict, dict, list[dict], dict[str, list[str]]]:
    """Spawn a fleet, drive the load (with optional chaos), drain, collect logs."""
    print(
        f"fleet-chaos: {label} run — {args.shards}x{args.replicas} fleet, "
        f"{args.requests} requests",
        flush=True,
    )
    procs: dict[str, ShardProcess] = {}
    retired: list[ShardProcess] = []
    spawn = functools.partial(
        spawn_replicas,
        procs,
        workers=args.workers,
        cache_dir=cache_dir,
        bench_dir=args.bench_dir,
        trace_dir=trace_dir,
    )
    config = FleetConfig(
        host="127.0.0.1",
        port=0,
        request_timeout=45.0,
        attempt_timeout=2.0,
        hedge_after=0.5,
        hedge_rate=args.hedge_rate,
        probe_interval=0.3,
        probe_timeout=1.0,
        fall=2,
        rise=1,
        failure_threshold=2,
        cooldown=0.5,
        max_cooldown=4.0,
        seed=args.seed,
        cache_dir=cache_dir,
    )
    requests = build_requests(args.requests, args.seed)
    # explicit tracers for the in-process halves: the env var is reserved for
    # the spawned shard children so the harness process stays untraced by it
    gw_tracer = lg_tracer = None
    if trace_dir:
        gw_tracer = make_tracer("gateway", trace_dir, seed=args.seed, max_records=500000)
        lg_tracer = make_tracer("loadgen", trace_dir, seed=args.seed, max_records=500000)
    try:
        spawn([f"s{s}r{r}" for s in range(args.shards) for r in range(args.replicas)])
        groups = [
            [("127.0.0.1", procs[f"s{s}r{r}"].port) for r in range(args.replicas)]
            for s in range(args.shards)
        ]
        report, metrics, fired = asyncio.run(
            _drive(
                config,
                groups,
                requests,
                concurrency=args.concurrency,
                seed=args.seed,
                schedule=schedule,
                procs=procs,
                retired=retired,
                spawn=spawn,
                gw_tracer=gw_tracer,
                lg_tracer=lg_tracer,
            )
        )
    finally:
        if gw_tracer is not None:
            gw_tracer.close()
        if lg_tracer is not None:
            lg_tracer.close()
        # un-freeze anything still SIGSTOP'd so SIGTERM can drain it
        for proc in procs.values():
            proc.resume()
            proc.terminate()
        for proc in procs.values():
            proc.wait(15)
        for proc in retired:
            proc.kill()
            proc.wait(5)
    logs = {name: list(proc.log) for name, proc in procs.items()}
    for proc in retired:
        logs[f"{proc.name} (retired)"] = list(proc.log)
    return report, metrics, fired, logs


def _gate(args, clean: dict, chaos: dict, metrics: dict, logs: dict, schedule) -> list[str]:
    """The exact invariants; returns a list of failure strings."""
    failures = []
    if clean["dropped"] or clean["ok"] != clean["requests"]:
        failures.append(
            f"clean run not clean: {clean['ok']}/{clean['requests']} ok, "
            f"{clean['dropped']} dropped, statuses {clean['by_status']}"
        )
    if chaos["dropped"]:
        failures.append(f"{chaos['dropped']} request(s) dropped under chaos")
    if chaos["ok"] != chaos["requests"]:
        failures.append(
            f"failed responses under chaos: {chaos['ok']}/{chaos['requests']} ok, "
            f"statuses {chaos['by_status']}"
        )
    if clean["model_metrics"] != chaos["model_metrics"]:
        failures.append(
            "summed model counters diverged: "
            f"clean={clean['model_metrics']} chaos={chaos['model_metrics']}"
        )
    total = max(1, metrics["requests"]["total"])
    hedge_frac = metrics["hedging"]["started"] / total
    if hedge_frac > args.hedge_rate + 1e-9:
        failures.append(
            f"hedge rate {hedge_frac:.4f} exceeds the {args.hedge_rate} budget"
        )
    opens = sum(
        1
        for br in metrics.get("breakers", {}).values()
        for t in br.get("transitions", [])
        if t.get("to") == "open"
    )
    if opens == 0:
        failures.append("no circuit breaker opened during chaos")
    drained = [
        name
        for name, lines in logs.items()
        if any("drained cleanly" in line for line in lines)
    ]
    if not drained:
        failures.append("no surviving shard logged a clean drain")
    for name in [e.target for e in schedule if e.action == "restart"]:
        banner = re.findall(r"drained cleanly after (\d+) request", "\n".join(logs.get(name, [])))
        if banner[-1:] in ([], ["0"]):
            seen = f"drained after {banner[-1]} request(s)" if banner else "no drain banner"
            failures.append(f"restarted replica {name} took no load ({seen})")
        state = metrics.get("breakers", {}).get(name, {}).get("state")
        if state != "closed":
            failures.append(f"restarted replica {name}'s breaker ended {state}, not closed")
    return failures


def _trace_gate(trace_dir: str, metrics: dict, out_dir: Path, label: str) -> list[str]:
    """Exact span/metric correspondence gates for a traced chaos run.

    Every failover and hedge the gateway counted in ``/metrics`` must appear
    as spans/events in the collected trace — same counts, not approximations.
    """
    from ..obs.collect import (
        aligned_events,
        aligned_spans,
        chrome_trace_doc,
        group_traces,
        load_trace_dir,
    )

    failures: list[str] = []
    try:
        logs = load_trace_dir(Path(trace_dir))
    except FileNotFoundError:
        return [f"trace gate ({label}): no span sinks found in {trace_dir}"]
    truncated = [log.service for log in logs if log.truncated]
    if truncated:
        failures.append(
            f"trace gate ({label}): truncated span sinks for {sorted(truncated)}"
        )
    spans = aligned_spans(logs)
    events = aligned_events(logs)
    attempts = [s for s in spans if s["name"] == "gateway.attempt"]

    error_attempts = sum(1 for a in attempts if a["status"] == "error")
    counted_failures = sum(
        sum(reasons.values())
        for reasons in metrics["routing"]["attempt_failures"].values()
    )
    if error_attempts != counted_failures:
        failures.append(
            f"trace gate ({label}): {error_attempts} error attempt spans vs "
            f"{counted_failures} attempt_failures in /metrics"
        )

    hedge_spans = sum(1 for a in attempts if a.get("attrs", {}).get("hedge"))
    hedges_started = metrics["hedging"]["started"]
    if hedge_spans != hedges_started:
        failures.append(
            f"trace gate ({label}): {hedge_spans} hedge attempt spans vs "
            f"{hedges_started} hedges_started in /metrics"
        )

    failover_events = [e for e in events if e["type"] == "failover"]
    failovers = metrics["routing"]["failovers"]
    if len(failover_events) != failovers:
        failures.append(
            f"trace gate ({label}): {len(failover_events)} failover events vs "
            f"{failovers} failovers in /metrics"
        )

    # every failed-over request's trace must actually show the failed attempt
    traces = group_traces(spans)
    for ev in failover_events:
        tid = ev.get("trace", "")
        bad = [
            s
            for s in traces.get(tid, [])
            if s["name"] == "gateway.attempt" and s["status"] != "ok"
        ]
        if not bad:
            failures.append(
                f"trace gate ({label}): failover in trace {tid[:8]} has "
                "no non-ok attempt span"
            )
            break

    write_trace_doc(
        chrome_trace_doc(logs, label=f"fleet-chaos {label}"), out_dir / f"trace_{label}.json"
    )
    return failures


def fleet_chaos_main(args) -> int:
    """Entry point for the ``repro fleet-chaos`` CLI verb."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = build_schedule(args.shards, args.replicas, args.seed)
    tracing = bool(getattr(args, "trace", False))
    clean_trace = str(out_dir / "trace_clean") if tracing else ""
    chaos_trace = str(out_dir / "trace_chaos") if tracing else ""

    clean_report, clean_metrics, _, _clean_logs = _run_scenario(
        "clean", args, str(out_dir / "cache_clean"), None, trace_dir=clean_trace
    )
    chaos_report, chaos_metrics, fired, chaos_logs = _run_scenario(
        "chaos", args, str(out_dir / "cache_chaos"), schedule, trace_dir=chaos_trace
    )

    failures = _gate(args, clean_report, chaos_report, chaos_metrics, chaos_logs, schedule)
    if tracing:
        failures += _trace_gate(clean_trace, clean_metrics, out_dir, "clean")
        failures += _trace_gate(chaos_trace, chaos_metrics, out_dir, "chaos")

    doc = {
        "shards": args.shards,
        "replicas": args.replicas,
        "requests": args.requests,
        "seed": args.seed,
        "schedule": [
            {"fraction": e.fraction, "action": e.action, "target": e.target}
            for e in schedule
        ],
        "events_fired": fired,
        "clean": clean_report,
        "chaos": chaos_report,
        "failures": failures,
    }
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    (out_dir / "gateway_metrics_clean.json").write_text(
        json.dumps(clean_metrics, indent=2, sort_keys=True)
    )
    (out_dir / "gateway_metrics_chaos.json").write_text(
        json.dumps(chaos_metrics, indent=2, sort_keys=True)
    )
    (out_dir / "shard_logs_chaos.txt").write_text(
        "\n".join(
            f"[{name}] {line}" for name, lines in chaos_logs.items() for line in lines
        )
        + "\n"
    )
    print(
        f"fleet-chaos: clean {clean_report['ok']}/{clean_report['requests']} ok; "
        f"chaos {chaos_report['ok']}/{chaos_report['requests']} ok, "
        f"{chaos_report['backoff_retries']} backoff retries, "
        f"{chaos_report['degraded']} degraded, "
        f"{chaos_metrics['hedging']['started']} hedges, "
        f"{chaos_metrics['routing']['failovers']} failovers",
        flush=True,
    )
    print(f"fleet-chaos: artifacts -> {out_dir}", flush=True)
    if failures:
        for failure in failures:
            print(f"fleet-chaos: FAIL: {failure}", flush=True)
        return 1
    print("fleet-chaos: PASS — surviving fleet matched the clean run exactly", flush=True)
    return 0
