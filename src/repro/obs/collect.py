"""Merge per-process span streams: the ``repro trace-collect`` verb.

Input: a trace directory of ``spans-*.jsonl`` files, one per traced process
(see :mod:`repro.obs.tracer`).  The collector:

1. reads each file's ``process`` header and re-bases that process's
   monotonic timestamps onto absolute time (``started_unix + (t -
   started_mono)``), putting every process on one axis;
2. groups spans by trace id and validates chain integrity (parents resolve,
   forwarded gateway requests reach a ``server.request``, executed misses
   reach ``server.execute`` and — on the pool backend — ``worker.execute``);
3. emits one Perfetto-loadable Chrome trace reusing the conventions and
   the writer of :mod:`repro.machine.chrometrace` (process/thread name
   metadata, "X" duration slices, instant events), with one thread lane
   per trace so concurrent requests never falsely nest.  A worker span carrying machine
   ``phases`` rows (the CostTree link) gets nested sub-slices scaled by
   inclusive energy — the serving trace bottoms out in model phases;
4. prints a per-stage latency breakdown (p50/p95 per span name, plus the
   derived gateway→server network component) so tail latency decomposes
   instead of just being measured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..machine.chrometrace import write_trace_doc

__all__ = [
    "ProcessLog",
    "aligned_events",
    "aligned_spans",
    "chrome_trace_doc",
    "group_traces",
    "load_trace_dir",
    "print_stage_table",
    "quantile",
    "stage_breakdown",
    "stage_rows",
    "trace_collect_main",
    "validate_traces",
]


@dataclass
class ProcessLog:
    """One process's parsed span stream, plus its clock-alignment header."""

    path: str
    service: str
    pid: int
    started_unix: float
    started_mono: float
    spans: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    truncated: bool = False
    corrupt: int = 0

    @property
    def offset(self) -> float:
        """Add to a monotonic timestamp to get absolute (unix) time."""
        return self.started_unix - self.started_mono


def read_sink_file(path: str | Path) -> ProcessLog | None:
    """Parse one ``spans-*.jsonl`` file; ``None`` without a process header."""
    header = None
    spans: list[dict] = []
    events: list[dict] = []
    truncated = False
    corrupt = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            kind = record.get("kind")
            if kind == "process" and header is None:
                header = record
            elif kind == "span":
                spans.append(record)
            elif kind == "event":
                events.append(record)
            elif kind == "truncated":
                truncated = True
    if header is None:
        return None
    return ProcessLog(
        path=str(path),
        service=str(header.get("service", "")),
        pid=int(header.get("pid", 0)),
        started_unix=float(header.get("started_unix", 0.0)),
        started_mono=float(header.get("started_mono", 0.0)),
        spans=spans,
        events=events,
        truncated=truncated,
        corrupt=corrupt,
    )


def load_trace_dir(trace_dir: str | Path) -> list[ProcessLog]:
    """All process logs under ``trace_dir``, sorted by (service, pid)."""
    root = Path(trace_dir)
    logs = []
    for path in sorted(root.glob("spans-*.jsonl")):
        plog = read_sink_file(path)
        if plog is not None:
            logs.append(plog)
    if not logs:
        raise FileNotFoundError(f"no spans-*.jsonl files with process headers in {root}")
    logs.sort(key=lambda p: (p.service, p.pid))
    return logs


def aligned_spans(logs: list[ProcessLog]) -> list[dict]:
    """Every span on the absolute time axis, sorted by start.

    Each returned dict is the span record plus ``service``, ``pid``,
    ``start_u`` and ``end_u`` (absolute seconds)."""
    out = []
    for plog in logs:
        offset = plog.offset
        for record in plog.spans:
            merged = dict(record)
            merged["service"] = plog.service
            merged["pid"] = plog.pid
            merged["start_u"] = float(record.get("start", 0.0)) + offset
            merged["end_u"] = float(record.get("end", 0.0)) + offset
            out.append(merged)
    out.sort(key=lambda r: r["start_u"])
    return out


def aligned_events(logs: list[ProcessLog]) -> list[dict]:
    """Every typed event on the absolute time axis, sorted by time."""
    out = []
    for plog in logs:
        offset = plog.offset
        for record in plog.events:
            merged = dict(record)
            merged["service"] = plog.service
            merged["pid"] = plog.pid
            merged["t_u"] = float(record.get("t", 0.0)) + offset
            out.append(merged)
    out.sort(key=lambda r: r["t_u"])
    return out


def group_traces(spans: list[dict]) -> dict[str, list[dict]]:
    """Spans grouped by trace id (spans without one are skipped)."""
    traces: dict[str, list[dict]] = {}
    for span in spans:
        tid = span.get("trace")
        if tid:
            traces.setdefault(tid, []).append(span)
    return traces


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a sample (0 for an empty one)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def stage_breakdown(spans: list[dict]) -> list[dict]:
    """Per-stage latency rows: count / mean / p50 / p95 / max, in ms.

    Stages are span names, plus a derived ``network (gw->server)`` stage:
    for each ok ``gateway.attempt`` whose child ``server.request`` is in the
    trace, the attempt duration minus the server duration is the wire +
    connect + serialization cost between the tiers."""
    samples: dict[str, list[float]] = {}
    by_span_id: dict[str, dict] = {}
    for span in spans:
        dur_ms = max(0.0, (span["end_u"] - span["start_u"]) * 1000.0)
        samples.setdefault(span["name"], []).append(dur_ms)
        sid = span.get("span")
        if sid:
            by_span_id[sid] = span
    for span in spans:
        if span["name"] != "server.request":
            continue
        parent = by_span_id.get(span.get("parent") or "")
        if parent is None or parent["name"] != "gateway.attempt":
            continue
        attempt_ms = max(0.0, (parent["end_u"] - parent["start_u"]) * 1000.0)
        server_ms = max(0.0, (span["end_u"] - span["start_u"]) * 1000.0)
        samples.setdefault("network (gw->server)", []).append(max(0.0, attempt_ms - server_ms))
    return stage_rows(samples)


def stage_rows(samples: dict[str, list[float]]) -> list[dict]:
    """One row per stage, sorted by name: the count, mean, p50, p95 and max
    of its latency samples (ms)."""
    rows = []
    for name in sorted(samples):
        values = samples[name]
        rows.append(
            {
                "stage": name,
                "count": len(values),
                "mean_ms": round(sum(values) / len(values), 3),
                "p50_ms": round(quantile(values, 0.50), 3),
                "p95_ms": round(quantile(values, 0.95), 3),
                "max_ms": round(max(values), 3),
            }
        )
    return rows


def print_stage_table(rows: list[dict]) -> None:
    """Print :func:`stage_rows` output as an aligned table (nothing if empty)."""
    if not rows:
        return
    width = max(len(r["stage"]) for r in rows)
    print(f"{'stage'.ljust(width)}  {'count':>6}  {'p50_ms':>9}  {'p95_ms':>9}  {'max_ms':>9}")
    for row in rows:
        print(
            f"{row['stage'].ljust(width)}  {row['count']:>6}  "
            f"{row['p50_ms']:>9.3f}  {row['p95_ms']:>9.3f}  {row['max_ms']:>9.3f}"
        )


def validate_traces(traces: dict[str, list[dict]], *, require_worker: bool = True) -> list[str]:
    """Chain-integrity failures across all traces (empty = valid).

    * every span's parent, when set, resolves within its trace;
    * a ``forwarded`` gateway request has attempt spans, and its ok attempt
      reaches a ``server.request`` span;
    * an executed (non-cached, leader) server request has a
      ``server.execute`` child, and — with ``require_worker`` and the pool
      backend — the execute span has a ``worker.execute`` child.
    """
    failures = []
    for tid, spans in sorted(traces.items()):
        short = tid[:8]
        ids = {s["span"] for s in spans if s.get("span")}
        for span in spans:
            parent = span.get("parent")
            if parent and parent not in ids:
                failures.append(f"{short}: {span['name']} has unresolved parent {parent[:8]}")
        attempts = [s for s in spans if s["name"] == "gateway.attempt"]
        servers = [s for s in spans if s["name"] == "server.request"]
        for gw in (s for s in spans if s["name"] == "gateway.request"):
            if gw.get("attrs", {}).get("outcome") != "forwarded":
                continue
            mine = [a for a in attempts if a.get("parent") == gw["span"]]
            if not mine:
                failures.append(f"{short}: forwarded gateway.request has no attempt spans")
                continue
            ok_ids = {a["span"] for a in mine if a["status"] == "ok"}
            if ok_ids and not any(s.get("parent") in ok_ids for s in servers):
                failures.append(f"{short}: ok attempt has no server.request child")
        for srv in servers:
            attrs = srv.get("attrs", {})
            if attrs.get("status_code") != 200 or attrs.get("cached") or not attrs.get("leader"):
                continue
            execs = [
                s for s in spans if s["name"] == "server.execute" and s.get("parent") == srv["span"]
            ]
            if not execs:
                failures.append(f"{short}: executed server.request has no server.execute child")
                continue
            if require_worker:
                for ex in execs:
                    if ex.get("attrs", {}).get("backend") != "pool" or ex["status"] != "ok":
                        continue
                    kids = [
                        s
                        for s in spans
                        if s["name"] == "worker.execute" and s.get("parent") == ex["span"]
                    ]
                    if not kids:
                        failures.append(f"{short}: pool server.execute has no worker.execute span")
    return failures


# -- Chrome trace export --------------------------------------------------


def _phase_slices(rows: list[dict], pid: int, tid: int, ts_us: float, dur_us: float) -> list[dict]:
    """Nested sub-slices for a worker span's CostTree ``phases`` rows.

    The flattened rows arrive pre-order (root first, ``level`` = depth).
    Real per-phase wall time is not recorded — the model counts energy — so
    children split their parent's slice proportionally to inclusive energy,
    which is exactly the attribution the paper's cost trees make."""
    if not rows or dur_us <= 0:
        return []

    def child_indexes(i: int) -> list[int]:
        level = rows[i].get("level", 0)
        out = []
        j = i + 1
        while j < len(rows) and rows[j].get("level", 0) > level:
            if rows[j].get("level", 0) == level + 1:
                out.append(j)
            j += 1
        return out

    events: list[dict] = []

    def emit(i: int, start_us: float, span_us: float) -> None:
        row = rows[i]
        path = str(row.get("path", "?"))
        name = path.rsplit("/", 1)[-1] or path
        events.append(
            {
                "name": f"phase:{name}",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round(start_us, 3),
                "dur": round(span_us, 3),
                "args": {
                    "path": path,
                    "inclusive_energy": row.get("inclusive_energy"),
                    "inclusive_messages": row.get("inclusive_messages"),
                    "max_depth": row.get("max_depth"),
                },
            }
        )
        kids = child_indexes(i)
        parent_energy = float(row.get("inclusive_energy") or 0.0)
        if not kids or parent_energy <= 0:
            return
        cursor = start_us
        for j in kids:
            frac = max(0.0, float(rows[j].get("inclusive_energy") or 0.0)) / parent_energy
            child_us = span_us * min(1.0, frac)
            emit(j, cursor, child_us)
            cursor += child_us

    # the root row duplicates the worker span's extent; inset it slightly so
    # Chrome nests it under the worker slice instead of tying with it
    emit(0, ts_us + dur_us * 0.001, dur_us * 0.998)
    return events


def chrome_trace_doc(logs: list[ProcessLog], *, label: str = "repro distributed trace") -> dict:
    """One Perfetto-loadable Chrome trace over every process's spans."""
    spans = aligned_spans(logs)
    events_al = aligned_events(logs)
    t0 = min([s["start_u"] for s in spans] + [e["t_u"] for e in events_al], default=0.0)
    trace_events: list[dict] = []
    pid_of: dict[tuple[str, int], int] = {}
    for i, plog in enumerate(logs, start=1):
        pid_of[(plog.service, plog.pid)] = i
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": i,
                "args": {"name": f"{plog.service} (pid {plog.pid})"},
            }
        )
    # one thread lane per (process, trace): concurrent requests in one
    # process must not stack into a false nesting on a shared lane
    lanes: dict[tuple[int, str], int] = {}
    lane_count: dict[int, int] = {}

    def lane_for(pid: int, trace_id: str) -> int:
        key = (pid, trace_id or "-")
        if key not in lanes:
            lane_count[pid] = lane_count.get(pid, 0) + 1
            lanes[key] = lane_count[pid]
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": lanes[key],
                    "args": {"name": f"trace {trace_id[:8]}" if trace_id else "events"},
                }
            )
        return lanes[key]

    for span in spans:
        pid = pid_of[(span["service"], span["pid"])]
        tid = lane_for(pid, span.get("trace") or "")
        ts_us = (span["start_u"] - t0) * 1e6
        dur_us = max(0.0, (span["end_u"] - span["start_u"]) * 1e6)
        attrs = span.get("attrs", {})
        args = {k: v for k, v in attrs.items() if k != "phases"}
        args.update(trace=span.get("trace"), span=span.get("span"), status=span.get("status"))
        trace_events.append(
            {
                "name": span["name"],
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round(ts_us, 3),
                "dur": round(dur_us, 3),
                "args": args,
            }
        )
        phases = attrs.get("phases")
        if isinstance(phases, list) and phases:
            trace_events.extend(_phase_slices(phases, pid, tid, ts_us, dur_us))
    for ev in events_al:
        pid = pid_of[(ev["service"], ev["pid"])]
        tid = lane_for(pid, ev.get("trace") or "")
        trace_events.append(
            {
                "name": f"event:{ev.get('type', '?')}",
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": round((ev["t_u"] - t0) * 1e6, 3),
                "args": dict(ev.get("attrs", {})),
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "processes": len(logs),
            "spans": len(spans),
            "events": len(events_al),
        },
    }


def collect_summary(logs: list[ProcessLog], *, require_worker: bool = True) -> dict:
    """The whole merge: processes, traces, validation, stage breakdown."""
    spans = aligned_spans(logs)
    events = aligned_events(logs)
    traces = group_traces(spans)
    failures = validate_traces(traces, require_worker=require_worker)
    for plog in logs:
        if plog.truncated:
            failures.append(f"{plog.service} (pid {plog.pid}): span sink truncated")
        if plog.corrupt:
            failures.append(f"{plog.service} (pid {plog.pid}): {plog.corrupt} corrupt line(s)")
    return {
        "processes": [
            {
                "service": p.service,
                "pid": p.pid,
                "spans": len(p.spans),
                "events": len(p.events),
                "truncated": p.truncated,
            }
            for p in logs
        ],
        "spans": len(spans),
        "events": len(events),
        "traces": len(traces),
        "stages": stage_breakdown(spans),
        "failures": failures,
    }


# -- CLI ------------------------------------------------------------------


def add_trace_collect_args(parser) -> None:
    parser.add_argument("--dir", required=True, help="trace directory of spans-*.jsonl files")
    parser.add_argument("--out", default="", help="write the merged Chrome trace JSON here")
    parser.add_argument("--json", default="", help="write the merge summary JSON here")
    parser.add_argument(
        "--require-complete",
        action="store_true",
        help="exit non-zero unless every trace chains gateway -> server -> worker",
    )
    parser.add_argument(
        "--no-require-worker",
        action="store_true",
        help="with --require-complete, accept chains that stop at server.execute "
        "(inline executors have no worker process)",
    )
    parser.add_argument("--min-traces", type=int, default=0, help="fail below this many traces")


def trace_collect_main(args) -> int:
    """Entry point for the ``repro trace-collect`` CLI verb."""
    try:
        logs = load_trace_dir(args.dir)
    except FileNotFoundError as exc:
        print(f"trace-collect: {exc}")
        return 2
    summary = collect_summary(logs, require_worker=not args.no_require_worker)
    for proc in summary["processes"]:
        flag = " TRUNCATED" if proc["truncated"] else ""
        print(
            f"trace-collect: {proc['service']} (pid {proc['pid']}): "
            f"{proc['spans']} span(s), {proc['events']} event(s){flag}"
        )
    print(
        f"trace-collect: {summary['traces']} trace(s), {summary['spans']} span(s), "
        f"{summary['events']} event(s) merged"
    )
    print_stage_table(summary["stages"])
    if args.out:
        count = write_trace_doc(chrome_trace_doc(logs), args.out)
        print(
            f"trace-collect: wrote {count} trace event(s) to {args.out} "
            "(load in ui.perfetto.dev or chrome://tracing)"
        )
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(summary, indent=2, sort_keys=True))
        print(f"trace-collect: summary -> {args.json}")
    failed = False
    if args.min_traces and summary["traces"] < args.min_traces:
        print(f"trace-collect: FAIL: {summary['traces']} trace(s) < required {args.min_traces}")
        failed = True
    if args.require_complete and summary["failures"]:
        for failure in summary["failures"]:
            print(f"trace-collect: FAIL: {failure}")
        failed = True
    return 1 if failed else 0
