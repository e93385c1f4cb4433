"""Per-process span and event recording with a bounded JSONL sink.

Every traced process (loadgen, gateway, shard server, pool worker) owns one
:class:`Tracer` writing to its own ``spans-<service>-<pid>.jsonl`` file under
a shared trace directory.  The file's first record is a ``process`` header
carrying the service name and a (unix, monotonic) clock pair read at sink
creation; span timestamps are monotonic, and the collector reconstructs
absolute time as ``started_unix + (t_mono - started_mono)`` per process —
the same offset-alignment trick the machine's Chrome-trace export uses for
phase spans.

Design constraints, in order:

* **Zero-cost disabled path.**  Without ``REPRO_TRACE_DIR`` the module-level
  :data:`NULL_TRACER` is returned everywhere; instrumentation points guard on
  ``tracer.enabled`` (a class attribute) and allocate nothing.  Tracing code
  never touches a metrics counter, so ``/metrics`` is byte-identical with
  tracing on or off.
* **Bounded.**  The sink refuses writes past ``max_records`` (drops are
  counted and a single ``truncated`` marker record is appended once), so a
  runaway load can never grow a span file without bound.
* **Deterministic under test.**  Span/trace ids come from a seeded
  ``random.Random`` and the clock is injectable, so a test can fix both and
  get byte-stable span records.
"""

from __future__ import annotations

import json
import os
import random
import re
import threading
import time
from pathlib import Path

from .context import TraceContext

__all__ = [
    "DEFAULT_MAX_RECORDS",
    "ENV_TRACE_DIR",
    "NULL_TRACER",
    "ActiveSpan",
    "NullTracer",
    "SpanSink",
    "Tracer",
    "WallClock",
    "make_tracer",
    "tracer_from_env",
]

#: opt-in switch: a directory path enables tracing for the process and (via
#: fork/exec inheritance) its pool workers and spawned shard replicas
ENV_TRACE_DIR = "REPRO_TRACE_DIR"

DEFAULT_MAX_RECORDS = 100_000


class WallClock:
    """Real time: the unix epoch plus the monotonic axis spans live on."""

    def unix(self) -> float:
        return time.time()

    def mono(self) -> float:
        return time.monotonic()


class SpanSink:
    """Bounded append-only JSONL writer for one process's span stream."""

    def __init__(self, path: str | Path, header: dict, max_records: int = DEFAULT_MAX_RECORDS):
        self.path = Path(path)
        self.header = dict(header)
        self.max_records = max(1, int(max_records))
        self.written = 0
        self.dropped = 0
        self._truncated = False
        self._fh = None
        self._lock = threading.Lock()

    def write(self, record: dict) -> bool:
        """Append one record; ``False`` (and a drop count) past the bound."""
        with self._lock:
            if self.written >= self.max_records:
                self.dropped += 1
                if not self._truncated:
                    # one marker past the bound so the collector can tell a
                    # truncated stream from a complete one
                    self._truncated = True
                    self._emit({"kind": "truncated", "after": self.max_records})
                return False
            self._emit(record)
            self.written += 1
            return True

    def _emit(self, record: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(json.dumps(self.header, separators=(",", ":")) + "\n")
        self._fh.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
        self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class ActiveSpan:
    """One open span; ``end()`` is idempotent and records it to the sink."""

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_mono",
        "end_mono",
        "attrs",
        "status",
        "_done",
    )

    def __init__(self, tracer, name, trace_id, span_id, parent_id, start_mono, attrs):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_mono = start_mono
        self.end_mono = 0.0
        self.attrs = attrs
        self.status = "ok"
        self._done = False

    @property
    def ctx(self) -> TraceContext:
        """The context this span propagates downstream."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration_ms(self) -> float:
        return max(0.0, (self.end_mono - self.start_mono) * 1000.0)

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def end(self, status: str | None = None) -> None:
        if self._done:
            return
        self._done = True
        if status is not None:
            self.status = status
        self.tracer._record_span(self)


class Tracer:
    """Span/event recorder for one process ("service")."""

    enabled = True

    def __init__(
        self,
        service: str,
        sink: SpanSink,
        *,
        seed: int | None = None,
        clock: WallClock | None = None,
    ) -> None:
        self.service = str(service)
        self.sink = sink
        self.clock = clock if clock is not None else WallClock()
        self._rng = random.Random(seed)

    # -- ids --------------------------------------------------------------
    def new_trace_id(self) -> str:
        return f"{self._rng.getrandbits(128):032x}"

    def new_span_id(self) -> str:
        return f"{self._rng.getrandbits(64):016x}"

    # -- spans ------------------------------------------------------------
    def start_span(
        self,
        name: str,
        *,
        parent: TraceContext | None = None,
        trace_id: str | None = None,
        span_id: str | None = None,
        attrs: dict | None = None,
    ) -> ActiveSpan:
        """Open a span.  ``parent`` links into an existing trace; without
        one, ``trace_id`` (or a fresh random id) starts a new trace."""
        if parent is not None:
            tid, parent_id = parent.trace_id, parent.span_id
        else:
            tid, parent_id = trace_id or self.new_trace_id(), None
        return ActiveSpan(
            self,
            name,
            tid,
            span_id or self.new_span_id(),
            parent_id,
            self.clock.mono(),
            dict(attrs) if attrs else {},
        )

    def _record_span(self, span: ActiveSpan) -> None:
        span.end_mono = self.clock.mono()
        record = {
            "kind": "span",
            "name": span.name,
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "start": round(span.start_mono, 6),
            "end": round(span.end_mono, 6),
            "status": span.status,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        self.sink.write(record)

    # -- typed events ------------------------------------------------------
    def event(self, etype: str, *, parent: TraceContext | None = None, attrs: dict | None = None):
        """Record one point-in-time structured event (the typed replacement
        for banner prints: breaker transitions, health flaps, drain...)."""
        record = {"kind": "event", "type": etype, "t": round(self.clock.mono(), 6)}
        if parent is not None:
            record["trace"] = parent.trace_id
            record["parent"] = parent.span_id
        if attrs:
            record["attrs"] = dict(attrs)
        self.sink.write(record)

    def close(self) -> None:
        self.sink.close()


class _NullSpan:
    """The span of the disabled path: every method is a no-op."""

    __slots__ = ()
    ctx = None
    trace_id = ""
    span_id = ""
    status = "ok"
    duration_ms = 0.0

    def set(self, **attrs) -> None:
        pass

    def end(self, status: str | None = None) -> None:
        pass


class NullTracer:
    """The disabled path: ``enabled`` is False and everything is a no-op."""

    enabled = False
    service = ""
    sink = None

    def start_span(self, name, **kwargs) -> _NullSpan:
        return NULL_SPAN

    def event(self, etype, **kwargs) -> None:
        pass

    def close(self) -> None:
        pass


NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()

_SAFE_NAME_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def make_tracer(
    service: str,
    trace_dir: str | Path,
    *,
    seed: int | None = None,
    clock: WallClock | None = None,
    max_records: int = DEFAULT_MAX_RECORDS,
) -> Tracer:
    """A real tracer writing ``spans-<service>-<pid>.jsonl`` under ``trace_dir``."""
    clock = clock if clock is not None else WallClock()
    pid = os.getpid()
    safe = _SAFE_NAME_RE.sub("_", str(service)) or "proc"
    header = {
        "kind": "process",
        "format": 1,
        "service": str(service),
        "pid": pid,
        "started_unix": clock.unix(),
        "started_mono": clock.mono(),
    }
    sink = SpanSink(Path(trace_dir) / f"spans-{safe}-{pid}.jsonl", header, max_records=max_records)
    return Tracer(str(service), sink, seed=seed, clock=clock)


def tracer_from_env(service: str) -> Tracer | NullTracer:
    """The process tracer: real when ``REPRO_TRACE_DIR`` is set, else the
    shared no-op.  Pool workers and spawned shard replicas inherit the
    environment, which is how one flag traces a whole fleet."""
    trace_dir = os.environ.get(ENV_TRACE_DIR, "")
    if not trace_dir:
        return NULL_TRACER
    return make_tracer(service, trace_dir)
