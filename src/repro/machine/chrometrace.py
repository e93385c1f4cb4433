"""Chrome trace-event export: load a profiled run into Perfetto.

Converts a :class:`~repro.machine.profiler.SpatialProfiler`'s phase and
counter timelines into the Trace Event Format consumed by
``https://ui.perfetto.dev`` and ``chrome://tracing``:

* **phase spans** (``ph: "B"``/``"E"`` on the ``phases`` thread) — every
  ``machine.phase(...)`` span, nested exactly as the algorithm opened them;
* **counter tracks** (``ph: "C"``) — cumulative energy, per-batch messages,
  and the running ``max_depth`` after every communicating batch;
* **critical-path hops** (``ph: "X"`` on the ``critical path`` thread) —
  the depth witness's hops, labelled with their endpoints and phase.

The model has no wall clock; the time axis is the machine's *batch tick*
(one unit per communicating ``send``/``relay``), scaled so one batch reads
as one microsecond in the viewer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .profiler import SpatialProfiler

__all__ = ["chrome_trace_events", "write_chrome_trace", "write_trace_doc"]

_PID = 1
_TID_PHASES = 1
_TID_WITNESS = 2


def chrome_trace_events(profiler: "SpatialProfiler", label: str = "repro") -> dict:
    """Build the ``{"traceEvents": [...]}`` document for one profiled run."""
    events: list[dict] = [
        {"ph": "M", "pid": _PID, "name": "process_name",
         "args": {"name": f"SpatialMachine ({label})"}},
        {"ph": "M", "pid": _PID, "tid": _TID_PHASES, "name": "thread_name",
         "args": {"name": "phases"}},
        {"ph": "M", "pid": _PID, "tid": _TID_WITNESS, "name": "thread_name",
         "args": {"name": "critical path (depth witness)"}},
    ]
    # ---- phase spans; close any still-open spans at the final tick so the
    # file stays well-formed even if export happens mid-phase
    open_stack: list[str] = []
    for tick, ph, path in profiler.phase_events:
        name = path.rsplit("/", 1)[-1] or "(top level)"
        if ph == "B":
            open_stack.append(path)
            events.append({"ph": "B", "pid": _PID, "tid": _TID_PHASES,
                           "ts": tick, "name": name, "args": {"path": path}})
        else:
            if open_stack:
                open_stack.pop()
            events.append({"ph": "E", "pid": _PID, "tid": _TID_PHASES,
                           "ts": tick, "name": name})
    for path in reversed(open_stack):
        events.append({"ph": "E", "pid": _PID, "tid": _TID_PHASES,
                       "ts": profiler.tick, "name": path.rsplit("/", 1)[-1]})
    # ---- counter tracks, one sample per communicating batch
    for tick, energy_cum, messages, depth in profiler.counters:
        events.append({"ph": "C", "pid": _PID, "ts": tick, "name": "energy",
                       "args": {"cumulative": energy_cum}})
        events.append({"ph": "C", "pid": _PID, "ts": tick, "name": "messages",
                       "args": {"per batch": messages}})
        events.append({"ph": "C", "pid": _PID, "ts": tick, "name": "max_depth",
                       "args": {"so far": depth}})
    # ---- the depth witness as slices on its own thread
    witness = profiler.depth_witness() if profiler.witnesses else None
    if witness is not None:
        for i, hop in enumerate(witness.hops):
            events.append({
                "ph": "X", "pid": _PID, "tid": _TID_WITNESS,
                "ts": hop.tick, "dur": 1,
                "name": f"hop {i + 1}: {hop.src}->{hop.dst}",
                "args": {
                    "wire": hop.wire, "attempts": hop.attempts,
                    "depth_after": hop.depth_after,
                    "dist_after": hop.dist_after,
                    "phase": hop.phase, "kind": hop.kind,
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"label": label, "time_axis": "machine batch ticks"}}


def write_trace_doc(doc: dict, path: str | Path) -> int:
    """Write a ``{"traceEvents": [...]}`` document as compact JSON, creating
    parent directories; returns its event count.  Every Chrome trace the
    repo writes goes through here: a profiled run's, ``repro
    trace-collect --out`` and ``repro fleet-chaos --trace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return len(doc["traceEvents"])


def write_chrome_trace(profiler: "SpatialProfiler", path: str | Path, label: str = "repro") -> int:
    """Write one profiled run's trace JSON; returns the number of events emitted."""
    return write_trace_doc(chrome_trace_events(profiler, label), path)
