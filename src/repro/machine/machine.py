"""The Spatial Computer Model simulator.

:class:`SpatialMachine` executes algorithms on a conceptually unbounded 2D grid
of processors and *measures* energy, depth, and distance exactly as defined by
the model (see :mod:`repro.machine.metrics`).

Algorithms manipulate :class:`TrackedArray` objects: batches of values living
at explicit grid coordinates, carrying per-value ``(depth, distance)``
metadata as NumPy arrays.  Every bulk operation (a level of a recursion, a
stage of a sorting network) is a single vectorized call, following the
HPC-Python guidance of batching inner loops.

The two primitive operations are:

* :meth:`SpatialMachine.send` — move a batch of values to new coordinates.
  Each moved value is one message: energy increases by its Manhattan distance,
  its depth by one, its chain distance by the wire length.  Zero-length moves
  are free (a processor "sending" to itself performs no communication).
* :meth:`TrackedArray.combined_with` / :func:`combine` — compute a new value
  locally from co-located inputs; metadata is the elementwise maximum.

Control dependencies (e.g. "iteration t+1 may only start once the broadcast
decision of iteration t arrived") are threaded with
:meth:`TrackedArray.depending_on`, so the measured depth reflects the true
dependency structure of iterative algorithms.

Every machine runs the same ``send`` and ``relay``.  Two interchangeable
bodies implement the batched operations (``docs/PERFORMANCE.md``):

* the **batched bodies and closed forms** run on a :attr:`clean_fast
  <SpatialMachine.clean_fast>` machine (the default, unless strict, traced,
  profiled or faulted);
* the **reference bodies** (every other machine; :class:`ReferenceMachine`
  or ``REPRO_REFERENCE=1`` pins them) are the defining loops of ``send`` and
  ``relay`` calls, kept as the conformance oracle.

The two are required to agree *exactly* — bit-identical payloads, equal
counters, equal cost trees.  ``repro conformance`` and
``tests/test_fast_conformance.py`` enforce the contract on fault-free runs;
a faulted machine always runs the reference bodies.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np

from .faults import (
    RECOVERY_PHASE,
    FaultPlan,
    ModelViolation,
    RecoveryStats,
    backoff_ticks,
    detour_extras,
    spare_extras,
    sample_failures,
)
from .fastpath import quadrant_reduce_fast
from .geometry import Region, manhattan_arrays
from .metrics import META_DTYPE, CostReport, CostTree, MachineStats, combine_meta
from .profiler import SpatialProfiler
from .tracer import Tracer
from . import zorder as zo

__all__ = [
    "SpatialMachine",
    "ReferenceMachine",
    "TrackedArray",
    "combine",
    "concat_tracked",
    "DEFAULT_WORD_BUDGET",
]

#: default strict-mode cap on messages one processor may receive in a single
#: batched round.  The model allows "O(1) words"; every primitive in this
#: repo has per-round fan-in <= 2, so 8 leaves slack for composed algorithms
#: while still catching gather-to-one-cell bugs immediately.
DEFAULT_WORD_BUDGET = 8


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


class TrackedArray:
    """A batch of values on the grid with per-value cost metadata.

    Attributes
    ----------
    payload:
        ``(n, ...)`` array of values; the first axis is the element axis.
    rows, cols:
        ``(n,)`` int64 coordinates of each value's processor.
    depth, dist:
        ``(n,)`` int64 per-value message-chain depth and chain distance.
    """

    __slots__ = ("machine", "payload", "rows", "cols", "depth", "dist")

    def __init__(
        self,
        machine: "SpatialMachine",
        payload: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        depth: np.ndarray,
        dist: np.ndarray,
    ) -> None:
        n = len(payload)
        if not (len(rows) == len(cols) == len(depth) == len(dist) == n):
            raise ValueError("TrackedArray fields must have equal length")
        self.machine = machine
        self.payload = payload
        self.rows = rows
        self.cols = cols
        self.depth = depth
        self.dist = dist

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.payload)

    def __getitem__(self, idx) -> "TrackedArray":
        """Subset by mask / fancy index / slice (no communication)."""
        return _tracked(
            self.machine,
            self.payload[idx],
            self.rows[idx],
            self.cols[idx],
            self.depth[idx],
            self.dist[idx],
        )

    def copy(self) -> "TrackedArray":
        return _tracked(
            self.machine,
            self.payload.copy(),
            self.rows.copy(),
            self.cols.copy(),
            self.depth.copy(),
            self.dist.copy(),
        )

    # ------------------------------------------------------------------
    # local (free) operations
    # ------------------------------------------------------------------
    def with_payload(self, payload: np.ndarray) -> "TrackedArray":
        """Locally recompute the payload (free; metadata unchanged)."""
        if len(payload) != len(self):
            raise ValueError("payload length mismatch")
        return _tracked(self.machine, payload, self.rows, self.cols, self.depth, self.dist)

    def combined_with(
        self, *others: "TrackedArray", payload: np.ndarray
    ) -> "TrackedArray":
        """New value computed at this value's cell from co-located inputs."""
        for o in others:
            if len(o) != len(self):
                raise ValueError("combined_with requires equal-length operands")
        depth, dist = combine_meta(
            [self.depth, *(o.depth for o in others)],
            [self.dist, *(o.dist for o in others)],
        )
        out = _tracked(self.machine, payload, self.rows, self.cols, depth, dist)
        self.machine.observe(out.depth, out.dist)
        return out

    def depending_on(self, control: "TrackedArray") -> "TrackedArray":
        """Add a control dependency on a co-located value (or scalar value).

        The controlling value must already be present at this cell (it was
        broadcast or sent here), so no message is charged; depth/distance are
        the elementwise max of data and control metadata.
        """
        cd = control.depth if len(control) != 1 else control.depth[0]
        cs = control.dist if len(control) != 1 else control.dist[0]
        return _tracked(
            self.machine,
            self.payload,
            self.rows,
            self.cols,
            np.maximum(self.depth, cd),
            np.maximum(self.dist, cs),
        )

    def depending_on_meta(
        self, depth: int | np.ndarray, dist: int | np.ndarray
    ) -> "TrackedArray":
        """Like :meth:`depending_on` with raw metadata: scalars, or arrays
        with one entry per element (a closed-form broadcast's copies)."""
        return _tracked(
            self.machine,
            self.payload,
            self.rows,
            self.cols,
            np.maximum(self.depth, META_DTYPE(depth)),
            np.maximum(self.dist, META_DTYPE(dist)),
        )

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def sent_to(self, rows: np.ndarray, cols: np.ndarray) -> "TrackedArray":
        """Send each value to new coordinates (one message per moved value)."""
        return self.machine.send(self, rows, cols)

    # ------------------------------------------------------------------
    def max_depth(self) -> int:
        return int(self.depth.max()) if len(self) else 0

    def max_dist(self) -> int:
        return int(self.dist.max()) if len(self) else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrackedArray(n={len(self)}, depth<= {self.max_depth()}, "
            f"dist<= {self.max_dist()})"
        )


def _tracked(machine, payload, rows, cols, depth, dist) -> TrackedArray:
    """Build a :class:`TrackedArray` without ``__init__``'s length validation.

    Hot-path constructor for internal call sites whose five field arrays are
    equal-length by construction (slices of a validated array, outputs of
    elementwise kernels).  External constructors keep the checked path.
    """
    ta = TrackedArray.__new__(TrackedArray)
    ta.machine = machine
    ta.payload = payload
    ta.rows = rows
    ta.cols = cols
    ta.depth = depth
    ta.dist = dist
    return ta


def combine(
    arrays: Sequence[TrackedArray], func: Callable[..., np.ndarray]
) -> TrackedArray:
    """Compute ``func(*payloads)`` locally across co-located equal-length arrays."""
    if not arrays:
        raise ValueError("combine needs at least one operand")
    payload = func(*(a.payload for a in arrays))
    return arrays[0].combined_with(*arrays[1:], payload=payload)


def concat_tracked(parts: Sequence[TrackedArray]) -> TrackedArray:
    """Concatenate co-owned tracked arrays (bookkeeping only, no messages)."""
    parts = [p for p in parts if len(p)]
    if not parts:
        raise ValueError("concat_tracked needs at least one non-empty part")
    machine = parts[0].machine
    return _tracked(
        machine,
        np.concatenate([p.payload for p in parts]),
        np.concatenate([p.rows for p in parts]),
        np.concatenate([p.cols for p in parts]),
        np.concatenate([p.depth for p in parts]),
        np.concatenate([p.dist for p in parts]),
    )


class _PhaseSpan:
    """Context manager pushing one phase-tree node (see ``SpatialMachine.phase``)."""

    __slots__ = ("_machine", "_name", "_prev")

    def __init__(self, machine: "SpatialMachine", name: str) -> None:
        self._machine = machine
        self._name = name

    def __enter__(self):
        m = self._machine
        self._prev = m._phase_node
        m._phase_node = self._prev.child(self._name)
        if m.profiler is not None:
            m.profiler.phase_enter(m._phase_node.path)
        return m._phase_node

    def __exit__(self, exc_type, exc, tb) -> None:
        m = self._machine
        if m.profiler is not None:
            m.profiler.phase_exit(m._phase_node.path)
        m._phase_node = self._prev


class _NullSpan:
    """No-op span used when phase accounting is disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class SpatialMachine:
    """An unbounded 2D grid of constant-memory processors with cost metering.

    Parameters
    ----------
    trace:
        Record every message batch in :attr:`tracer` (for small-n tests,
        memory audits and figure generation).  Off by default: tracing large
        runs is memory-hungry.  Pass a preconfigured
        :class:`~repro.machine.tracer.Tracer` (e.g. a streaming one with
        ``retain=False`` and a sink) instead of ``True`` to control the
        memory footprint.
    profile:
        Attach a :class:`~repro.machine.profiler.SpatialProfiler`: per-cell
        traffic/energy grids, per-link XY-route utilization, and the
        depth/distance critical-path witnesses (``docs/PROFILING.md``).
        ``True`` creates a default profiler; a preconfigured
        ``SpatialProfiler`` is used as-is; the default ``None`` consults the
        ``REPRO_PROFILE`` environment flag (so ``repro bench run --profile``
        can profile suite-owned machines).  Costs are unchanged either way —
        the profiler only observes.
    phases:
        Attribute charges to the active :meth:`phase` span in
        :attr:`cost_tree` (on by default; the per-send cost is a handful of
        integer additions).  Disable for hot-path micro-benchmarks.
    faults:
        A :class:`~repro.machine.faults.FaultPlan` to execute under: dead
        cells are spared/detoured around and dropped or corrupted messages
        are retransmitted, with every recovery charge landing in the flat
        counters *and* a dedicated top-level ``recovery`` phase of
        :attr:`cost_tree`.  Results stay bit-identical; only costs inflate.
        ``None`` (the default) is the perfect fabric.
    strict:
        Enforce the model's contract online: per-round fan-in above
        ``word_budget`` raises :class:`~repro.machine.faults.ModelViolation`;
        non-finite/non-integral coordinates and NaN payloads entering via
        :meth:`place` raise ``ValueError`` immediately instead of silently
        corrupting the cost metrics.  Defaults to the ``REPRO_STRICT``
        environment flag, so ``REPRO_STRICT=1 pytest`` audits a whole suite.
    word_budget:
        Strict-mode cap on messages one processor may receive in one batched
        round (default :data:`DEFAULT_WORD_BUDGET`, overridable via the
        ``REPRO_WORD_BUDGET`` environment variable).
    bounds:
        Optional fabric rectangle.  In strict mode, any placement or send
        targeting a cell outside it fails fast with an actionable error.
    fast:
        Allow the batched bodies and closed forms (``True``, the default) or
        pin the reference bodies, the conformance oracle (``False``; what
        :class:`ReferenceMachine` pins).  It is read only by
        :attr:`clean_fast`; ``send`` and ``relay`` are the same either way.
        ``None`` consults the ``REPRO_REFERENCE`` environment flag, so a
        whole run — tests, bench sweeps, the service — can be flipped onto
        the oracle without code changes.  Both bodies charge identically;
        the batched one is only allowed to be faster
        (``docs/PERFORMANCE.md``).
    """

    def __init__(
        self,
        trace: bool | Tracer = False,
        phases: bool = True,
        faults: FaultPlan | None = None,
        strict: bool | None = None,
        word_budget: int | None = None,
        bounds: Region | None = None,
        profile: bool | SpatialProfiler | None = None,
        fast: bool | None = None,
    ) -> None:
        self.stats = MachineStats()
        if isinstance(trace, Tracer):
            self.tracer: Tracer | None = trace
        else:
            self.tracer = Tracer() if trace else None
        if profile is None:
            profile = _env_flag("REPRO_PROFILE")
        if isinstance(profile, SpatialProfiler):
            self.profiler: SpatialProfiler | None = profile
        else:
            self.profiler = SpatialProfiler() if profile else None
        self.cost_tree = CostTree()
        self._phase_node = self.cost_tree.root if phases else None
        self.faults = faults
        self.recovery = RecoveryStats()
        self.strict = _env_flag("REPRO_STRICT") if strict is None else bool(strict)
        if word_budget is None:
            word_budget = int(os.environ.get("REPRO_WORD_BUDGET", DEFAULT_WORD_BUDGET))
        if word_budget < 1:
            raise ValueError(f"word_budget must be >= 1, got {word_budget}")
        self.word_budget = word_budget
        self.bounds = bounds
        self.fast = not _env_flag("REPRO_REFERENCE") if fast is None else bool(fast)

    # ------------------------------------------------------------------
    # phase-scoped accounting
    # ------------------------------------------------------------------
    def phase(self, name: str):
        """Scope subsequent charges to phase ``name`` (nestable)::

            with machine.phase("mergesort2d"):
                ...                      # charges land on "mergesort2d"
                with machine.phase("merge2d"):
                    ...                  # ... on "mergesort2d/merge2d"

        Re-entering a name under the same parent accumulates into the same
        :class:`~repro.machine.metrics.PhaseNode` (recursive algorithms fold
        onto one path).  With ``phases=False`` this is a free no-op.
        """
        if self._phase_node is None:
            return _NULL_SPAN
        return _PhaseSpan(self, name)

    @property
    def clean_fast(self) -> bool:
        """True when the batched kernels may run: a fast, non-strict machine
        with no tracer, no profiler and no fault-injecting plan.  Every
        batched API checks this one predicate before its fast body."""
        plan = self.faults
        return (
            self.fast
            and not self.strict
            and self.tracer is None
            and self.profiler is None
            and (plan is None or not plan.injects_faults)
        )

    @property
    def current_phase(self) -> str:
        """The active phase path ("" at top level or with phases disabled)."""
        return self._phase_node.path if self._phase_node is not None else ""

    def observe(self, depth: np.ndarray, dist: np.ndarray) -> None:
        """Fold per-value metadata maxima into the stats and active phase."""
        if not depth.size:
            return
        dmax = int(depth.max())
        smax = int(dist.max())
        st = self.stats
        if dmax > st.max_depth:
            st.max_depth = dmax
        if smax > st.max_distance:
            st.max_distance = smax
        node = self._phase_node
        if node is not None:
            if dmax > node.max_depth:
                node.max_depth = dmax
            if smax > node.max_distance:
                node.max_distance = smax

    def _charge(self, energy: int, messages: int, sends: int) -> None:
        """Add the summed counters of ``sends`` communicating rounds to the
        stats and the active phase (the closed forms' charge)."""
        st = self.stats
        st.energy += energy
        st.messages += messages
        st.rounds += sends
        node = self._phase_node
        if node is not None:
            node.energy += energy
            node.messages += messages
            node.sends += sends

    def observe_maxima(self, dmax: int, smax: int) -> None:
        """Scalar form of :meth:`observe` for precomputed metadata maxima."""
        st = self.stats
        if dmax > st.max_depth:
            st.max_depth = dmax
        if smax > st.max_distance:
            st.max_distance = smax
        node = self._phase_node
        if node is not None:
            if dmax > node.max_depth:
                node.max_depth = dmax
            if smax > node.max_distance:
                node.max_distance = smax

    # ------------------------------------------------------------------
    # strict-mode validation
    # ------------------------------------------------------------------
    def _coerce_coords(
        self, rows: np.ndarray, cols: np.ndarray, what: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """int64 coordinate arrays; in strict mode, fail fast on garbage.

        A NaN or fractional coordinate silently cast to int64 becomes a
        huge bogus offset that inflates every cost metric — strict mode
        turns that into an immediate, actionable ``ValueError``.
        """
        if self.strict:
            for name, arr in (("rows", rows), ("cols", cols)):
                a = np.asarray(arr)
                if a.dtype.kind == "f":
                    bad = ~np.isfinite(a)
                    if bad.any():
                        raise ValueError(
                            f"{what}: {int(bad.sum())} non-finite {name} "
                            f"coordinate(s) (first at index {int(np.argmax(bad))}); "
                            "coordinates must be finite integers"
                        )
                    frac = a != np.floor(a)
                    if frac.any():
                        raise ValueError(
                            f"{what}: {int(frac.sum())} non-integral {name} "
                            f"coordinate(s) (first at index {int(np.argmax(frac))}); "
                            "grid coordinates must be whole numbers"
                        )
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self.strict and self.bounds is not None:
            inside = self.bounds.contains(rows, cols)
            outside = ~inside
            if outside.any():
                i = int(np.argmax(outside))
                raise ValueError(
                    f"{what}: {int(outside.sum())} coordinate(s) outside the "
                    f"fabric bounds {self.bounds} (first offender "
                    f"({int(rows[i])}, {int(cols[i])}) at index {i})"
                )
        return rows, cols

    def _check_fan_in(self, rows: np.ndarray, cols: np.ndarray, moved: np.ndarray) -> None:
        """Strict mode: one round may deliver at most ``word_budget`` words per cell."""
        r, c = rows[moved], cols[moved]
        if len(r) <= self.word_budget:
            return
        # run lengths over the destinations sorted by (row, col): the first
        # longest run names the lowest over-budget cell
        order = np.lexsort((c, r))
        r, c = r[order], c[order]
        edge = np.ones(len(r) + 1, dtype=bool)
        np.not_equal(r[1:], r[:-1], out=edge[1:-1])
        edge[1:-1] |= c[1:] != c[:-1]
        bounds = np.flatnonzero(edge)
        counts = bounds[1:] - bounds[:-1]
        i = int(counts.argmax())
        worst = int(counts[i])
        if worst > self.word_budget:
            r, c = r[bounds[i]], c[bounds[i]]
            raise ModelViolation(
                f"processor ({int(r)}, {int(c)}) receives {worst} messages in one "
                f"round, exceeding the O(1) word budget of {self.word_budget}; "
                "a constant-memory processor cannot buffer them — restructure "
                "the communication into a tree/scan, or raise word_budget if "
                "this fan-in is genuinely constant"
            )

    # ------------------------------------------------------------------
    # placing inputs
    # ------------------------------------------------------------------
    def place(
        self, payload: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> TrackedArray:
        """Place input values on the grid (free: inputs start in memory).

        Under a :class:`FaultPlan` with dead regions, values addressed to a
        dead cell are physically hosted by the cell's spare — a free
        layout-time redirection, like the sparing maps burned into
        wafer-scale parts.  The value keeps its *logical* coordinate;
        messages later sent to or from it pay the wire to the spare.
        """
        payload = np.asarray(payload)
        n = len(payload)
        rows, cols = self._coerce_coords(rows, cols, "place")
        if self.strict and payload.dtype.kind == "f":
            nan = np.isnan(payload)
            if nan.any():
                raise ValueError(
                    f"place: payload contains {int(nan.sum())} NaN value(s) "
                    f"(first at flat index {int(np.argmax(nan.ravel()))}); NaNs "
                    "poison comparisons and reductions — filter or encode them "
                    "before placing"
                )
        if self.faults is not None and self.faults.dead_regions:
            # address-transparent sparing: validate a spare exists and count
            # the redirections, but keep the logical coordinates
            _, spared = spare_extras(self.faults, rows, cols)
            self.recovery.spared += int(spared.sum())
        zeros = np.zeros(n, dtype=META_DTYPE)
        return TrackedArray(self, payload, rows, cols, zeros, zeros.copy())

    def place_rowmajor(self, payload: np.ndarray, region: Region) -> TrackedArray:
        """Place ``payload`` into ``region`` in row-major order."""
        rows, cols = region.rowmajor_coords(len(payload))
        return self.place(payload, rows, cols)

    def place_zorder(self, payload: np.ndarray, region: Region) -> TrackedArray:
        """Place ``payload`` into ``region`` along the Z-order curve."""
        rows, cols = zo.zorder_coords(region, len(payload))
        return self.place(payload, rows, cols)

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def send(self, ta: TrackedArray, rows: np.ndarray, cols: np.ndarray) -> TrackedArray:
        """Deliver each value of ``ta`` to new coordinates.

        Moving a value across Manhattan distance ``d > 0`` is one message:
        ``energy += d``, value depth ``+= 1`` and chain distance ``+= d``.
        Values whose destination equals their source do not communicate.

        Under a :class:`FaultPlan`, delivery is still guaranteed and payloads
        and coordinates are never altered, but faults inflate the measured
        costs: messages touching dead cells pay the wire to/from the spare
        that physically hosts the logical address, routes crossing dead
        rectangles pay a detour, and dropped/corrupted messages are resent —
        each failed attempt burns the wire energy again, deepens the value's
        chain by one message, and lengthens its chain distance by the wire.
        The extra charges are attributed to the ``recovery`` phase of
        :attr:`cost_tree` (flat totals include them too).
        """
        rows, cols = self._coerce_coords(rows, cols, "send")
        n = len(ta)
        if len(rows) != n or len(cols) != n:
            raise ValueError("destination arrays must match value count")
        d = np.subtract(rows, ta.rows)
        np.abs(d, out=d)
        t = np.subtract(cols, ta.cols)
        np.abs(t, out=t)
        d += t
        moved = d > 0
        messages = int(np.count_nonzero(moved))
        if self.strict and messages:
            self._check_fan_in(rows, cols, moved)

        # ---- fault recovery: sparing taxes, detours, retransmissions
        plan = self.faults
        failures = None
        tax = retries = 0
        d_eff = d
        if plan is not None and plan.injects_faults and messages:
            d_eff, failures, tax, retries = self._fault_tax(
                ta.rows, ta.cols, rows, cols, d, moved, messages
            )

        energy = int(np.add.reduce(d))
        st = self.stats
        st.energy += energy + tax
        st.messages += messages + retries
        if messages:
            # an all-self-send batch performs no communication: not a round
            st.rounds += 1
        node = self._phase_node
        if node is not None:
            node.energy += energy
            node.messages += messages
            if messages:
                node.sends += 1
        if failures is None:
            depth = ta.depth + moved
            dist = ta.dist + d_eff
        else:
            depth = ta.depth + moved + failures
            dist = ta.dist + d_eff * (1 + failures)
        if self.tracer is not None or self.profiler is not None:
            self._feed(ta.rows, ta.cols, rows, cols, d_eff, failures, moved, depth, dist, "send")
        out = _tracked(self, ta.payload, rows, cols, depth, dist)
        self.observe(depth, dist)
        if tax:
            self._charge_recovery(tax, retries, out)
        return out

    def send_many(
        self,
        batches: Sequence[tuple[TrackedArray, np.ndarray, np.ndarray]]
        | tuple[TrackedArray, np.ndarray, np.ndarray],
        starts: np.ndarray | None = None,
    ) -> list[TrackedArray] | TrackedArray:
        """Issue several independent ``send`` batches, each its own round.

        Defined as — and executed as — the sequential loop ``[send(ta,
        rows, cols) for ta, rows, cols in batches]``.  The quadrant reduce's
        level loop uses this to charge one recursion level (three
        child-to-parent sends) per call.

        With ``starts``, ``batches`` is one flat ``(ta, rows, cols)`` triple
        cut into segments: segment ``i`` holds entries ``starts[i]`` up to
        ``starts[i + 1]`` (the last runs to the end), and the result is one
        array in the same flat order.  Each segment is one ``send``; an empty
        or all-self-send segment adds no round.  The level-synchronous merge
        tree charges a whole recursion level per call this way, and a clean
        fast machine charges every segment through one flat kernel.
        """
        if starts is None:
            return [self.send(ta, rows, cols) for ta, rows, cols in batches]
        ta, rows, cols = batches
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        if self.clean_fast:
            depth, dist = self._send_segments_fast(
                ta.rows, ta.cols, rows, cols, ta.depth, ta.dist, starts
            )
            return _tracked(self, ta.payload, rows, cols, depth, dist)
        ends = np.append(starts[1:], len(ta))
        parts = [
            self.send(ta[a:b], rows[a:b], cols[a:b])
            for a, b in zip(starts.tolist(), ends.tolist())
            if b > a
        ]
        return concat_tracked(parts) if parts else ta[0:0]

    def _send_segments_fast(
        self,
        src_r: np.ndarray,
        src_c: np.ndarray,
        dst_r: np.ndarray,
        dst_c: np.ndarray,
        depth: np.ndarray,
        dist: np.ndarray,
        starts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The batched-send kernel: charge every segment of a flat layout.

        Sums and maxima distribute over segments; rounds/``sends`` count
        the segments that actually communicate.  Returns the delivered
        values' ``(depth, dist)``.
        """
        d = np.subtract(dst_r, src_r)
        np.abs(d, out=d)
        t = np.subtract(dst_c, src_c)
        np.abs(t, out=t)
        d += t
        moved = d > 0
        messages = int(np.count_nonzero(moved))
        ncomm = 0
        if messages:
            # segments holding a moved entry (reduceat wants non-empty ones)
            ends = np.empty_like(starts)
            ends[:-1], ends[-1] = starts[1:], len(d)
            ncomm = int(np.count_nonzero(np.logical_or.reduceat(moved, starts[ends > starts])))
        self._charge(int(np.add.reduce(d)), messages, ncomm)
        depth = depth + moved
        dist = dist + d
        self.observe(depth, dist)
        return depth, dist

    def quadrant_broadcast(
        self, ta: TrackedArray, side: int, scale: int = 1
    ) -> TrackedArray:
        """Recursive quadrant replication of ``ta`` over a ``side x side``
        lattice of strides ``scale`` (the 2D broadcast / all-pairs
        replication pattern).

        The doubling loop: while ``s > 1`` concatenate ``cur`` with its three
        copies shifted by ``(0, h)``, ``(h, 0)``, ``(h, h)`` where
        ``h = (s // 2) * scale``, one ``send`` round each.  ``side`` must be
        a power of two.  A clean fast broadcast from a region corner never
        gets here: ``collectives._broadcast_tables`` charges it in closed form.
        """
        side = int(side)
        if side <= 1:
            return ta
        cur = ta
        s = side
        while s > 1:
            half = (s // 2) * scale
            parts = [cur]
            for dr, dc in ((0, half), (half, 0), (half, half)):
                parts.append(self.send(cur, cur.rows + dr, cur.cols + dc))
            cur = concat_tracked(parts)
            s //= 2
        return cur

    def quadrant_reduce(
        self,
        ta: TrackedArray,
        side: int,
        combine: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> TrackedArray:
        """Quadrant-tree reduce of Z-ordered square blocks (reverse of
        :meth:`quadrant_broadcast`).

        ``ta`` holds ``side * side`` entries per block in block-local Z-order
        (blocks contiguous); ``combine`` folds two payload arrays and must be
        associative.  Defined as the level loop: split ``cur`` into the four
        quadrant strides, send quadrants 1-3 onto quadrant 0's cells with one
        ``send_many``, fold payloads in the fixed order ``((c0 . c1) . c2) .
        c3``.  Returns one entry per block at the block corner.  A clean fast
        machine charges a non-empty input in closed form from per-side offset
        tables (:func:`~repro.machine.fastpath.quadrant_reduce_fast`) and
        folds the payloads in the same order; every other run takes the loop.
        """
        side = int(side)
        if side <= 1:
            return ta
        if self.clean_fast and len(ta):
            per = side * side
            payload, depth, dist = quadrant_reduce_fast(
                self, ta.payload, ta.depth, ta.dist, side, combine
            )
            return _tracked(self, payload, ta.rows[::per], ta.cols[::per], depth, dist)
        cur = ta
        remaining = side * side
        while remaining > 1:
            c0, c1, c2, c3 = cur[0::4], cur[1::4], cur[2::4], cur[3::4]
            r1, r2, r3 = self.send_many(
                [(c1, c0.rows, c0.cols), (c2, c0.rows, c0.cols), (c3, c0.rows, c0.cols)]
            )
            payload = combine(
                combine(combine(c0.payload, r1.payload), r2.payload), r3.payload
            )
            cur = c0.combined_with(r1, r2, r3, payload=payload)
            remaining //= 4
        return cur

    def _fault_tax(self, src_r, src_c, dst_r, dst_c, d, moved, messages):
        """Recovery surcharges of one batch under a fault-injecting plan.

        ``d`` holds the batch's Manhattan distances and ``moved`` masks its
        ``messages`` communicating ones.  Messages touching dead cells pay
        the wire to and from their spares, routes crossing dead rectangles
        pay their detours, and one :func:`sample_failures` draw per call
        decides the resends, each re-paying the surcharged wire.  Adds every
        charge to :attr:`recovery`; returns ``(d_eff, failures, tax,
        retries)``: the surcharged distances, the failed attempts per message
        (``None`` when none failed), the extra energy and the resend count.
        """
        plan = self.faults
        rec = self.recovery
        d_eff = d
        failures = None
        tax = retries = 0
        if plan.dead_regions:
            src_extra, _ = spare_extras(plan, src_r, src_c)
            dst_extra, dst_spared = spare_extras(plan, dst_r, dst_c)
            sp = src_extra + dst_extra
            sp[~moved] = 0
            spare_energy = int(sp.sum())
            if spare_energy:
                d_eff = d_eff + sp
                rec.spared += int((dst_spared & moved).sum())
                rec.spare_energy += spare_energy
            extra = detour_extras(plan.dead_regions, src_r, src_c, dst_r, dst_c)
            extra[~moved] = 0
            detour_energy = int(extra.sum())
            if detour_energy:
                d_eff = d_eff + extra
                rec.detoured += int((extra > 0).sum())
                rec.detour_energy += detour_energy
            tax = spare_energy + detour_energy
        if plan.failure_prob > 0.0:
            f, dropped, corrupted = sample_failures(plan, messages)
            if f.any():
                failures = np.zeros(len(d), dtype=META_DTYPE)
                failures[moved] = f
                retries = int(f.sum())
                retry_energy = int((d_eff * failures).sum())
                rec.dropped += int(dropped.sum())
                rec.corrupted += int(corrupted.sum())
                rec.retries += retries
                rec.retry_energy += retry_energy
                rec.backoff_ticks += backoff_ticks(plan, f)
                rec.max_attempts = max(rec.max_attempts, int(f.max()) + 1)
                tax += retry_energy
        return d_eff, failures, tax, retries

    def _charge_recovery(self, energy: int, retries: int, out: TrackedArray | None) -> None:
        """Attribute recovery charges to the dedicated ``recovery`` phase."""
        if (not energy and not retries) or self._phase_node is None:
            return
        rec = self.cost_tree.root.child(RECOVERY_PHASE)
        rec.energy += energy
        rec.messages += retries
        rec.sends += 1
        if out is not None and len(out):
            rec.max_depth = max(rec.max_depth, int(out.depth.max()))
            rec.max_distance = max(rec.max_distance, int(out.dist.max()))

    def _feed(self, src_r, src_c, dst_r, dst_c, wire, failures, moved, depth, dist, kind):
        """Hand one charged batch of ``send`` or ``relay`` to the observers.

        Called while a tracer or a profiler is attached.  The tracer records
        the batch, then each failed attempt as one ``kind="resend"``
        message, so a trace stays a complete message log.  The profiler
        folds the batch with its effective ``wire`` distances, its
        per-message ``failures`` (``None`` when nothing failed) and the
        ``(depth, dist)`` each message leaves behind.  All arrays are
        aligned to the batch; ``moved`` masks the messages that
        communicated.  Both observers tag the batch with the round just
        charged.
        """
        tracer, profiler = self.tracer, self.profiler
        rnd = self.stats.rounds
        phase = self.current_phase
        if tracer is not None:
            tracer.record(src_r, src_c, dst_r, dst_c, rnd, phase=phase, kind=kind)
            if failures is not None:
                idx = np.repeat(np.arange(len(failures)), failures)
                tracer.record(
                    src_r[idx], src_c[idx], dst_r[idx], dst_c[idx], rnd,
                    phase=phase, kind="resend",
                )
        if profiler is not None:
            profiler.record_send(
                src_r, src_c, dst_r, dst_c, wire, failures, moved, depth, dist,
                phase, kind, rnd,
            )

    def relay(
        self,
        src: tuple[int, int],
        stop_rows: np.ndarray,
        stop_cols: np.ndarray,
        depth0: int = 0,
        dist0: int = 0,
    ) -> tuple[int, int]:
        """Charge a *sequential* relayed message chain src -> stop_1 -> ... -> stop_t.

        Models walk-style access patterns (binary searches whose successive
        probes get geometrically closer): the query travels from stop to stop,
        each hop one message, each hop depending on the previous one.  Returns
        the ``(depth, dist)`` metadata of the value available at the final
        stop.

        A chain with no stops is a complete no-op — no message, no round,
        nothing observed; the caller's ``(depth0, dist0)`` pass through
        unchanged (the batched-zero-move analogue of ``send``'s free
        self-sends).
        """
        stop_rows, stop_cols = self._coerce_coords(stop_rows, stop_cols, "relay")
        if len(stop_rows) == 0:
            return int(depth0), int(dist0)
        chain_r = np.concatenate([[src[0]], stop_rows])
        chain_c = np.concatenate([[src[1]], stop_cols])
        fr_r, fr_c, to_r, to_c = chain_r[:-1], chain_c[:-1], chain_r[1:], chain_c[1:]
        plan = self.faults
        d = manhattan_arrays(fr_r, fr_c, to_r, to_c)
        nz = d > 0
        messages = int(nz.sum())

        # ---- fault recovery (same accounting as ``send``, per hop)
        tax = retries = 0
        hop_failures = None
        d_eff = d
        if plan is not None and plan.injects_faults and messages:
            d_eff, hop_failures, tax, retries = self._fault_tax(
                fr_r, fr_c, to_r, to_c, d, nz, messages
            )

        energy = int(d.sum())
        self.stats.energy += energy + tax
        self.stats.messages += messages + retries
        if messages:
            self.stats.rounds += 1
        node = self._phase_node
        if node is not None:
            node.energy += energy
            node.messages += messages
            if messages:
                node.sends += 1
        if self.tracer is not None or self.profiler is not None:
            # the chain's metadata as the relayed value reaches each stop
            hops = nz if hop_failures is None else nz + hop_failures
            path = d_eff if hop_failures is None else d_eff * (1 + hop_failures)
            self._feed(
                fr_r, fr_c, to_r, to_c, d_eff, hop_failures, nz,
                depth0 + np.cumsum(hops), dist0 + np.cumsum(path), "relay",
            )
        depth = depth0 + messages + retries
        # every hop's (surcharged) wire, once per attempt
        dist = dist0 + energy + tax
        self.observe_maxima(depth, dist)
        self._charge_recovery(tax, retries, None)
        return depth, dist

    def relay_many(
        self,
        chains: Sequence[tuple],
        carry: Sequence[bool] | None = None,
    ) -> list[tuple[int, int]]:
        """Charge many relayed chains in one call.

        ``chains`` is a sequence of ``(src, stop_rows, stop_cols, depth0,
        dist0)`` tuples, each exactly the argument list of :meth:`relay`.
        ``carry`` (optional, one bool per chain) links chains: a chain with
        ``carry[i]`` set starts from the *previous* chain's returned
        ``(depth, dist)`` instead of its own ``(depth0, dist0)`` — the
        two-level searches in selection thread the A-array search's end
        metadata into the B-array search this way.  ``carry[0]`` falls back
        to ``(0, 0)``.  Returns one ``(depth, dist)`` pair per chain.

        Defined as — and executed as — the sequential loop of :meth:`relay`
        calls.  The batched selection charges its chains through the flat
        kernel :func:`~repro.machine.fastpath.relay_flat` instead.
        """
        chains = list(chains)
        if carry is not None and len(carry) != len(chains):
            raise ValueError("carry must have one entry per chain")
        out: list[tuple[int, int]] = []
        prev = (0, 0)
        for i, (src, stop_rows, stop_cols, depth0, dist0) in enumerate(chains):
            if carry is not None and carry[i]:
                depth0, dist0 = prev
            prev = self.relay(src, stop_rows, stop_cols, int(depth0), int(dist0))
            out.append(prev)
        return out

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    def snapshot(self) -> MachineStats:
        return self.stats.snapshot()

    def report(self, before: MachineStats | None = None) -> CostReport:
        if before is None:
            before = MachineStats()
        return self.stats.delta(before)

    def measure(self) -> "_Measurement":
        """Context manager capturing the cost delta of a code block::

            with machine.measure() as cost:
                scan(machine, data, region)
            print(cost.energy, cost.messages)
            print(cost.per_phase.render())   # phase-scoped breakdown

        ``cost.per_phase`` is the :class:`CostTree` delta over the block
        (phases whose counters did not change show zero self cost).
        """
        return _Measurement(self)


class ReferenceMachine(SpatialMachine):
    """A :class:`SpatialMachine` pinned to the reference bodies.

    The conformance oracle: it is never :attr:`~SpatialMachine.clean_fast`,
    so ``send_many``'s segmented form runs its defining loop of ``send``
    calls and every core primitive its depth-first body instead of a
    batched body or closed form.  ``send``, ``relay`` and ``relay_many``
    are the same as on every machine.  Constructing a plain
    ``SpatialMachine`` under ``REPRO_REFERENCE=1`` resolves to the same
    behavior; this class pins it regardless of the environment.
    """

    def __init__(self, *args, **kwargs) -> None:
        kwargs["fast"] = False
        super().__init__(*args, **kwargs)


class _Measurement:
    """Mutable cost record filled in when its ``with`` block exits."""

    def __init__(self, machine: "SpatialMachine") -> None:
        self._machine = machine
        self.energy = 0
        self.messages = 0
        self.depth = 0
        self.distance = 0
        self.per_phase: CostTree = CostTree()

    def __enter__(self) -> "_Measurement":
        self._before = self._machine.snapshot()
        self._tree_before = self._machine.cost_tree.clone()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        rep = self._machine.stats.delta(self._before)
        self.energy = rep.energy
        self.messages = rep.messages
        self.depth = rep.depth
        self.distance = rep.distance
        self.per_phase = self._machine.cost_tree.delta(self._tree_before)
