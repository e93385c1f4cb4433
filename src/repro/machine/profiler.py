"""Spatial profiling: where energy is spent and which chain realizes it.

The simulator's flat counters (:class:`~repro.machine.metrics.MachineStats`)
and the per-phase :class:`~repro.machine.metrics.CostTree` say *how much* an
algorithm costs; this module answers *where* and *along which path*:

* **per-cell traffic grids** — messages sent/received and energy
  injected/absorbed per processor, accumulated online while the machine
  runs.  Cell energy includes every fault-recovery surcharge (sparing wires,
  detours, retransmissions), so the grids sum exactly to the flat
  ``MachineStats`` counters.
* **per-link utilization** — each message's nominal dimension-ordered XY
  route (column-first along the source row, then row-wise along the
  destination column) is unrolled onto unit grid links; link load is the
  on-chip-network congestion picture of the algorithm.  Recovery extras do
  not map onto concrete links, so link totals reflect the fault-free routes
  (weighted by delivery attempts) — the cell grids carry the surcharges.
* **critical-path witnesses** — the actual chain of message hops realizing
  the machine's ``max_depth`` and ``max_distance``, extracted by exact
  backward chaining over the recorded hops.  A complete witness *replays* to
  exactly the reported metric (sum of per-hop attempts for depth, sum of
  ``wire * attempts`` for distance) and carries per-hop phase paths, so
  "which phase owns the critical path" is answerable.

Attach a profiler with ``SpatialMachine(profile=True)`` (or pass a
preconfigured :class:`SpatialProfiler`); the machine then feeds it from
``send``/``relay`` with the per-message effective wire lengths and delivery
attempts the cost model actually charged.  Witness extraction retains one
compact record per message, capped at :attr:`SpatialProfiler.max_witness_messages`
(default 2,000,000 ≈ 130 MB); past the cap the grids keep accumulating but
witnesses are reported as unavailable.  Grids alone (via
:meth:`SpatialProfiler.add_batch`, e.g. streamed from a
:class:`~repro.machine.tracer.Tracer` sink or a loaded JSONL trace) need
only O(active cells) memory.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracer import MessageBatch

__all__ = [
    "SpatialProfiler",
    "CELL_METRICS",
    "CellGrid",
    "HopFrame",
    "Witness",
    "WitnessHop",
    "DEFAULT_WITNESS_LIMIT",
    "gini",
    "grid_to_dense",
]

#: the per-cell metrics :meth:`SpatialProfiler.cell_grid` serves
CELL_METRICS: tuple[str, ...] = ("energy", "sent", "received", "links")

#: default cap on hop records retained for witness extraction (~65 bytes per
#: message); the traffic grids are unaffected by the cap.
DEFAULT_WITNESS_LIMIT = 2_000_000


# ----------------------------------------------------------------------
# small vectorized helpers
# ----------------------------------------------------------------------
def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``[starts[i], starts[i] + lengths[i])`` ranges."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, lengths)


class CellGrid(Mapping):
    """Dense auto-growing 2-D accumulator with a sparse mapping view.

    Folding a batch is one ``np.bincount`` over raveled cell indices —
    per-batch cost O(batch + occupied bbox) with no Python-level loops —
    while readers see a standard ``{(row, col): value}`` mapping of the
    non-zero cells (``dict(grid)``, ``.items()``, ``.get()`` all work).
    The backing array grows geometrically as traffic reaches new cells, so
    the grid needs no up-front extent.
    """

    __slots__ = ("_a", "_r0", "_c0")

    def __init__(self) -> None:
        self._a: np.ndarray | None = None
        self._r0 = 0
        self._c0 = 0

    def add(self, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> None:
        """Accumulate ``weights`` into cells ``(rows[i], cols[i])``."""
        if not len(rows):
            return
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        rmin, rmax = int(rows.min()), int(rows.max())
        cmin, cmax = int(cols.min()), int(cols.max())
        self._reserve(rmin, rmax, cmin, cmax)
        assert self._a is not None
        # fold over the *batch's* bounding box, not the whole grid, so a
        # spatially tight batch (a relay chain, one row of links) costs
        # O(batch) no matter how large the grid has grown
        box = self._a[rmin - self._r0 : rmax - self._r0 + 1,
                      cmin - self._c0 : cmax - self._c0 + 1]
        if box.size <= 4 * len(rows) + 64:
            idx = (rows - rmin) * box.shape[1] + (cols - cmin)
            acc = np.bincount(idx, weights=weights, minlength=box.size)
            # integer weights sum exactly in float64 (totals << 2**53)
            box += acc.astype(np.int64).reshape(box.shape)
        else:
            # scattered batch over a big box: per-element scatter-add wins
            np.add.at(self._a, (rows - self._r0, cols - self._c0), weights)

    def _reserve(self, rmin: int, rmax: int, cmin: int, cmax: int) -> None:
        if self._a is None:
            self._r0, self._c0 = rmin, cmin
            self._a = np.zeros((rmax - rmin + 1, cmax - cmin + 1), dtype=np.int64)
            return
        h, w = self._a.shape
        if (
            rmin >= self._r0
            and cmin >= self._c0
            and rmax < self._r0 + h
            and cmax < self._c0 + w
        ):
            return
        nr0 = min(self._r0, rmin)
        nc0 = min(self._c0, cmin)
        # grow geometrically (at least double per axis) so a sweep that keeps
        # reaching new cells amortizes to O(1) copies per fold
        nh = max(max(self._r0 + h, rmax + 1) - nr0, 2 * h)
        nw = max(max(self._c0 + w, cmax + 1) - nc0, 2 * w)
        grown = np.zeros((nh, nw), dtype=np.int64)
        grown[self._r0 - nr0 : self._r0 - nr0 + h, self._c0 - nc0 : self._c0 - nc0 + w] = self._a
        self._a, self._r0, self._c0 = grown, nr0, nc0

    def to_dense(self) -> tuple[np.ndarray, tuple[int, int]]:
        """Trimmed copy over the occupied bounding box, plus its origin."""
        if self._a is None or not self._a.any():
            return np.zeros((0, 0), dtype=np.int64), (0, 0)
        rr, cc = np.nonzero(self._a)
        r0, r1 = int(rr.min()), int(rr.max())
        c0, c1 = int(cc.min()), int(cc.max())
        return (
            self._a[r0 : r1 + 1, c0 : c1 + 1].copy(),
            (self._r0 + r0, self._c0 + c0),
        )

    # -- Mapping protocol over the non-zero cells ----------------------
    def __len__(self) -> int:
        return 0 if self._a is None else int(np.count_nonzero(self._a))

    def __iter__(self):
        if self._a is None:
            return iter(())
        rr, cc = np.nonzero(self._a)
        return (
            (int(r) + self._r0, int(c) + self._c0)
            for r, c in zip(rr.tolist(), cc.tolist())
        )

    def __getitem__(self, key: tuple[int, int]) -> int:
        r, c = key
        if self._a is not None:
            i, j = r - self._r0, c - self._c0
            if 0 <= i < self._a.shape[0] and 0 <= j < self._a.shape[1]:
                v = int(self._a[i, j])
                if v:
                    return v
        raise KeyError(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellGrid({len(self)} non-zero cells)"


def gini(values: Iterable[int | float]) -> float:
    """Gini coefficient of a load distribution (0 = flat, → 1 = concentrated)."""
    v = np.sort(np.asarray(list(values), dtype=np.float64))
    n = len(v)
    total = v.sum()
    if n == 0 or total <= 0:
        return 0.0
    # mean absolute difference formulation via the sorted prefix identity
    idx = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * (idx * v).sum() / (n * total)) - (n + 1.0) / n)


def grid_to_dense(
    cells: Mapping[tuple[int, int], int]
) -> tuple[np.ndarray, tuple[int, int]]:
    """Densify a sparse cell map over its bounding box.

    Returns ``(array, (row0, col0))`` — ``array[r - row0, c - col0]`` is the
    cell's value.  An empty map densifies to a ``(0, 0)`` array at origin.
    """
    if isinstance(cells, CellGrid):
        return cells.to_dense()
    if not cells:
        return np.zeros((0, 0), dtype=np.int64), (0, 0)
    rows = np.array([k[0] for k in cells], dtype=np.int64)
    cols = np.array([k[1] for k in cells], dtype=np.int64)
    r0, c0 = int(rows.min()), int(cols.min())
    arr = np.zeros((int(rows.max()) - r0 + 1, int(cols.max()) - c0 + 1), dtype=np.int64)
    arr[rows - r0, cols - c0] = np.array(list(cells.values()), dtype=np.int64)
    return arr, (r0, c0)


# ----------------------------------------------------------------------
# hop records and witnesses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HopFrame:
    """One recorded ``send``/``relay`` batch, compacted to moved messages.

    ``wire`` is the *effective* per-message wire length the model charged
    (Manhattan distance plus any sparing/detour extras); ``attempts`` counts
    deliveries including fault retransmissions, so a hop's depth increment is
    ``attempts`` and its chain-distance increment is ``wire * attempts``.
    ``depth_after``/``dist_after`` are the per-value metadata right after the
    hop — the quantities backward chaining matches on.
    """

    src_rows: np.ndarray
    src_cols: np.ndarray
    dst_rows: np.ndarray
    dst_cols: np.ndarray
    wire: np.ndarray
    attempts: np.ndarray
    depth_after: np.ndarray
    dist_after: np.ndarray
    phase: str
    kind: str
    round: int
    tick: int

    def __len__(self) -> int:
        return len(self.src_rows)


@dataclass(frozen=True)
class WitnessHop:
    """One hop of a critical-path witness chain."""

    src: tuple[int, int]
    dst: tuple[int, int]
    wire: int
    attempts: int
    depth_after: int
    dist_after: int
    phase: str
    kind: str
    round: int
    tick: int
    #: True when backward chaining could not find the predecessor at this
    #: hop's source cell and fell back to a metric-exact hop elsewhere (only
    #: happens for model-dishonest programs that combine non-co-located
    #: values).
    relinked: bool = False

    def as_dict(self) -> dict:
        return {
            "src": list(self.src),
            "dst": list(self.dst),
            "wire": self.wire,
            "attempts": self.attempts,
            "depth_after": self.depth_after,
            "dist_after": self.dist_after,
            "phase": self.phase,
            "kind": self.kind,
            "round": self.round,
            "relinked": self.relinked,
        }


@dataclass
class Witness:
    """A chain of hops realizing one of the machine's chain metrics.

    ``replayed()`` re-derives the metric from the hops alone; for a
    ``complete`` witness it equals ``target`` exactly (the acceptance check
    the tests pin).  ``contiguous`` is False if any hop was relinked.
    """

    metric: str  # "depth" | "distance"
    target: int
    hops: list[WitnessHop] = field(default_factory=list)
    complete: bool = True
    contiguous: bool = True

    def replayed(self) -> int:
        if self.metric == "depth":
            return sum(h.attempts for h in self.hops)
        return sum(h.wire * h.attempts for h in self.hops)

    def phase_weights(self) -> dict[str, int]:
        """Metric mass contributed per phase path along the chain."""
        out: dict[str, int] = {}
        for h in self.hops:
            inc = h.attempts if self.metric == "depth" else h.wire * h.attempts
            out[h.phase] = out.get(h.phase, 0) + inc
        return out

    def owner_phase(self) -> str:
        """The phase path contributing the most metric mass to the chain."""
        weights = self.phase_weights()
        if not weights:
            return ""
        return max(sorted(weights), key=lambda p: weights[p])

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "target": self.target,
            "replayed": self.replayed(),
            "complete": self.complete,
            "contiguous": self.contiguous,
            "hops": [h.as_dict() for h in self.hops],
            "owner_phase": self.owner_phase(),
            "phase_weights": self.phase_weights(),
        }

    def summary(self) -> dict:
        """The witness minus the hop list (for bench documents)."""
        d = self.as_dict()
        d["hops"] = len(self.hops)
        return d

    def render(self, limit: int = 20) -> str:
        """Human-readable chain, longest-first truncated to ``limit`` hops."""
        lines = [
            f"{self.metric} witness: target={self.target} replayed={self.replayed()} "
            f"hops={len(self.hops)} complete={self.complete} "
            f"owner={self.owner_phase() or '(top level)'}"
        ]
        shown = self.hops if len(self.hops) <= limit else self.hops[:limit]
        for i, h in enumerate(shown):
            extra = f" x{h.attempts}" if h.attempts > 1 else ""
            mark = " [relinked]" if h.relinked else ""
            lines.append(
                f"  {i + 1:>3}. {h.src} -> {h.dst}  wire={h.wire}{extra}  "
                f"d={h.depth_after} s={h.dist_after}  {h.kind}  "
                f"{h.phase or '(top level)'}{mark}"
            )
        if len(self.hops) > limit:
            lines.append(f"  ... {len(self.hops) - limit} more hop(s)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the profiler
# ----------------------------------------------------------------------
class SpatialProfiler:
    """Accumulates spatial traffic and critical-path evidence for one run.

    Parameters
    ----------
    links:
        Unroll each message onto its XY route's unit links (costs O(wire)
        work per message; disable for very long runs that only need cell
        grids and witnesses).
    witnesses:
        Retain per-message hop records for witness extraction.
    max_witness_messages:
        Retention cap for hop records; once exceeded, recording continues
        for the grids but witnesses become unavailable
        (:attr:`witness_overflow` is set).
    """

    def __init__(
        self,
        links: bool = True,
        witnesses: bool = True,
        max_witness_messages: int = DEFAULT_WITNESS_LIMIT,
    ) -> None:
        self.links = links
        self.witnesses = witnesses
        self.max_witness_messages = int(max_witness_messages)
        # per-cell traffic (auto-growing grids with a sparse mapping view)
        self.sent = CellGrid()
        self.received = CellGrid()
        self.energy_out = CellGrid()
        self.energy_in = CellGrid()
        # per-link utilization: hlinks[(r, c)] is the load on the wire
        # between (r, c) and (r, c+1); vlinks[(r, c)] between (r, c), (r+1, c)
        self.hlinks = CellGrid()
        self.vlinks = CellGrid()
        # witness evidence
        self.frames: list[HopFrame] = []
        self.witness_messages = 0
        self.witness_overflow = False
        # running totals (mirror the machine's charged amounts)
        self.total_energy = 0
        self.total_messages = 0
        self.max_depth_seen = 0
        self.max_dist_seen = 0
        #: monotone batch counter — the time axis of the trace export
        self.tick = 0
        # phase span + counter timelines for the Chrome trace export
        self.phase_events: list[tuple[int, str, str]] = []  # (tick, "B"|"E", path)
        self.counters: list[tuple[int, int, int, int]] = []  # (tick, E_cum, msgs, depth)
        # metric -> (len(frames) when searched, witness)
        self._witness_cache: dict[str, tuple[int, Witness]] = {}

    # ------------------------------------------------------------------
    # online recording (called by SpatialMachine)
    # ------------------------------------------------------------------
    def record_send(
        self,
        src_rows: np.ndarray,
        src_cols: np.ndarray,
        dst_rows: np.ndarray,
        dst_cols: np.ndarray,
        wire: np.ndarray,
        failures: np.ndarray | None,
        moved: np.ndarray,
        depth_after: np.ndarray,
        dist_after: np.ndarray,
        phase: str,
        kind: str,
        round_idx: int,
    ) -> None:
        """Fold one charged batch into the grids and the witness store.

        All arrays are aligned to the full batch; ``moved`` masks the
        messages that actually communicated.  ``wire`` is the effective
        per-message distance (``d_eff``) and ``failures`` the per-message
        failed-attempt counts (``None`` on the fault-free path).
        """
        if not moved.any():
            return
        sr = np.asarray(src_rows, dtype=np.int64)[moved]
        sc = np.asarray(src_cols, dtype=np.int64)[moved]
        dr = np.asarray(dst_rows, dtype=np.int64)[moved]
        dc = np.asarray(dst_cols, dtype=np.int64)[moved]
        w = np.asarray(wire, dtype=np.int64)[moved]
        if failures is None:
            attempts = np.ones(len(w), dtype=np.int64)
        else:
            attempts = 1 + np.asarray(failures, dtype=np.int64)[moved]
        self._fold(sr, sc, dr, dc, w, attempts)
        da = np.asarray(depth_after, dtype=np.int64)[moved]
        sa = np.asarray(dist_after, dtype=np.int64)[moved]
        md = int(da.max())
        ms = int(sa.max())
        if md > self.max_depth_seen:
            self.max_depth_seen = md
        if ms > self.max_dist_seen:
            self.max_dist_seen = ms
        if self.witnesses and not self.witness_overflow:
            if self.witness_messages + len(w) > self.max_witness_messages:
                self.witness_overflow = True
            else:
                self.frames.append(
                    HopFrame(
                        sr, sc, dr, dc, w.copy(), attempts, da, sa,
                        phase, kind, round_idx, self.tick,
                    )
                )
                self.witness_messages += len(w)
        self.tick += 1
        self.counters.append(
            (self.tick, self.total_energy, int(attempts.sum()), self.max_depth_seen)
        )

    def _fold(
        self,
        sr: np.ndarray,
        sc: np.ndarray,
        dr: np.ndarray,
        dc: np.ndarray,
        wire: np.ndarray,
        attempts: np.ndarray,
    ) -> None:
        energy = wire * attempts
        self.sent.add(sr, sc, attempts)
        self.received.add(dr, dc, attempts)
        self.energy_out.add(sr, sc, energy)
        self.energy_in.add(dr, dc, energy)
        self.total_energy += int(energy.sum())
        self.total_messages += int(attempts.sum())
        if self.links:
            self._fold_links(sr, sc, dr, dc, attempts)

    def _fold_links(
        self,
        sr: np.ndarray,
        sc: np.ndarray,
        dr: np.ndarray,
        dc: np.ndarray,
        attempts: np.ndarray,
    ) -> None:
        # dimension-ordered XY route: horizontal along the source row first
        hlen = np.abs(dc - sc)
        if hlen.any():
            rows = np.repeat(sr, hlen)
            cols = _concat_ranges(np.minimum(sc, dc), hlen)
            self.hlinks.add(rows, cols, np.repeat(attempts, hlen))
        vlen = np.abs(dr - sr)
        if vlen.any():
            rows = _concat_ranges(np.minimum(sr, dr), vlen)
            cols = np.repeat(dc, vlen)
            self.vlinks.add(rows, cols, np.repeat(attempts, vlen))

    def add_batch(self, batch: "MessageBatch") -> None:
        """Fold a plain :class:`~repro.machine.tracer.MessageBatch` into the grids.

        Offline/streamed entry point (a tracer sink, or batches loaded from a
        JSONL trace): updates the traffic grids and link loads only — a plain
        batch carries no per-value depth/distance metadata, so it contributes
        no witness evidence.
        """
        if not len(batch):
            return
        sr = np.asarray(batch.src_rows, dtype=np.int64)
        sc = np.asarray(batch.src_cols, dtype=np.int64)
        dr = np.asarray(batch.dst_rows, dtype=np.int64)
        dc = np.asarray(batch.dst_cols, dtype=np.int64)
        wire = np.abs(dr - sr) + np.abs(dc - sc)
        self._fold(sr, sc, dr, dc, wire, np.ones(len(sr), dtype=np.int64))
        self.tick += 1
        self.counters.append((self.tick, self.total_energy, len(sr), self.max_depth_seen))

    # -- phase span hooks (driven by machine.phase spans) ---------------
    def phase_enter(self, path: str) -> None:
        self.phase_events.append((self.tick, "B", path))

    def phase_exit(self, path: str) -> None:
        self.phase_events.append((self.tick, "E", path))

    # ------------------------------------------------------------------
    # witnesses
    # ------------------------------------------------------------------
    def depth_witness(self) -> Witness | None:
        """The hop chain realizing the largest observed per-value depth."""
        return self._witness("depth")

    def distance_witness(self) -> Witness | None:
        """The hop chain realizing the largest observed chain distance."""
        return self._witness("distance")

    def _witness(self, metric: str) -> Witness | None:
        """The witness of ``metric``, searched once per recorded state."""
        if not self.witnesses or self.witness_overflow:
            return None
        stamp, wit = self._witness_cache.get(metric, (-1, None))
        if stamp != len(self.frames):
            wit = self._search_witness(metric)
            self._witness_cache[metric] = (len(self.frames), wit)
        return wit

    def _search_witness(self, metric: str) -> Witness:
        """Backward chaining from the first hop that reaches the metric.

        Each step takes the latest hop strictly before the current one (in
        frame order, then message order) that delivered exactly the
        remaining metric to the current hop's source cell; failing that,
        the latest such hop anywhere, flagged ``relinked``.  Both lookups
        are binary searches in two orderings of every recorded hop.
        """
        frames = self.frames
        if not frames:
            return Witness(metric=metric, target=0)

        def cat(name: str) -> np.ndarray:
            """One field of every hop, numbered in frame then message order."""
            return np.concatenate([getattr(f, name) for f in frames])

        dst_r, dst_c, attempts = cat("dst_rows"), cat("dst_cols"), cat("attempts")
        if metric == "depth":
            vals, incs = cat("depth_after"), attempts
        else:
            vals, incs = cat("dist_after"), cat("wire") * attempts
        wit = Witness(metric=metric, target=max(0, int(vals.max())))
        if wit.target <= 0:  # no hop increments the metric (moved hops always do)
            return wit
        sizes = [len(f) for f in frames]
        frame_of = np.repeat(np.arange(len(frames), dtype=np.int64), sizes)
        first = np.concatenate([[0], np.cumsum(sizes)])
        # hop numbers ordered by (value, dst row, dst col, number) and by
        # (value, number)
        by_cell = np.lexsort((dst_c, dst_r, vals))
        cell_keys = (vals[by_cell], dst_r[by_cell], dst_c[by_cell])
        by_val = np.argsort(vals, kind="stable")
        val_sorted = vals[by_val]

        def latest(order: np.ndarray, keys: tuple, key: tuple, before: int) -> int | None:
            """The largest hop number below ``before`` among the hops of
            ``order`` whose ``keys`` equal ``key`` (a contiguous run)."""
            lo, hi = 0, len(order)
            for col, k in zip(keys, key):
                lo, hi = lo + np.searchsorted(col[lo:hi], k), lo + np.searchsorted(
                    col[lo:hi], k, side="right"
                )
                if lo == hi:
                    return None
            p = lo + int(np.searchsorted(order[lo:hi], before))
            return int(order[p - 1]) if p > lo else None

        g = int(np.argmax(vals))
        chain: list[WitnessHop] = []
        while True:
            f = frames[frame_of[g]]
            mi = g - int(first[frame_of[g]])
            hop = WitnessHop(
                src=(int(f.src_rows[mi]), int(f.src_cols[mi])),
                dst=(int(f.dst_rows[mi]), int(f.dst_cols[mi])),
                wire=int(f.wire[mi]),
                attempts=int(f.attempts[mi]),
                depth_after=int(f.depth_after[mi]),
                dist_after=int(f.dist_after[mi]),
                phase=f.phase,
                kind=f.kind,
                round=f.round,
                tick=f.tick,
            )
            chain.append(hop)
            remaining = int(vals[g]) - int(incs[g])
            if remaining <= 0:
                break
            # the predecessor delivered exactly `remaining` to this hop's
            # source cell strictly earlier (relay chains record hop i's
            # predecessor within the same frame at a smaller message index)
            nxt = latest(by_cell, cell_keys, (remaining, *hop.src), g)
            if nxt is None:
                nxt = latest(by_val, (val_sorted,), (remaining,), g)
                if nxt is None:
                    wit.complete = False
                    break
                chain[-1] = dataclasses.replace(hop, relinked=True)
                wit.contiguous = False
            g = nxt
        wit.hops = list(reversed(chain))
        return wit

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def cell_energy(self) -> dict[tuple[int, int], int]:
        """Total wire energy touching each cell (injected + absorbed)."""
        out = dict(self.energy_out)
        for k, v in self.energy_in.items():
            out[k] = out.get(k, 0) + v
        return out

    def link_load(self) -> dict[tuple[int, int], int]:
        """Per-cell link pressure: load summed over a cell's incident links."""
        out: dict[tuple[int, int], int] = {}
        for (r, c), v in self.hlinks.items():
            for cell in ((r, c), (r, c + 1)):
                out[cell] = out.get(cell, 0) + v
        for (r, c), v in self.vlinks.items():
            for cell in ((r, c), (r + 1, c)):
                out[cell] = out.get(cell, 0) + v
        return out

    def cell_grid(self, by: str = "energy") -> Mapping[tuple[int, int], int]:
        """The per-cell grid of one of :data:`CELL_METRICS`: wire ``energy``
        (:meth:`cell_energy`), ``sent`` or ``received`` message attempts, or
        ``links`` (:meth:`link_load`).  Any other name raises ``ValueError``."""
        if by == "energy":
            return self.cell_energy()
        if by == "sent":
            return self.sent
        if by == "received":
            return self.received
        if by == "links":
            return self.link_load()
        raise ValueError(f"unknown cell metric {by!r}; one of {sorted(CELL_METRICS)}")

    def top_cells(
        self, k: int = 8, by: str = "energy"
    ) -> list[tuple[tuple[int, int], int]]:
        """The ``k`` heaviest cells, descending (ties broken by coordinate)."""
        cells = self.cell_grid(by)
        return sorted(cells.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def hotspot_stats(self, by: str = "energy") -> dict:
        """Skew summary of a cell grid over its occupied bounding box.

        ``gini`` and ``max_mean_skew`` (max / mean over the bounding box,
        zero cells included) quantify congestion: a spatially flat algorithm
        (the 2D scan) sits near 0 / 1, tree patterns concentrate load.
        """
        dense, origin = grid_to_dense(self.cell_grid(by))
        flat = dense.ravel()
        if not flat.size or flat.sum() == 0:
            return {
                "metric": by, "bbox": None, "active_cells": 0, "total": 0,
                "max": 0, "mean": 0.0, "gini": 0.0, "max_mean_skew": 0.0,
            }
        mean = float(flat.mean())
        return {
            "metric": by,
            "bbox": [origin[0], origin[1],
                     origin[0] + dense.shape[0] - 1, origin[1] + dense.shape[1] - 1],
            "active_cells": int((flat > 0).sum()),
            "total": int(flat.sum()),
            "max": int(flat.max()),
            "mean": round(mean, 3),
            "gini": round(gini(flat), 4),
            "max_mean_skew": round(float(flat.max()) / mean, 3) if mean else 0.0,
        }

    def summary(self, top_k: int = 8) -> dict:
        """JSON-safe profile digest (the bench document's ``profile`` section)."""
        out: dict = {
            "total_energy": self.total_energy,
            "total_messages": self.total_messages,
            "batches": self.tick,
            "cells": self.hotspot_stats("energy"),
            "top_cells": [
                {"cell": list(cell), "energy": e}
                for cell, e in self.top_cells(top_k, by="energy")
            ],
            "witness_overflow": self.witness_overflow,
        }
        if self.links:
            loads = list(self.hlinks.values()) + list(self.vlinks.values())
            out["links"] = {
                "horizontal": len(self.hlinks),
                "vertical": len(self.vlinks),
                "max_load": max(loads) if loads else 0,
                "gini": round(gini(loads), 4) if loads else 0.0,
            }
        if self.witnesses and not self.witness_overflow:
            dw = self.depth_witness()
            sw = self.distance_witness()
            out["witness"] = {
                "depth": dw.summary() if dw else None,
                "distance": sw.summary() if sw else None,
            }
        return out
