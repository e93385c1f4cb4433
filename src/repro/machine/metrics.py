"""Cost accounting for the Spatial Computer Model.

The model charges three quantities (paper, Section I.A):

* **energy** — the sum over all messages of the Manhattan distance travelled;
* **depth**  — the length (in messages) of the longest chain of messages that
  consecutively depend on each other;
* **distance** — the largest *total Manhattan distance* along any chain of
  dependent messages.

Energy is a global counter.  Depth and distance are per-*value* quantities: a
value produced by combining inputs inherits the elementwise maximum of its
inputs' depth/distance, and receiving a value over a wire of length ``d > 0``
adds ``1`` to depth and ``d`` to distance.  Local computation is free and a
"send" to the same processor is not a message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "MachineStats",
    "combine_meta",
    "META_DTYPE",
    "CostReport",
    "PhaseNode",
    "CostTree",
]

META_DTYPE = np.int64


@dataclass
class MachineStats:
    """Running totals for one :class:`~repro.machine.machine.SpatialMachine`."""

    energy: int = 0
    messages: int = 0
    #: number of ``send`` batches issued (a proxy for synchronous rounds;
    #: only used by the tracer's inbox audit, not by any cost metric).
    rounds: int = 0
    #: largest per-value depth ever observed on any value, including
    #: intermediate ones that are later discarded.
    max_depth: int = 0
    #: largest per-value chain distance ever observed.
    max_distance: int = 0

    def observe(self, depth: np.ndarray, dist: np.ndarray) -> None:
        if depth.size:
            self.max_depth = max(self.max_depth, int(depth.max()))
            self.max_distance = max(self.max_distance, int(dist.max()))

    def snapshot(self) -> "MachineStats":
        return MachineStats(
            energy=self.energy,
            messages=self.messages,
            rounds=self.rounds,
            max_depth=self.max_depth,
            max_distance=self.max_distance,
        )

    def delta(self, before: "MachineStats") -> "CostReport":
        """Costs incurred since ``before`` (a snapshot of this stats object)."""
        return CostReport(
            energy=self.energy - before.energy,
            messages=self.messages - before.messages,
            depth=self.max_depth,
            distance=self.max_distance,
        )


@dataclass(frozen=True)
class CostReport:
    """Immutable record of the cost of one algorithm run.

    ``depth``/``distance`` are the machine-wide maxima at the end of the run
    (per-value depth of the *results* is available on the returned
    :class:`~repro.machine.machine.TrackedArray` directly).
    """

    energy: int
    messages: int
    depth: int
    distance: int

    def as_dict(self) -> dict[str, int]:
        return {
            "energy": self.energy,
            "messages": self.messages,
            "depth": self.depth,
            "distance": self.distance,
        }


# ----------------------------------------------------------------------
# phase-scoped cost accounting
# ----------------------------------------------------------------------
class PhaseNode:
    """One node of the phase-path tree (e.g. ``mergesort2d/merge2d/scan``).

    *Self* counters hold only the charges incurred while this exact node was
    the machine's active phase; *inclusive* figures (computed on demand) add
    every descendant's self cost.  Energy/messages/sends are additive;
    ``max_depth``/``max_distance`` are the largest per-value chain metadata
    *observed* while the phase was active — chains started in earlier phases
    carry their metadata with them, so these are upper-bound markers of the
    critical path through the phase, not phase-local chain lengths.
    """

    __slots__ = (
        "name",
        "path",
        "parent",
        "children",
        "energy",
        "messages",
        "sends",
        "max_depth",
        "max_distance",
    )

    def __init__(self, name: str, parent: "PhaseNode | None" = None) -> None:
        self.name = name
        self.parent = parent
        if parent is None or not parent.path:
            self.path = name if parent is not None else ""
        else:
            self.path = f"{parent.path}/{name}"
        self.children: dict[str, PhaseNode] = {}
        self.energy = 0
        self.messages = 0
        #: communicating ``send``/``relay`` batches charged to this phase
        self.sends = 0
        self.max_depth = 0
        self.max_distance = 0

    # -- structure ------------------------------------------------------
    def child(self, name: str) -> "PhaseNode":
        """Get-or-create the child span ``name`` (re-entry accumulates)."""
        node = self.children.get(name)
        if node is None:
            node = PhaseNode(name, parent=self)
            self.children[name] = node
        return node

    def walk(self, level: int = 0) -> Iterator[tuple["PhaseNode", int]]:
        """Pre-order traversal yielding ``(node, nesting level)``."""
        yield self, level
        for c in self.children.values():
            yield from c.walk(level + 1)

    # -- costs ----------------------------------------------------------
    def self_cost(self) -> dict[str, int]:
        return {
            "energy": self.energy,
            "messages": self.messages,
            "sends": self.sends,
            "max_depth": self.max_depth,
            "max_distance": self.max_distance,
        }

    def inclusive_cost(self) -> dict[str, int]:
        """Self cost plus the sum (max for depth/distance) over descendants."""
        return self.inclusive_costs()[self]

    def inclusive_costs(self) -> dict["PhaseNode", dict[str, int]]:
        """:meth:`inclusive_cost` of this node and every descendant, from one
        post-order walk of the subtree."""
        out: dict[PhaseNode, dict[str, int]] = {}

        def visit(node: PhaseNode) -> dict[str, int]:
            total = node.self_cost()
            for c in node.children.values():
                sub = visit(c)
                total["energy"] += sub["energy"]
                total["messages"] += sub["messages"]
                total["sends"] += sub["sends"]
                total["max_depth"] = max(total["max_depth"], sub["max_depth"])
                total["max_distance"] = max(total["max_distance"], sub["max_distance"])
            out[node] = total
            return total

        visit(self)
        return out

    def as_dict(self) -> dict:
        """JSON-friendly nested representation (the ``CostTree`` schema)."""
        inclusive = self.inclusive_costs()

        def build(node: PhaseNode) -> dict:
            return {
                "name": node.name or "total",
                "path": node.path,
                "self": node.self_cost(),
                "inclusive": inclusive[node],
                "children": [build(c) for c in node.children.values()],
            }

        return build(self)

    def clone(self, parent: "PhaseNode | None" = None) -> "PhaseNode":
        node = PhaseNode(self.name, parent=parent)
        node.energy = self.energy
        node.messages = self.messages
        node.sends = self.sends
        node.max_depth = self.max_depth
        node.max_distance = self.max_distance
        for name, c in self.children.items():
            node.children[name] = c.clone(parent=node)
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inc = self.inclusive_cost()
        return f"PhaseNode({self.path or 'total'}, E={inc['energy']}, msgs={inc['messages']})"


class CostTree:
    """The per-phase cost breakdown of one :class:`SpatialMachine` run.

    The root accumulates charges incurred outside any ``machine.phase(...)``
    span; its *inclusive* totals always equal the machine's flat
    :class:`MachineStats` counters, so the tree is a lossless decomposition.
    """

    def __init__(self, root: PhaseNode | None = None) -> None:
        self.root = root if root is not None else PhaseNode("")

    # -- access ---------------------------------------------------------
    def node(self, path: str) -> PhaseNode | None:
        """Look up ``"a/b/c"`` (the empty path returns the root)."""
        node = self.root
        for part in [p for p in path.split("/") if p]:
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def paths(self) -> list[str]:
        return [n.path for n, _ in self.root.walk()]

    def total(self) -> CostReport:
        inc = self.root.inclusive_cost()
        return CostReport(
            energy=inc["energy"],
            messages=inc["messages"],
            depth=inc["max_depth"],
            distance=inc["max_distance"],
        )

    def as_dict(self) -> dict:
        return self.root.as_dict()

    def flatten(self) -> list[dict]:
        """One row per phase, pre-order: path, self and inclusive costs."""
        inclusive = self.root.inclusive_costs()
        rows = []
        for node, level in self.root.walk():
            inc = inclusive[node]
            rows.append(
                {
                    "path": node.path or "total",
                    "level": level,
                    "self_energy": node.energy,
                    "self_messages": node.messages,
                    "inclusive_energy": inc["energy"],
                    "inclusive_messages": inc["messages"],
                    "inclusive_sends": inc["sends"],
                    "max_depth": inc["max_depth"],
                    "max_distance": inc["max_distance"],
                }
            )
        return rows

    # -- snapshots ------------------------------------------------------
    def clone(self) -> "CostTree":
        return CostTree(self.root.clone())

    def delta(self, before: "CostTree") -> "CostTree":
        """Phase costs incurred since ``before`` (a snapshot of this tree).

        Additive counters subtract node-wise; depth/distance maxima keep
        their current values (they are monotone running maxima, matching
        :meth:`MachineStats.delta`).
        """

        def sub(node: PhaseNode, prev: PhaseNode | None, parent: PhaseNode | None) -> PhaseNode:
            out = PhaseNode(node.name, parent=parent)
            out.energy = node.energy - (prev.energy if prev else 0)
            out.messages = node.messages - (prev.messages if prev else 0)
            out.sends = node.sends - (prev.sends if prev else 0)
            out.max_depth = node.max_depth
            out.max_distance = node.max_distance
            for name, c in node.children.items():
                out.children[name] = sub(c, prev.children.get(name) if prev else None, out)
            return out

        return CostTree(sub(self.root, before.root, None))

    # -- display --------------------------------------------------------
    def render(self, min_energy: int = 0) -> str:
        """Aligned text tree: one line per phase with self/inclusive costs.

        ``min_energy`` prunes phases whose inclusive energy falls below the
        threshold (keeps big trees readable).
        """
        rows = [
            r
            for r in self.flatten()
            if r["inclusive_energy"] >= min_energy or r["path"] == "total"
        ]
        name_col = [("  " * r["level"]) + r["path"].rsplit("/", 1)[-1] for r in rows]
        headers = ["phase", "energy", "self E", "messages", "depth", "distance"]
        cells = [
            [
                name_col[i],
                str(r["inclusive_energy"]),
                str(r["self_energy"]),
                str(r["inclusive_messages"]),
                str(r["max_depth"]),
                str(r["max_distance"]),
            ]
            for i, r in enumerate(rows)
        ]
        widths = [
            max(len(headers[j]), *(len(c[j]) for c in cells)) for j in range(len(headers))
        ]
        lines = [
            headers[0].ljust(widths[0])
            + "  "
            + "  ".join(h.rjust(widths[j + 1]) for j, h in enumerate(headers[1:]))
        ]
        lines.append("  ".join("-" * w for w in widths))
        for c in cells:
            lines.append(
                c[0].ljust(widths[0])
                + "  "
                + "  ".join(c[j + 1].rjust(widths[j + 1]) for j in range(len(headers) - 1))
            )
        return "\n".join(lines)


def combine_meta(
    depths: list[np.ndarray], dists: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Metadata of a value computed locally from several co-located inputs.

    Depth and chain-distance are each the elementwise maximum over the inputs
    (the new value depends on *all* of them; local combination itself is free).
    """
    depth = depths[0]
    dist = dists[0]
    for d in depths[1:]:
        depth = np.maximum(depth, d)
    for d in dists[1:]:
        dist = np.maximum(dist, d)
    return depth.astype(META_DTYPE, copy=True), dist.astype(META_DTYPE, copy=True)
