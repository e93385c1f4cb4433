"""Tunable algorithm variants and the layout adapter that runs them.

A :class:`Variant` names the :mod:`repro.workloads` entry it runs, the
layouts its input may arrive in (native first), the block factors it accepts
at a given ``n``, and a note.  The input, the run and the host oracle are the
entry's, so a tuned configuration is the same workload the CLI, chaos,
conformance and the service run.

**Layout adapter semantics.**  Placement is free in the spatial computer
model, so "the input arrives in layout L" is modeled by placing the input
at L's coordinates and then paying one charged ``machine.send`` (under a
``relayout`` phase) to the variant's native layout.  The post-relayout run
is then bit-identical to the native configuration — which is exactly what
makes non-native layouts analytically dominated (see
:mod:`repro.tuner.bounds`).

To make a workload tunable, add its entry to :mod:`repro.workloads` and
register a :class:`Variant` naming it here (or call :func:`register_variant`
from your own module) — the search space, pruner, CLI table, plan DB, and
``/plan`` endpoint all pick it up from this registry.  See ``docs/TUNER.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import workloads
from ..core.sorting.sortutil import as_sort_payload
from ..machine import Region, SpatialMachine
from ..machine.layout import rowmajor_layout, square_plus_l_layout, zorder_layout
from ..runner.registry import point_from_machine

__all__ = [
    "SORT_LAYOUTS",
    "SPMV_ITERS",
    "Variant",
    "VARIANTS",
    "register_variant",
    "variants_for",
    "get_variant",
    "layout_coords",
    "sort_workload",
    "run_variant",
    "run_config",
    "run_config_point",
]

#: layouts a sorter's input may arrive in (native row-major first)
SORT_LAYOUTS = ("rowmajor", "zorder", "square_l")

#: multiplies per SpMV request — planned SpMV amortizes its plan over these
SPMV_ITERS = workloads.SPMV_APPLIES


def layout_coords(layout: str, region: Region, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the first ``n`` cells of ``region`` in ``layout``."""
    if layout == "rowmajor":
        return rowmajor_layout(region, n)
    if layout == "zorder":
        return zorder_layout(region, n)
    if layout == "square_l":
        # Fig. 3 shape: a corner square holding n/4 elements (side/2 on a
        # power-of-two region) plus the mirrored-L fill for the rest.
        if n < 4:
            return rowmajor_layout(region, n)
        n_square = n // 4
        (sr, sc), (lr, lc) = square_plus_l_layout(region, n_square, n - n_square)
        return np.concatenate([sr, lr]), np.concatenate([sc, lc])
    raise ValueError(f"unknown layout {layout!r}; known: rowmajor, zorder, square_l")


def relayout(machine: SpatialMachine, ta, region: Region, src: str, dst: str):
    """One charged send moving ``ta`` from layout ``src`` to ``dst``."""
    if src == dst:
        return ta
    rows, cols = layout_coords(dst, region, len(ta))
    with machine.phase("relayout"):
        return machine.send(ta, rows, cols)


@dataclass(frozen=True)
class Variant:
    """One tunable algorithm variant."""

    algo_class: str
    name: str
    #: the :mod:`repro.workloads` entry it runs
    entry: str
    #: layouts the input may arrive in, native first
    layouts: tuple[str, ...]
    #: ``n -> valid block factors`` (``(None,)`` for unblocked variants)
    blocks: Callable[[int], tuple] = field(default=lambda n: (None,))
    note: str = ""
    #: entry runs per request (direct SpMV pays every multiply in full)
    calls: int = 1

    @property
    def native_layout(self) -> str:
        """The layout the implementation consumes (relayout target)."""
        return self.layouts[0]


#: algo class -> variant name -> Variant (enumeration order = registration)
VARIANTS: dict[str, dict[str, Variant]] = {}


def register_variant(variant: Variant) -> Variant:
    VARIANTS.setdefault(variant.algo_class, {})[variant.name] = variant
    return variant


def variants_for(algo_class: str) -> tuple[Variant, ...]:
    return tuple(VARIANTS.get(algo_class, {}).values())


def get_variant(algo_class: str, name: str) -> Variant:
    try:
        return VARIANTS[algo_class][name]
    except KeyError:
        known = ", ".join(VARIANTS.get(algo_class, {}))
        raise ValueError(
            f"unknown variant {name!r} for class {algo_class!r}; known: {known}"
        ) from None


def sort_workload(n: int, rng: np.random.Generator) -> np.ndarray:
    """The keys every sort variant's entry draws (uniform, seed-determined)."""
    return workloads.WORKLOADS["mergesort"].make_input(n, rng).values


for _name, _entry, _note in (
    ("mergesort", "mergesort", "2D mergesort (energy-optimal, §V)"),
    ("quicksort", "quicksort", "selection quicksort (w.h.p. bounds)"),
    ("bitonic", "bitonic", "Batcher bitonic network"),
    ("oddeven", "oddeven", "Batcher odd-even merge network"),
    ("shearsort", "shearsort", "mesh shearsort baseline"),
    ("allpairs", "allpairs", "all-pairs rank sort"),
    ("merge2d", "mergesort_onelevel", "one-level 2D merge over all-pairs leaves"),
):
    register_variant(Variant("sort", _name, _entry, SORT_LAYOUTS, note=_note))


def _scan_blocks(n: int) -> tuple:
    """Block factors with a power-of-4 number of blocks (blocked_scan's rule)."""
    valid = []
    for b in (4, 16, 64):
        if b > n or n % b:
            continue
        nblocks = n // b
        if nblocks > 0 and nblocks & (nblocks - 1) == 0 and nblocks.bit_length() % 2 == 1:
            valid.append(b)
    return tuple(valid) or ()


register_variant(
    Variant(
        "scan",
        "tree",
        "scan",
        ("zorder", "rowmajor", "square_l"),
        note="4-ary Z-order summation tree (§IV.C)",
    )
)
register_variant(
    Variant(
        "scan",
        "blocked",
        "blocked_scan",
        ("host",),
        blocks=_scan_blocks,
        note="b words per PE: free local prefix + spatial scan of block totals",
    )
)
register_variant(
    Variant(
        "spmv",
        "direct",
        "spmv",
        ("coo",),
        note=f"{SPMV_ITERS} independent full multiplies",
        calls=SPMV_ITERS,
    )
)
register_variant(
    Variant(
        "spmv",
        "planned",
        "spmv_planned",
        ("coo",),
        note=f"plan once, {SPMV_ITERS} applies along precomputed lanes",
    )
)


# ---------------------------------------------------------------------------
# execution entry points
# ---------------------------------------------------------------------------
def run_variant(machine: SpatialMachine, config, n: int, rng: np.random.Generator) -> np.ndarray:
    """Run one configuration's entry on ``machine``; return its checked output.

    The input is the entry's own at ``n``.  Spatially placed inputs arrive in
    ``config.layout`` and pay the relayout to the variant's native layout.
    """
    variant = get_variant(config.algo_class, config.variant)
    entry = workloads.WORKLOADS[variant.entry]
    if not entry.sizes.shaped(n):
        raise ValueError(f"{config.label()} needs n a power of 4, got {n}")
    inp = entry.make_input(n, rng)
    if config.block is not None:
        inp.block = int(config.block)
    if variant.native_layout in ("rowmajor", "zorder"):
        payload = as_sort_payload(inp.values) if config.algo_class == "sort" else inp.values
        ta = machine.place(payload, *layout_coords(config.layout, inp.region, n))
        inp.placed = relayout(machine, ta, inp.region, config.layout, variant.native_layout)
    for _ in range(variant.calls):
        out = entry.execute(machine, inp)
    return out.values


def run_config(config, n: int, seed: int = 0) -> SpatialMachine:
    """Execute one configuration on a fresh machine; return the machine."""
    machine = SpatialMachine()
    run_variant(machine, config, n, np.random.default_rng(seed))
    return machine


def run_config_point(params: dict, rng) -> dict:
    """The ``tuner`` suite point function (see ``benchmarks/bench_tuner.py``).

    ``rng`` is the registry-provided seeded generator; the run consumes it
    directly so the point stays deterministic in ``(params, seed)``.
    """
    from .space import TuneConfig

    params = dict(params)
    n = int(params.pop("n"))
    config = TuneConfig.from_params(params)
    machine = SpatialMachine()
    run_variant(machine, config, n, rng)
    return point_from_machine(
        machine,
        config=config.as_dict(),
        config_label=config.label(),
        n=n,
        edp=int(machine.stats.energy) * int(machine.stats.max_depth),
    )
