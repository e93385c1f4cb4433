"""The benchmark-suite registry.

Each ``benchmarks/bench_*.py`` file registers one (or more) *suites* with the
:func:`register_suite` decorator.  A suite is a point function

    def point(params: dict, rng: numpy.random.Generator) -> dict

that runs one sweep point on a fresh :class:`~repro.machine.SpatialMachine`
and returns the measurement dict produced by :func:`point_from_machine`.
Point functions must be deterministic given ``(params, seed)`` — all
randomness flows through the explicit ``rng``.

Discovery (:func:`load_suites`) imports every ``bench_*.py`` in a benchmarks
directory under a stable synthetic module name, so repeated loads — and
re-loads inside pool worker processes — are idempotent.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .spec import ExperimentSpec, SweepGrid

__all__ = [
    "Suite",
    "REGISTRY",
    "register_suite",
    "point_from_machine",
    "workload_point",
    "load_suites",
    "default_bench_dir",
]


@dataclass
class Suite:
    """One registered benchmark suite (derived from a ``bench_*.py`` file)."""

    name: str
    fn: Callable[[dict, Any], dict]
    artifact: str
    grid: SweepGrid
    quick: SweepGrid
    source: str
    timeout: float | None = None

    def spec(self, quick: bool = False, seed: int | None = None) -> ExperimentSpec:
        grid = self.quick if quick else self.grid
        if seed is not None:
            grid = SweepGrid(params=grid.params, seeds=(seed,), repeats=grid.repeats)
        return ExperimentSpec(suite=self.name, grid=grid, quick=quick)


#: global suite registry; :func:`load_suites` populates it idempotently.
REGISTRY: dict[str, Suite] = {}


def register_suite(
    name: str,
    *,
    artifact: str = "",
    grid: Mapping | list,
    quick: Mapping | list | None = None,
    seeds: tuple[int, ...] = (0,),
    repeats: int = 1,
    timeout: float | None = None,
):
    """Register the decorated point function as suite ``name``.

    ``grid``/``quick`` take the same shapes as :class:`SweepGrid.params`: a
    mapping of parameter axes (crossed) or an explicit list of param dicts.
    ``quick`` defaults to the full grid — give every real suite a tiny quick
    grid so ``repro bench run --quick`` stays CI-cheap.
    """

    full = SweepGrid(params=grid, seeds=seeds, repeats=repeats)
    small = SweepGrid(params=quick, seeds=seeds, repeats=repeats) if quick is not None else full

    def deco(fn: Callable[[dict, Any], dict]):
        REGISTRY[name] = Suite(
            name=name,
            fn=fn,
            artifact=artifact,
            grid=full,
            quick=small,
            source=getattr(fn, "__module__", "?"),
            timeout=timeout,
        )
        fn._suite_name = name
        return fn

    return deco


def point_from_machine(machine, **extra) -> dict:
    """Build a point measurement from a finished machine run.

    ``metrics`` carries the flat :class:`MachineStats` counters; ``phases``
    the flattened per-phase :class:`CostTree` rows; ``extra`` any suite-
    specific scalars (result depth/distance, baseline energies, ratios).
    When the machine carries a :class:`~repro.machine.profiler.SpatialProfiler`
    (``repro bench run --profile`` turns one on via ``REPRO_PROFILE``), its
    hotspot/witness summary rides along under ``profile``.
    """
    s = machine.stats
    out = {
        "metrics": {
            "energy": int(s.energy),
            "messages": int(s.messages),
            "rounds": int(s.rounds),
            "max_depth": int(s.max_depth),
            "max_distance": int(s.max_distance),
        },
        "phases": machine.cost_tree.flatten(),
        "extra": {k: _jsonable(v) for k, v in extra.items()},
    }
    profiler = getattr(machine, "profiler", None)
    if profiler is not None:
        out["profile"] = profiler.summary()
    return out


def workload_point(name: str, n: int, rng) -> dict:
    """Registry entry ``name`` at ``n`` on a fresh machine, checked by its
    oracle and measured; the entry's extra scalars ride along."""
    from .. import workloads
    from ..machine import SpatialMachine

    entry = workloads.WORKLOADS[name]
    machine = SpatialMachine()
    out = entry.execute(machine, entry.make_input(n, rng))
    return point_from_machine(machine, **out.extra)


def _jsonable(v):
    if hasattr(v, "item"):  # numpy scalar
        return v.item()
    return v


def default_bench_dir() -> Path:
    """The repository's ``benchmarks/`` directory (source checkout layout)."""
    return Path(__file__).resolve().parents[3] / "benchmarks"


def _module_prefix(bench_dir: Path) -> str:
    """Synthetic module-name prefix of the ``bench_*.py`` files in ``bench_dir``."""
    digest = hashlib.sha1(str(bench_dir).encode("utf-8")).hexdigest()[:8]
    return f"repro_bench_{digest}_"


def load_suites(bench_dir: str | Path | None = None) -> dict[str, Suite]:
    """Import every ``bench_*.py`` under ``bench_dir``; return the registry.

    Imports are cached in :data:`sys.modules` under a directory-scoped name,
    so calling this repeatedly (or inside a forked worker that inherited the
    parent's modules) never re-executes module bodies.  Every call lists the
    directory again, so a file added since the last call is imported.
    """
    d = Path(bench_dir) if bench_dir is not None else default_bench_dir()
    if not d.is_dir():
        raise FileNotFoundError(f"benchmarks directory not found: {d}")
    prefix = _module_prefix(d)
    with os.scandir(d) as entries:
        names = sorted(
            e.name for e in entries if e.name.startswith("bench_") and e.name.endswith(".py")
        )
    for name in names:
        mod_name = prefix + name[:-3]
        if mod_name in sys.modules:
            continue
        spec = importlib.util.spec_from_file_location(mod_name, d / name)
        if spec is None or spec.loader is None:  # pragma: no cover - defensive
            continue
        module = importlib.util.module_from_spec(spec)
        sys.modules[mod_name] = module
        try:
            spec.loader.exec_module(module)
        except Exception:
            del sys.modules[mod_name]
            raise
    return dict(REGISTRY)
