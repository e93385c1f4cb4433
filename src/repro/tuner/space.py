"""The tuner's configuration space.

A :class:`TuneConfig` names one concrete way to run a primitive: an
algorithm variant, the layout the input arrives in, and (where the variant
takes one) a block factor.  A :class:`SearchSpace` enumerates every valid
configuration for an ``(algo_class, n)`` request from the variant registry
in :mod:`repro.tuner.variants` — the same registry that documents how to
make a new variant tunable.

Enumeration order is load-bearing: for each variant the *native* layout
comes first, then the other layouts in the variant's declared order.  The
tuner's dominance pruning (a non-native layout costs exactly the native run
plus a charged relayout — see :mod:`repro.tuner.bounds`) and its
first-wins tie-break both rely on the native configuration preceding its
dominated siblings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runner.spec import spec_hash
from ..workloads import Sizes

__all__ = ["ALGO_CLASSES", "CLASS_SIZES", "TuneConfig", "SearchSpace"]

#: request classes the tuner serves (sorters x layouts, scan tree/blocked
#: x block factors, direct vs planned SpMV) and the sizes ``auto:``
#: requests admit: resolving a cold plan simulates several candidate
#: configurations, so they stay tuning-affordable
CLASS_SIZES = {
    "sort": Sizes(16, 1024, pow4=True),
    "scan": Sizes(16, 4096, pow4=True),
    "spmv": Sizes(4, 256),
}
ALGO_CLASSES = tuple(CLASS_SIZES)


@dataclass(frozen=True)
class TuneConfig:
    """One point of the search space: (variant, layout, block factor)."""

    algo_class: str
    variant: str
    layout: str
    block: int | None = None

    def params(self, n: int) -> dict:
        """The ``tuner`` suite params executing this configuration at ``n``."""
        return {
            "algo_class": self.algo_class,
            "variant": self.variant,
            "layout": self.layout,
            "block": self.block,
            "n": int(n),
        }

    def label(self) -> str:
        tail = f"/b{self.block}" if self.block is not None else ""
        return f"{self.algo_class}/{self.variant}@{self.layout}{tail}"

    def as_dict(self) -> dict:
        return {
            "algo_class": self.algo_class,
            "variant": self.variant,
            "layout": self.layout,
            "block": self.block,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TuneConfig":
        block = d.get("block")
        return cls(
            algo_class=str(d["algo_class"]),
            variant=str(d["variant"]),
            layout=str(d["layout"]),
            block=None if block is None else int(block),
        )

    @classmethod
    def from_params(cls, params: dict) -> "TuneConfig":
        return cls.from_dict(params)


@dataclass(frozen=True)
class SearchSpace:
    """Every valid configuration for one ``(algo_class, n)`` request."""

    algo_class: str
    n: int
    configs: tuple[TuneConfig, ...]

    @classmethod
    def for_request(cls, algo_class: str, n: int) -> "SearchSpace":
        from .variants import variants_for

        if algo_class not in ALGO_CLASSES:
            raise ValueError(
                f"unknown algo class {algo_class!r}; tunable: {', '.join(ALGO_CLASSES)}"
            )
        configs: list[TuneConfig] = []
        for variant in variants_for(algo_class):
            for layout in variant.layouts:
                for block in variant.blocks(n):
                    configs.append(
                        TuneConfig(
                            algo_class=algo_class,
                            variant=variant.name,
                            layout=layout,
                            block=block,
                        )
                    )
        if not configs:
            raise ValueError(f"no valid configurations for {algo_class} at n={n}")
        return cls(algo_class=algo_class, n=int(n), configs=tuple(configs))

    def hash(self) -> str:
        """Content hash of the enumerated space (PlanDB staleness key)."""
        return spec_hash(
            {
                "algo_class": self.algo_class,
                "n": self.n,
                "configs": [c.as_dict() for c in self.configs],
            }
        )

    def __len__(self) -> int:
        return len(self.configs)
