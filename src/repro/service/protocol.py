"""Request validation for the serving layer.

A request is a small JSON object::

    {"algo": "scan", "n": 4096, "seed": 7, "profile": false}

``algo`` selects a served :mod:`repro.workloads` entry; each names the
bench suite whose point runs it and its admitted sizes, so a served request
is the same unit of work as a ``repro bench run`` sweep point — same point
function, same determinism contract, same cache identity.  Validation is
strict: unknown fields, wrong types, and out-of-range sizes are rejected
with :class:`RequestError` (HTTP 400) before any work is admitted.

``algo`` may also be ``"auto:<class>"`` (``auto:sort``, ``auto:scan``,
``auto:spmv``) with an optional ``metric`` (energy | max_depth | edp,
default edp): the server consults the tuner's plan database for the best
(variant, layout, block) configuration at this ``n`` and executes *that* as
a ``tuner``-suite point.  Auto requests validate here but carry no concrete
sweep params until the server resolves the plan (:meth:`ServiceRequest.resolve`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from .. import workloads
from ..runner.cachekey import PROFILE_SALT, point_key
from ..runner.spec import PointSpec
from ..tuner.space import ALGO_CLASSES as AUTO_CLASSES, CLASS_SIZES as AUTO_SIZES

__all__ = [
    "AUTO_PREFIX",
    "AUTO_CLASSES",
    "TUNER_SUITE_NAME",
    "RequestError",
    "ServiceRequest",
    "algos_doc",
]

#: auto-tuned dispatch: ``"auto:<class>"`` resolves through the plan DB
AUTO_PREFIX = "auto:"
TUNER_SUITE_NAME = "tuner"

_TUNE_METRICS = ("energy", "max_depth", "edp")

_ALLOWED_FIELDS = frozenset({"algo", "n", "seed", "profile", "metric"})

_MAX_SEED = 2**32


class RequestError(ValueError):
    """A malformed or unserviceable request (surfaces as HTTP 400)."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


def _require_int(doc: Mapping[str, Any], field: str, default: int | None) -> int:
    value = doc.get(field, default)
    if value is None:
        raise RequestError(f"missing required field {field!r}", field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"field {field!r} must be an integer", field)
    return value


@dataclass(frozen=True)
class ServiceRequest:
    """One validated simulation request."""

    algo: str
    n: int
    seed: int = 0
    profile: bool = False
    #: tuning objective; only meaningful (and only accepted) for auto requests
    metric: str = "edp"
    #: plan-selected ``tuner``-suite params, set by :meth:`resolve` (auto only)
    resolved_params: tuple | None = None

    @classmethod
    def from_payload(cls, doc: Any) -> ServiceRequest:
        """Validate a decoded JSON body; raise :class:`RequestError` if bad."""
        if not isinstance(doc, dict):
            raise RequestError("request body must be a JSON object")
        unknown = sorted(set(doc) - _ALLOWED_FIELDS)
        if unknown:
            raise RequestError(
                f"unknown field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(_ALLOWED_FIELDS))}",
                unknown[0],
            )
        algo = doc.get("algo")
        auto_class = None
        if isinstance(algo, str) and algo.startswith(AUTO_PREFIX):
            auto_class = algo[len(AUTO_PREFIX):]
            if auto_class not in AUTO_CLASSES:
                raise RequestError(
                    f"unknown auto class {auto_class!r}; tunable: "
                    + ", ".join(f"{AUTO_PREFIX}{c}" for c in AUTO_CLASSES),
                    "algo",
                )
        elif not isinstance(algo, str) or algo not in workloads.served():
            served = sorted(workloads.served()) + [f"{AUTO_PREFIX}{c}" for c in AUTO_CLASSES]
            raise RequestError(
                f"unknown algo {algo!r}; served: {', '.join(served)}",
                "algo",
            )
        n = _require_int(doc, "n", None)
        sizes = AUTO_SIZES[auto_class] if auto_class else workloads.served()[algo].sizes
        if not sizes.lo <= n <= sizes.hi:
            raise RequestError(
                f"n={n} out of range for {algo} (admitted: {sizes.lo}..{sizes.hi})", "n"
            )
        if not sizes.shaped(n):
            raise RequestError(f"n={n} must be a power of 4 for {algo}", "n")
        seed = _require_int(doc, "seed", 0)
        if not 0 <= seed < _MAX_SEED:
            raise RequestError(f"seed must be in [0, 2**32), got {seed}", "seed")
        profile = doc.get("profile", False)
        if not isinstance(profile, bool):
            raise RequestError("field 'profile' must be a boolean", "profile")
        metric = doc.get("metric", "edp")
        if "metric" in doc and auto_class is None:
            raise RequestError(
                "field 'metric' only applies to auto: requests", "metric"
            )
        if not isinstance(metric, str) or metric not in _TUNE_METRICS:
            raise RequestError(
                f"unknown metric {metric!r}; known: {', '.join(_TUNE_METRICS)}",
                "metric",
            )
        if auto_class is not None and profile:
            raise RequestError(
                "profile runs are not supported for auto: requests", "profile"
            )
        return cls(algo=algo, n=n, seed=seed, profile=profile, metric=metric)

    # -- auto dispatch ----------------------------------------------------
    @property
    def is_auto(self) -> bool:
        return self.algo.startswith(AUTO_PREFIX)

    @property
    def algo_class(self) -> str:
        """The tunable class of an auto request (``auto:sort`` -> ``sort``)."""
        if not self.is_auto:
            raise ValueError(f"{self.algo!r} is not an auto: request")
        return self.algo[len(AUTO_PREFIX):]

    def resolve(self, config_params: Mapping[str, Any]) -> ServiceRequest:
        """Bind the plan-selected ``tuner``-suite params to this request."""
        if not self.is_auto:
            raise ValueError(f"{self.algo!r} is not an auto: request")
        return dataclasses.replace(
            self, resolved_params=tuple(sorted(config_params.items()))
        )

    @property
    def suite_name(self) -> str:
        if self.is_auto:
            return TUNER_SUITE_NAME
        return workloads.served()[self.algo].suite

    def params(self) -> dict:
        if self.is_auto:
            if self.resolved_params is None:
                raise RuntimeError(
                    f"auto request {self.algo} n={self.n} has no resolved plan yet"
                )
            return dict(self.resolved_params)
        return workloads.served()[self.algo].suite_params(self.n)

    def point(self) -> PointSpec:
        """The registry sweep point this request denotes."""
        return PointSpec(suite=self.suite_name, params=self.params(), seed=self.seed)

    def cache_key(self, code_ver: str) -> str:
        """Content-addressed identity, shared with ``repro bench run``.

        ``code_ver`` is the *unsalted* suite code version; profiled requests
        are salted here so the two payload shapes never alias.
        """
        ver = code_ver + PROFILE_SALT if self.profile else code_ver
        return point_key(self.point(), ver)

    def describe(self) -> dict:
        out = {
            "algo": self.algo,
            "n": self.n,
            "seed": self.seed,
            "profile": self.profile,
            "suite": self.suite_name,
        }
        if self.is_auto:
            out["metric"] = self.metric
            if self.resolved_params is not None:
                out["params"] = self.params()
        else:
            out["params"] = self.params()
        return out


def algos_doc() -> dict:
    """The ``GET /algos`` document: every served name, its suite and range."""
    algos = {
        name: {"suite": w.suite, "n_range": [w.sizes.lo, w.sizes.hi]}
        for name, w in sorted(workloads.served().items())
    }
    for cls_name, sizes in AUTO_SIZES.items():
        algos[f"{AUTO_PREFIX}{cls_name}"] = {
            "suite": TUNER_SUITE_NAME,
            "n_range": [sizes.lo, sizes.hi],
        }
    return {"algos": algos}
