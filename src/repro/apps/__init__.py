"""Applications composed from the public primitives: order statistics
(Section VI motivation).  The graph kernels live in :mod:`repro.graphs`."""

from .statistics import (
    interquartile_range,
    median,
    median_absolute_deviation,
    quantile,
    top_k,
    trimmed_mean,
)

__all__ = [
    "interquartile_range",
    "median",
    "median_absolute_deviation",
    "quantile",
    "top_k",
    "trimmed_mean",
]
