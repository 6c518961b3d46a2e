"""Latency statistics (the paper's primary inference metric is p99)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import HarnessError

__all__ = ["LatencySummary", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (q in [0, 100]) of ``samples`` by NumPy's
    ``linear`` method, in Python (``np.percentile`` imports
    ``numpy.ma``): the same float up to the sign of a zero, which the
    two sorts may place differently, and NaN if a sample is NaN."""
    if not 0 <= q <= 100:
        raise HarnessError(f"percentile {q} outside [0, 100]")
    ordered = sorted(map(float, samples))
    if not ordered:
        raise HarnessError("cannot take a percentile of zero samples")
    if any(x != x for x in ordered):
        return math.nan
    top = len(ordered) - 1
    v = top * (q / 100)
    if v >= top:  # NumPy takes the top sample at weight v + 1
        i = -1
        a = b = ordered[top]
    else:
        i = math.floor(v)
        a = ordered[i]
        b = ordered[i + 1]
    g = v - i
    if g < 0.5:
        return a + (b - a) * g
    return b - (b - a) * (1 - g)


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a latency sample set (seconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    @staticmethod
    def of(samples: Sequence[float]) -> "LatencySummary":
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise HarnessError("cannot summarize zero latency samples")
        # Pairwise summation can put the mean a few ULPs outside
        # [min, max] on near-constant samples; clamp it back in.
        mean = min(max(float(arr.mean()), float(arr.min())),
                   float(arr.max()))
        return LatencySummary(
            count=int(arr.size),
            mean=mean,
            p50=percentile(samples, 50),
            p90=percentile(samples, 90),
            p99=percentile(samples, 99),
            max=float(arr.max()),
        )

    def slowdown_vs(self, baseline: "LatencySummary") -> float:
        """p99 slowdown factor relative to ``baseline``."""
        if baseline.p99 <= 0:
            raise HarnessError("baseline p99 must be > 0")
        return self.p99 / baseline.p99

    def overhead_vs(self, baseline: "LatencySummary") -> float:
        """p99 overhead (fractional increase) relative to ``baseline``."""
        return self.slowdown_vs(baseline) - 1.0
