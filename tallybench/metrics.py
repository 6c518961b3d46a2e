"""Metric names, units, kinds and the statistics the benchmark reports.

Three kinds of metric:

* ``host`` — measured on the machine running the simulator (wall time
  over the reference kernel's, set-up time, memory, failed
  repetitions); noisy.
* ``simulated`` — read from the simulator's results; deterministic for
  a seed, so two commits compare them exactly.
* ``layer`` — per-layer counters and timings that explain the
  end-to-end numbers, among them the raw ``wall_s`` and
  ``reference_s`` behind ``wall_ratio``; reported, never gated.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    kind: str  # "host" | "simulated" | "layer"
    better: str = ""  # "lower" | "higher" | "" (no direction)


END_TO_END = (
    Metric("wall_ratio", "x", "host", "lower"),
    Metric("setup_s", "s", "host", "lower"),
    Metric("peak_rss_mb", "MB", "host", "lower"),
    Metric("failed_runs", "share", "host", "lower"),
    Metric("hp_p99_overhead", "ratio", "simulated", "lower"),
    Metric("be_norm_tput", "ratio", "simulated", "higher"),
    Metric("agg_norm_tput", "ratio", "simulated", "higher"),
    Metric("sla_violations", "count", "simulated", "lower"),
)
_BY_NAME = {m.name: m for m in END_TO_END}

#: units of layer metrics, by full name, then by suffix
_LAYER_UNITS = {
    "sim.events": "count",
    "gpu.engine.events_per_s": "1/s",
    "gpu.device.utilization": "share",
    "policy.hp_queue_p99_ms": "ms",
    "python.calls_per_event": "1/event",
    "harness.standalone_calls": "count",
    "trace.overhead": "x",
    "trace.coverage": "share",
    "engine.speedup": "x",
}
_SUFFIX_UNITS = {"_s": "s", ".share": "share", ".calls": "count",
                 "_share": "share"}


def metric(name: str) -> Metric:
    """The :class:`Metric` called ``name``; unknown names are layer
    metrics, their unit taken from the name."""
    if name in _BY_NAME:
        return _BY_NAME[name]
    if name in _LAYER_UNITS:
        return Metric(name, _LAYER_UNITS[name], "layer")
    for suffix, unit in _SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return Metric(name, unit, "layer")
    return Metric(name, "count", "layer")  # cluster.* event counters


def summarise(values: list[float]) -> dict:
    """Median, first and third quartile (as ``statistics.quantiles``
    gives them) and sample count of ``values``."""
    if not values:
        raise ValueError("no values to summarise")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


def bounds(path: str | None = None) -> dict[str, float]:
    """Regression bound of every end-to-end metric.

    Host metrics take theirs from ``BENCHMARK.json``; a metric missing
    there (``failed_runs``) and every simulated metric has bound 0: any
    worsening counts.
    """
    path = path or os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        declared = {m["name"]: float(m["bound"])
                    for m in json.load(fh)["end_to_end"]}
    return {m.name: declared.get(m.name, 0.0) if m.kind == "host" else 0.0
            for m in END_TO_END}
