"""Regression gating: compare a bench report against a baseline.

The CI ``perf`` job runs the smoke suite and fails when any benchmark's
throughput — units of work per wall second — drops more than
``threshold`` (default 25 %) below the checked-in baseline
(``benchmarks/baselines/BENCH_baseline.json``).  The baseline is a
recorded :class:`~repro.bench.harness.BenchReport`; refresh it with
``repro-bench run --out benchmarks/baselines/BENCH_baseline.json``
whenever a deliberate trade-off (or a hardware change on the reference
machine) moves the numbers.

The unit of work is what the benchmark exists to get through, not the
events it happens to take: batching cuts events without cutting work,
and an events-per-second gate would punish it.  Macro benchmarks do
simulated seconds (``simulated_s``, or ``simulated_gpu_s`` summed over
devices, in ``extra``), ``micro.device_dispatch`` does kernel launches
(``launches``), and the others do events.  A benchmark is gated on the
first of those ``extra`` fields both reports carry (see
:data:`WORK_UNITS`).

Comparison is by benchmark *name*: benchmarks present on only one side
are reported but never fail the gate, so adding a benchmark does not
require touching the baseline in the same commit.

Benchmarks that record a transform-cache hit rate (``cache_hit_rate``
in ``extra``, e.g. ``micro.transform_pipeline``) get a second gate: an
absolute hit-rate drop beyond ``hit_rate_drop`` (default 10 points)
fails the build even when throughput still squeaks past the threshold —
a broken memo key shows up there first.

Benchmarks that record a parallel-over-serial ``speedup`` with
``gate: true`` in ``extra`` (``macro.cluster_1k`` — the flag is set by
the benchmark only on hosts with enough real cores for the worker
count) get a third gate: the speedup must clear ``speedup_floor``
(default 4x).  This one reads the *current* report alone — a baseline
is not needed to know the parallel engine stopped pulling its weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import ReproError
from .harness import BenchmarkResult, BenchReport

__all__ = ["Comparison", "RegressionReport", "WORK_UNITS",
           "compare_reports", "load_report"]

#: ``(extra key, unit)`` of the work a benchmark gets through, in order
#: of preference; a benchmark recording none of them is gated on events
WORK_UNITS = (
    ("simulated_s", "sim-s/s"),
    ("simulated_gpu_s", "sim-GPU-s/s"),
    ("launches", "launches/s"),
)


def load_report(path: str) -> BenchReport:
    """Load one report — either a bare report or a trajectory list.

    Trajectory files (``BENCH_simulator.json``) hold a list of reports;
    the *newest* (last) entry is returned.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, list):
        if not data:
            raise ReproError(f"{path}: empty trajectory file")
        data = data[-1]
    if not isinstance(data, dict):
        raise ReproError(f"{path}: expected a report object or list")
    return BenchReport.from_dict(data)


@dataclass(frozen=True)
class Comparison:
    """One benchmark's baseline-vs-current throughput comparison, in
    units of work (``unit``) per wall second.

    Benchmarks that report a transform-cache hit rate (the
    ``cache_hit_rate`` key in ``extra``) are additionally gated on it:
    a memoization bug that recompiles instead of reusing shows up as a
    hit-rate drop long before the wall-clock noise floor would catch
    it.
    """

    name: str
    baseline_rate: float
    current_rate: float
    unit: str = "events/s"
    baseline_hit_rate: float | None = None
    current_hit_rate: float | None = None

    @property
    def ratio(self) -> float:
        """current / baseline throughput (>1 means faster)."""
        if self.baseline_rate <= 0:
            return float("inf")
        return self.current_rate / self.baseline_rate

    def regressed(self, threshold: float) -> bool:
        return self.ratio < 1.0 - threshold

    def hit_rate_dropped(self, max_drop: float) -> bool:
        """Did the cache hit rate fall more than ``max_drop`` (absolute)?

        Only meaningful when both sides report a hit rate; a benchmark
        gaining or losing the counter between versions never fails.
        """
        if self.baseline_hit_rate is None or self.current_hit_rate is None:
            return False
        return self.current_hit_rate < self.baseline_hit_rate - max_drop


@dataclass
class RegressionReport:
    """Outcome of a baseline comparison."""

    threshold: float
    comparisons: list[Comparison]
    only_in_baseline: list[str] = field(default_factory=list)
    only_in_current: list[str] = field(default_factory=list)
    #: maximum tolerated absolute cache-hit-rate drop
    hit_rate_drop: float = 0.10
    #: minimum parallel-over-serial speedup for gated benchmarks
    speedup_floor: float = 4.0
    #: ``(name, speedup)`` of gated benchmarks under the floor
    speedup_failures: list[tuple[str, float]] = field(default_factory=list)

    @property
    def regressions(self) -> list[Comparison]:
        return [c for c in self.comparisons if c.regressed(self.threshold)]

    @property
    def hit_rate_regressions(self) -> list[Comparison]:
        return [c for c in self.comparisons
                if c.hit_rate_dropped(self.hit_rate_drop)]

    @property
    def ok(self) -> bool:
        return (not self.regressions and not self.hit_rate_regressions
                and not self.speedup_failures)

    def format(self) -> str:
        lines = []
        for c in self.comparisons:
            mark = "REGRESSED" if c.regressed(self.threshold) else "ok"
            digits = 3 if c.unit.startswith("sim-") else 0
            line = (
                f"  {c.name}: {c.baseline_rate:,.{digits}f} -> "
                f"{c.current_rate:,.{digits}f} {c.unit} "
                f"({c.ratio:.2f}x) [{mark}]"
            )
            if c.baseline_hit_rate is not None \
                    and c.current_hit_rate is not None:
                hr_mark = ("HIT-RATE DROPPED"
                           if c.hit_rate_dropped(self.hit_rate_drop)
                           else "ok")
                line += (f" cache {c.baseline_hit_rate:.0%} -> "
                         f"{c.current_hit_rate:.0%} [{hr_mark}]")
            lines.append(line)
        for name in self.only_in_baseline:
            lines.append(f"  {name}: only in baseline (skipped)")
        for name in self.only_in_current:
            lines.append(f"  {name}: new benchmark (no baseline)")
        for name, speedup in self.speedup_failures:
            lines.append(
                f"  {name}: parallel speedup {speedup:.2f}x under the "
                f"{self.speedup_floor:.1f}x floor [SPEEDUP FAILED]")
        failures = (len(self.regressions) + len(self.hit_rate_regressions)
                    + len(self.speedup_failures))
        verdict = "OK" if self.ok else f"FAILED ({failures} regressions)"
        header = (f"perf gate {verdict}: threshold "
                  f"{self.threshold:.0%} below baseline, cache hit rate "
                  f"within {self.hit_rate_drop:.0%}")
        return "\n".join([header] + lines)


def _rates(baseline: BenchmarkResult,
           current: BenchmarkResult) -> tuple[float, float, str]:
    """Work per wall second on both sides, in the first unit both
    record (events when neither records another)."""
    for key, unit in WORK_UNITS:
        if key in baseline.extra and key in current.extra:
            return (_per_wall_s(float(baseline.extra[key]), baseline),
                    _per_wall_s(float(current.extra[key]), current), unit)
    return baseline.events_per_s, current.events_per_s, "events/s"


def _per_wall_s(work: float, result: BenchmarkResult) -> float:
    return work / result.wall_s if result.wall_s > 0 else 0.0


def _hit_rate(extra: dict) -> float | None:
    value = extra.get("cache_hit_rate")
    return float(value) if value is not None else None


def compare_reports(baseline: BenchReport, current: BenchReport, *,
                    threshold: float = 0.25,
                    hit_rate_drop: float = 0.10,
                    speedup_floor: float = 4.0) -> RegressionReport:
    """Compare throughput (and cache hit rates) by benchmark name."""
    if not 0 < threshold < 1:
        raise ReproError(f"threshold must be in (0, 1), got {threshold!r}")
    if not 0 < hit_rate_drop < 1:
        raise ReproError(
            f"hit_rate_drop must be in (0, 1), got {hit_rate_drop!r}")
    if speedup_floor <= 0:
        raise ReproError(
            f"speedup_floor must be > 0, got {speedup_floor!r}")
    speedup_failures = [
        (b.name, float(b.extra.get("speedup", 0.0)))
        for b in current.benchmarks
        if b.extra.get("gate")
        and float(b.extra.get("speedup", 0.0)) < speedup_floor
    ]
    base_by_name = {b.name: b for b in baseline.benchmarks}
    cur_by_name = {b.name: b for b in current.benchmarks}
    comparisons = [
        Comparison(name, *_rates(base_by_name[name], cur_by_name[name]),
                   baseline_hit_rate=_hit_rate(base_by_name[name].extra),
                   current_hit_rate=_hit_rate(cur_by_name[name].extra))
        for name in base_by_name if name in cur_by_name
    ]
    return RegressionReport(
        threshold=threshold,
        comparisons=comparisons,
        only_in_baseline=sorted(set(base_by_name) - set(cur_by_name)),
        only_in_current=sorted(set(cur_by_name) - set(base_by_name)),
        hit_rate_drop=hit_rate_drop,
        speedup_floor=speedup_floor,
        speedup_failures=speedup_failures,
    )
