"""Performance-benchmark harness for the simulator (``repro-bench``).

The simulator's value is proportional to how much simulated time it can
chew through per wall-clock second — every paper figure, the property
suite, and the chaos matrix funnel through the same event-loop and
device hot path.  This package measures that hot path and records the
results as machine-readable JSON so the trajectory is tracked, not
remembered:

* **micro benchmarks** (:mod:`repro.bench.micro`) — event-loop
  throughput, device dispatch, and the transformation pipeline in
  isolation;
* **macro benchmarks** (:mod:`repro.bench.macro`) — a fig4-style
  co-location run and a cluster placement sweep, the workloads the
  repository actually runs all day;
* **harness** (:mod:`repro.bench.harness`) — timing, peak-RSS capture,
  per-phase breakdown, and the ``BENCH_simulator.json`` schema;
* **regression** (:mod:`repro.bench.regression`) — comparison against a
  checked-in baseline, used by the CI ``perf`` job to fail on >25 %
  throughput regressions.

Run ``repro-bench run`` (or ``python -m repro.bench run``) to produce a
report, ``repro-bench compare`` to gate against a baseline.  See
``docs/performance.md`` for methodology.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".harness": ("BenchmarkResult", "BenchReport", "Phase", "PhaseTimer",
                 "peak_rss_kb", "run_suite"),
    ".regression": ("RegressionReport", "compare_reports", "load_report"),
    ".micro": ("MICRO_BENCHMARKS",),
    ".macro": ("MACRO_BENCHMARKS",),
})
