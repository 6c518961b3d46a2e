"""Macro benchmarks: the workloads the repository actually runs.

Two end-to-end shapes:

* **colocation (fig4-style)** — one latency-critical inference service
  against one best-effort training job under Tally, the cell every
  paper figure is built from.  Reported per-phase: standalone
  baselines, the co-located simulation, and metric extraction.
* **cluster sweep** — a packed placement evaluated GPU-by-GPU, the
  ``repro cluster`` consolidation demo (and the shape the parallel
  sweep runner accelerates).

The headline metric is simulation events per wall-clock second; the
``extra`` payload records the simulated-to-wall-time ratio, which is
the number a simulator user actually feels, and ``events_credited``:
the events solo run-ahead settled inline anywhere in the benchmark
(standalone baselines included), so a faster event path can be told
apart from work skipped (see ``docs/performance.md``).
"""

from __future__ import annotations

import time

from ..gpu.engine import credited_total
from .harness import BenchmarkResult, PhaseTimer

__all__ = ["MACRO_BENCHMARKS", "bench_colocation", "bench_cluster",
           "bench_cluster_1k", "bench_llm_serve"]

#: simulated seconds per scale
_DURATIONS = {"smoke": 3.0, "quick": 10.0, "full": 20.0}


def _duration(scale: str) -> float:
    return _DURATIONS.get(scale, _DURATIONS["smoke"])


def bench_colocation(scale: str = "smoke") -> BenchmarkResult:
    """Fig4-style cell: bert_infer (load 0.5) x whisper_train, Tally."""
    from ..harness import (
        JobSpec,
        RunConfig,
        clear_standalone_cache,
        run_colocation,
        standalone,
    )

    duration = _duration(scale)
    config = RunConfig(duration=duration, warmup=min(1.0, duration / 3))
    inference = JobSpec.inference("bert_infer", load=0.5)
    training = JobSpec.training("whisper_train")
    timer = PhaseTimer()

    clear_standalone_cache()
    start = time.perf_counter()
    standalone(inference, config)
    standalone(training, config)
    timer.add("standalone", time.perf_counter() - start)

    start = time.perf_counter()
    credited = credited_total()  # the scope of ``events``: this run only
    result = run_colocation("Tally", [inference, training], config)
    credited = credited_total() - credited
    sim_wall = time.perf_counter() - start
    timer.add("simulate", sim_wall, result.events)

    start = time.perf_counter()
    for job in result.jobs.values():
        _ = job.rate  # metric extraction already happened; touch it
    timer.add("metrics", time.perf_counter() - start)

    wall = sum(p.wall_s for p in timer.phases)
    return BenchmarkResult(
        name="macro.colocation_fig4", wall_s=wall, events=result.events,
        phases=timer.phases,
        extra={
            "simulated_s": duration,
            "sim_per_wall": duration / sim_wall if sim_wall > 0 else 0.0,
            "policy": "Tally",
            "utilization": result.utilization,
            "events_credited": credited,
        },
    )


def bench_cluster(scale: str = "smoke") -> BenchmarkResult:
    """A packed placement evaluated on the cluster control plane."""
    from ..cluster import ClusterJob, packed_placement, run_controlplane
    from ..harness import RunConfig, clear_standalone_cache

    duration = max(2.0, _duration(scale) / 2)
    jobs: list[ClusterJob] = []
    seed = 0
    for model, load in (("resnet50_infer", 0.10), ("bert_infer", 0.12),
                        ("yolov6m_infer", 0.10), ("bert_infer", 0.10)):
        jobs.append(ClusterJob(model, load=load, traffic_seed=seed))
        seed += 1
    for model in ("resnet50_train", "pointnet_train", "gpt2_train"):
        jobs.append(ClusterJob(model, traffic_seed=seed))
        seed += 1
    placement = packed_placement(jobs, compute_budget=1.4)
    config = RunConfig(duration=duration, warmup=1.0)
    timer = PhaseTimer()

    clear_standalone_cache()
    credited = credited_total()
    start = time.perf_counter()
    result = run_controlplane(placement=placement, config=config)
    timer.add("sweep", time.perf_counter() - start)

    wall = sum(p.wall_s for p in timer.phases)
    simulated = duration * placement.gpus_used
    return BenchmarkResult(
        name="macro.cluster_sweep", wall_s=wall,
        events=result.events,
        phases=timer.phases,
        extra={
            "gpus": placement.gpus_used,
            "simulated_gpu_s": simulated,
            "sim_per_wall": simulated / wall if wall > 0 else 0.0,
            "sla_violations": result.sla_violations,
            "events_credited": credited_total() - credited,
        },
    )


def bench_llm_serve(scale: str = "smoke") -> BenchmarkResult:
    """LLM serving colocation: llama7b_serve (load 0.5) x resnet50_train.

    Continuous batching generates far more (smaller) kernels per unit
    of simulated time than the trace models, so this macro stresses the
    per-kernel scheduler path plus the KV-cache allocator traffic.
    """
    from ..harness import (
        JobSpec,
        RunConfig,
        clear_standalone_cache,
        run_colocation,
        standalone,
    )

    duration = _duration(scale)
    config = RunConfig(duration=duration, warmup=min(1.0, duration / 3))
    llm = JobSpec.llm("llama7b_serve", load=0.5)
    training = JobSpec.training("resnet50_train")
    timer = PhaseTimer()

    clear_standalone_cache()
    start = time.perf_counter()
    standalone(llm, config)
    standalone(training, config)
    timer.add("standalone", time.perf_counter() - start)

    start = time.perf_counter()
    credited = credited_total()  # the scope of ``events``: this run only
    result = run_colocation("Tally", [llm, training], config)
    credited = credited_total() - credited
    sim_wall = time.perf_counter() - start
    timer.add("simulate", sim_wall, result.events)

    start = time.perf_counter()
    serving = result.llm_results()[0].serving
    assert serving is not None
    timer.add("metrics", time.perf_counter() - start)

    wall = sum(p.wall_s for p in timer.phases)
    return BenchmarkResult(
        name="macro.llm_serve", wall_s=wall, events=result.events,
        phases=timer.phases,
        extra={
            "simulated_s": duration,
            "sim_per_wall": duration / sim_wall if sim_wall > 0 else 0.0,
            "policy": "Tally",
            "tokens_per_s": serving.tokens_per_s,
            "utilization": result.utilization,
            "events_credited": credited,
        },
    )


def bench_cluster_1k(scale: str = "smoke") -> BenchmarkResult:
    """One large control-plane run, serial vs parallel engine.

    A fabric of fig4 cells — every device co-locates one
    latency-critical ``bert_infer`` with one ``resnet50_train`` under
    Tally — admitted first-fit at t=0 with no later control events, so
    the shard phase is the whole run and the parallel engine's ceiling
    is visible.  64 devices at smoke/quick scale, 1024 (the "1k" demo)
    at full.  The same topology runs on both engines; the headline
    events/s is the parallel run and ``extra["speedup"]`` is
    serial-wall over parallel-wall.  Bit-identity of the two results is
    asserted here too — a fast benchmark that silently diverged from
    the oracle would be worthless.

    ``extra["cores"]`` counts the cores this process may run on, so the
    CI speedup floor scales with ``min(cores, workers)`` (see
    :mod:`repro.bench.regression`).  ``extra["shard_event_imbalance"]``
    is the parallel run's busiest shard's event count over the mean:
    the speedup cannot exceed ``workers`` divided by it.
    """
    import os

    from ..cluster import ClusterJob
    from ..cluster.controlplane import ClusterController
    from ..harness import RunConfig, clear_standalone_cache

    devices = 1024 if scale == "full" else 64
    duration = {"smoke": 1.0, "quick": 2.0}.get(scale, 1.0)
    workers = 8
    jobs: list[ClusterJob] = []
    for index in range(devices):
        jobs.append(ClusterJob("bert_infer", load=0.35,
                               traffic_seed=2 * index))
        jobs.append(ClusterJob("resnet50_train",
                               traffic_seed=2 * index + 1))
    config = RunConfig(duration=duration, warmup=min(0.5, duration / 4))

    def controller(**kw) -> ClusterController:
        return ClusterController(jobs, devices, config=config,
                                 compute_budget=1.5, **kw)

    timer = PhaseTimer()
    clear_standalone_cache()
    credited = credited_total()
    start = time.perf_counter()
    serial = controller().run()
    serial_wall = time.perf_counter() - start
    timer.add("serial", serial_wall, serial.events)

    start = time.perf_counter()
    sharded = controller(engine="parallel", workers=workers)
    parallel = sharded.run()
    parallel_wall = time.perf_counter() - start
    timer.add("parallel", parallel_wall, parallel.events)

    if repr(serial) != repr(parallel):
        raise AssertionError(
            "macro.cluster_1k: parallel engine diverged from serial "
            "oracle")

    cores = len(os.sched_getaffinity(0))
    shard_events = sharded.shard_events.values()
    shard_events_mean = sum(shard_events) / len(shard_events)
    wall = sum(p.wall_s for p in timer.phases)
    return BenchmarkResult(
        name="macro.cluster_1k", wall_s=wall, events=parallel.events,
        phases=timer.phases,
        extra={
            "devices": devices,
            "workers": workers,
            "cores": cores,
            "simulated_gpu_s": duration * devices,
            "serial_events_per_s": (serial.events / serial_wall
                                    if serial_wall > 0 else 0.0),
            "parallel_events_per_s": (parallel.events / parallel_wall
                                      if parallel_wall > 0 else 0.0),
            "speedup": (serial_wall / parallel_wall
                        if parallel_wall > 0 else 0.0),
            "identical": True,
            "shard_event_imbalance": (
                max(shard_events) / shard_events_mean
                if shard_events_mean > 0 else 0.0),
            # in this process only: parallel workers credit their own
            "events_credited": credited_total() - credited,
        },
    )


#: suite entries in run order (name, callable)
MACRO_BENCHMARKS = (
    ("macro.colocation_fig4", bench_colocation),
    ("macro.cluster_sweep", bench_cluster),
    ("macro.cluster_1k", bench_cluster_1k),
    ("macro.llm_serve", bench_llm_serve),
)
