"""One repetition of one benchmark workload, run in a fresh process.

``run.py`` starts this script once per repetition, in an empty
temporary working directory, and reads back ``result.json`` from it::

    python tallybench/child.py WORKLOAD SEED --spawned-at T [--trace]

The script imports the ``repro`` package from the ``src/`` directory
next to this one and calls only its public entry points:
``repro.harness.{JobSpec, RunConfig, standalone, run_colocation}`` and
``repro.cluster.{ClusterJob, run_controlplane}``.

Each workload first computes the standalone baselines of its jobs
(phase ``standalone``), then runs the co-location entry point (phase
``colocate``).  The cluster controller looks its baselines up through
the same ``standalone`` call, so they are computed once per run, as in
``repro fig4``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: ``RunConfig.trace_seed`` of every workload.  It draws each model's
#: kernel mix and the cluster's job-arrival schedule, so varying it
#: swaps in different models and placements and moves the run's cost
#: by up to 60 %; the benchmark seed varies the traffic instead.
TRACE_SEED = 0
#: simulated seconds and warm-up of the co-location workloads.  Short
#: enough that one repetition takes 1-3 s of host time, so a timed run
#: of under 30 s still takes its median over 8-20 repetitions.
COLOCATION_DURATION, COLOCATION_WARMUP = 3.0, 0.5
#: the ``repro cluster --llm`` latency-critical services, then trainers
CLUSTER_SERVICES = (("resnet50_infer", 0.10), ("bert_infer", 0.12),
                    ("yolov6m_infer", 0.10), ("resnet50_infer", 0.08),
                    ("bert_infer", 0.10), ("yolov6m_infer", 0.12),
                    ("llama7b_serve", 0.30))
CLUSTER_TRAINERS = ("resnet50_train", "pointnet_train", "bert_train",
                    "gpt2_train")
#: at 2 simulated seconds the LLM endpoint completed no request on some
#: seeds, which made the worst-service tail infinite
CLUSTER_DEVICES, CLUSTER_DURATION, CLUSTER_WARMUP = 9, 3.0, 0.5
CLUSTER_ARRIVALS = 8.0  # jobs per simulated second (Poisson)
CLUSTER_FAILURE = ((0, 1.5),)  # device 0 crashes at t = 1.5 s
#: request traffic of the cluster services.  Under bursty MAF traffic
#: the bursts of 6 services collide differently for every seed and the
#: run's cost varies by over 20 % between seeds; Poisson keeps it
#: within a few percent.
CLUSTER_TRAFFIC = "poisson"

WORKLOADS = ("fig4_tally", "fig4_tgs", "llm_serve", "cluster_failover",
             "cluster_sharded")


def traffic_seed(index: int, seed: int) -> int:
    """Traffic seed of the ``index``-th job of a workload."""
    return index + 100 * seed


@dataclass
class Colocation:
    """Inputs of a single-GPU workload: HP job first, BE job second."""

    policy: str
    jobs: list
    config: object


@dataclass
class Cluster:
    """Inputs of a control-plane workload."""

    jobs: list
    baseline_specs: list
    config: object
    engine: str
    workers: int


def build_inputs(workload: str, seed: int):
    """The workload's generated inputs for ``seed``."""
    from repro.harness import JobSpec, RunConfig

    if workload in ("fig4_tally", "fig4_tgs", "llm_serve"):
        config = RunConfig(duration=COLOCATION_DURATION,
                           warmup=COLOCATION_WARMUP, trace_seed=TRACE_SEED)
        if workload == "llm_serve":
            hp = JobSpec.llm("llama7b_serve", load=0.5,
                             traffic_seed=traffic_seed(0, seed))
            be = JobSpec.training("resnet50_train",
                                  traffic_seed=traffic_seed(1, seed))
        else:
            hp = JobSpec.inference("bert_infer", load=0.5,
                                   traffic_seed=traffic_seed(0, seed))
            be = JobSpec.training("whisper_train",
                                  traffic_seed=traffic_seed(1, seed))
        policy = "TGS" if workload == "fig4_tgs" else "Tally"
        return Colocation(policy, [hp, be], config)
    if workload in ("cluster_failover", "cluster_sharded"):
        from repro.cluster import ClusterJob

        config = RunConfig(duration=CLUSTER_DURATION, warmup=CLUSTER_WARMUP,
                           traffic_kind=CLUSTER_TRAFFIC, trace_seed=TRACE_SEED)
        jobs, specs = [], []
        for index, (model, load) in enumerate(CLUSTER_SERVICES):
            seed_i = traffic_seed(index, seed)
            jobs.append(ClusterJob(model, load=load, traffic_seed=seed_i))
            factory = (JobSpec.llm if model == "llama7b_serve"
                       else JobSpec.inference)
            specs.append(factory(model, load=load, traffic_seed=seed_i))
        for index, model in enumerate(CLUSTER_TRAINERS,
                                      start=len(CLUSTER_SERVICES)):
            seed_i = traffic_seed(index, seed)
            jobs.append(ClusterJob(model, traffic_seed=seed_i))
            specs.append(JobSpec.training(model, traffic_seed=seed_i))
        sharded = workload == "cluster_sharded"
        return Cluster(jobs, specs, config,
                       engine="parallel" if sharded else "serial",
                       workers=2 if sharded else 0)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _tail(job) -> float:
    """The HP tail: request p99 for inference, inter-token p99 for LLM."""
    if job.latency is not None:
        return job.latency.p99
    return job.serving.inter_token.p99


def _run_colocation(inputs: Colocation, call) -> tuple[dict, dict, str]:
    from repro.harness import run_colocation, standalone

    start = time.perf_counter()
    baselines = [call(standalone, job, inputs.config) for job in inputs.jobs]
    mid = time.perf_counter()
    result = call(run_colocation, inputs.policy, inputs.jobs, inputs.config)
    end = time.perf_counter()
    hp, be = result.jobs.values()
    sim = {
        "hp_p99_overhead": _tail(hp) / _tail(baselines[0]) - 1.0,
        "be_norm_tput": be.normalized_rate(baselines[1]),
        "sim.events": result.events,
        "gpu.device.utilization": result.utilization,
        "policy.hp_queue_p99_ms": hp.queueing.p99 * 1e3,
    }
    phases = {"phase.standalone_s": mid - start, "phase.colocate_s": end - mid}
    return sim, phases, repr(result)


def _run_cluster(inputs: Cluster, call) -> tuple[dict, dict, str]:
    from repro.cluster import run_controlplane
    from repro.harness import standalone

    start = time.perf_counter()
    for spec in inputs.baseline_specs:
        call(standalone, spec, inputs.config)
    mid = time.perf_counter()
    result = call(run_controlplane, jobs=inputs.jobs,
                  devices=CLUSTER_DEVICES, config=inputs.config,
                  arrival_rate=CLUSTER_ARRIVALS,
                  fail_device=CLUSTER_FAILURE, engine=inputs.engine,
                  workers=inputs.workers)
    end = time.perf_counter()
    recovery = result.recovery
    sim = {
        "hp_p99_overhead": result.worst_p99_ratio - 1.0,
        "agg_norm_tput": result.total_normalized_throughput,
        "sla_violations": result.sla_violations,
        "sim.events": result.events,
        "cluster.migrations": recovery.migrations,
        "cluster.jobs_shed": recovery.jobs_shed,
        "cluster.requests_shed": recovery.requests_shed,
    }
    phases = {"phase.standalone_s": mid - start, "phase.colocate_s": end - mid}
    return sim, phases, repr(result)


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest of its waited-for
    children's (the parallel engine's workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # Linux reports KiB


def _profile_metrics(profile, wall_s: float, events: int) -> dict:
    """Per-layer split of a traced repetition that took ``wall_s``."""
    import layers

    profile.create_stats()
    stats = profile.stats
    per_layer = layers.attribute(stats, PACKAGE)
    total_self = sum(v["self_s"] for v in per_layer.values())
    out: dict = {}
    for layer, values in per_layer.items():
        out[f"{layer}.self_s"] = values["self_s"]
        out[f"{layer}.share"] = values["self_s"] / total_self
        out[f"{layer}.calls"] = values["calls"]
    total_calls = sum(v["calls"] for v in per_layer.values())
    out["python.calls_per_event"] = total_calls / events
    calls, seconds = layers.cumulative(stats, "repro/harness/colocate.py",
                                       "standalone")
    out["harness.standalone_calls"] = calls
    out["harness.standalone_share"] = seconds / wall_s
    # time the coordinator spends blocked on (and decoding) worker replies
    out["engine.wait_s"] = layers.cumulative(
        stats, "multiprocessing/connection.py", "recv")[1]
    out["trace.coverage"] = total_self / wall_s
    return out


def measure(workload: str, seed: int, spawned_at: float, *,
            traced: bool = False) -> dict:
    """Build the inputs, run the workload once, and return its record."""
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != PACKAGE:
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {PACKAGE}")
    inputs = build_inputs(workload, seed)
    built = time.time()
    record: dict = {"workload": workload, "seed": seed, "traced": traced,
                    "setup_s": built - spawned_at}

    profile = None
    if traced:
        import cProfile
        profile = cProfile.Profile()

    def call(fn, *args, **kwargs):
        """Call one public entry point, under the profiler if tracing."""
        if profile is None:
            return fn(*args, **kwargs)
        profile.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            profile.disable()

    start = time.perf_counter()
    if isinstance(inputs, Colocation):
        sim, phases, result_repr = _run_colocation(inputs, call)
    else:
        sim, phases, result_repr = _run_cluster(inputs, call)
    record["wall_s"] = time.perf_counter() - start
    record["peak_rss_mb"] = _peak_rss_mb()
    record["sim"] = sim
    record["phases"] = phases
    record["digest"] = hashlib.sha256(result_repr.encode()).hexdigest()
    if profile is not None:
        record["profile"] = _profile_metrics(profile, record["wall_s"],
                                             sim["sim.events"])
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the parent started us")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.spawned_at,
                         traced=args.trace)
        record["ok"] = True
    except Exception:  # the parent counts it as a failed repetition
        record = {"workload": args.workload, "seed": args.seed,
                  "traced": args.trace, "ok": False,
                  "error": traceback.format_exc()}
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.exit(main())
