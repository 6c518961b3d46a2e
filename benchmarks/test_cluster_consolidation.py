"""Cluster consolidation: the paper's §1 motivation, quantified.

The Alibaba study the paper cites found median GPU utilization as low
as 4.2 % and estimated that effective sharing could cut the cluster's
GPU requirement by ~50 % on average (up to 73 % at peak).  This
benchmark builds a fleet shaped like that story — many low-load online
services, a batch-inference tier, and a set of training jobs — packs it
with Tally's sharing constraints, and verifies both the GPU savings and
that every online service still meets a 1.25x p99 SLA.
"""

from repro.cluster import (
    ClusterJob,
    dedicated_placement,
    packed_placement,
    run_controlplane,
)
from repro.harness import RunConfig
from repro.harness.reporting import format_table


def _fleet() -> list[ClusterJob]:
    jobs: list[ClusterJob] = []
    seed = 0
    # Low-utilization online services (the underutilization story).
    for model, load in [("resnet50_infer", 0.10), ("bert_infer", 0.12),
                        ("yolov6m_infer", 0.10), ("resnet50_infer", 0.08),
                        ("bert_infer", 0.10), ("yolov6m_infer", 0.12)]:
        jobs.append(ClusterJob(model, load=load, traffic_seed=seed))
        seed += 1
    # A batch-inference (offline) tier.
    for model in ("resnet50_infer", "bert_infer", "resnet50_infer"):
        jobs.append(ClusterJob(model, load=0.3, offline=True,
                               traffic_seed=seed))
        seed += 1
    # Training jobs.
    for model in ("resnet50_train", "pointnet_train", "bert_train",
                  "gpt2_train"):
        jobs.append(ClusterJob(model, traffic_seed=seed))
        seed += 1
    return jobs


def test_cluster_consolidation(benchmark, report_sink, scale):
    jobs = _fleet()
    duration = 8.0 if scale == "full" else 5.0
    config = RunConfig(duration=duration, warmup=1.0)

    def run():
        dedicated = dedicated_placement(jobs)
        packed = packed_placement(jobs, compute_budget=1.4)
        return (dedicated, packed,
                run_controlplane(placement=packed, policy="Tally",
                                 config=config))

    dedicated, packed, result = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    saved = 1 - packed.gpus_used / dedicated.gpus_used
    rows = [
        ("jobs", len(jobs), ""),
        ("GPUs, dedicated", dedicated.gpus_used, "one job per GPU"),
        ("GPUs, Tally-packed", packed.gpus_used,
         f"{saved:.0%} fewer GPUs"),
        ("online services", len(result.services), ""),
        ("SLA violations (1.25x p99)", result.sla_violations, ""),
        ("worst online p99", f"{result.worst_p99_ratio:.2f}x", ""),
        ("aggregate normalized thpt",
         f"{result.total_normalized_throughput:.1f}", ""),
    ]
    report_sink("cluster_consolidation", format_table(
        ("metric", "value", "note"), rows,
        title=("Cluster consolidation under Tally "
               "(paper §1 / Alibaba-study motivation)"),
    ))

    # The motivating claim: sharing saves a large fraction of GPUs...
    assert saved >= 0.4, f"only {saved:.0%} GPUs saved"
    # ...without violating any online service's SLA.
    assert result.sla_violations == 0, (
        f"{result.sla_violations} SLA violations, "
        f"worst {result.worst_p99_ratio:.2f}x"
    )