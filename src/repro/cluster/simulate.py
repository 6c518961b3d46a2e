"""What a cluster run reports: SLA outcomes, GPUs and throughput.

:func:`~repro.cluster.controlplane.run_controlplane` evaluates a
placement — every GPU's job set under a sharing policy, on the control
plane's device shards — and returns a :class:`ClusterResult`: GPUs used,
the SLA outcome of every latency-critical service, and aggregate
normalized throughput.  Comparing a dedicated placement against a
Tally-packed one reproduces the paper's motivating claim that sharing
can substantially shrink the GPU count of a cluster without violating
service SLAs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines import Priority
from ..harness import JobSpec
from ..metrics.recovery import RecoveryReport
from .placement import ClusterJob

__all__ = ["ServiceOutcome", "ClusterResult"]


@dataclass(frozen=True)
class ServiceOutcome:
    """SLA outcome of one latency-critical service."""

    model: str
    gpu: int
    p99_ratio: float
    sla_factor: float

    @property
    def meets_sla(self) -> bool:
        return self.p99_ratio <= self.sla_factor


@dataclass
class ClusterResult:
    """Outcome of one placement under one sharing policy."""

    policy: str
    gpus_used: int
    services: list[ServiceOutcome]
    total_normalized_throughput: float
    #: simulation events processed: the control plane's own (one
    #: admission per job, arrivals, faults, ...) plus every shard's
    events: int = 0
    #: recovery metrics — downtime per service, MTTR, shed/evicted
    #: counts, SLO attainment through the fault window
    recovery: RecoveryReport | None = None
    #: invariant audits performed across the run (0 when unchecked)
    invariant_checks: int = 0

    @property
    def sla_violations(self) -> int:
        return sum(1 for s in self.services if not s.meets_sla)

    @property
    def worst_p99_ratio(self) -> float:
        if not self.services:
            return float("nan")
        return max(s.p99_ratio for s in self.services)


def _to_jobspec(job: ClusterJob) -> JobSpec:
    if job.role in ("inference", "llm"):
        priority = Priority.BEST_EFFORT if job.offline else Priority.HIGH
        factory = JobSpec.llm if job.role == "llm" else JobSpec.inference
        return factory(job.model, load=job.load, priority=priority,
                       traffic_seed=job.traffic_seed)
    return JobSpec.training(job.model, traffic_seed=job.traffic_seed)


def _tail_p99(job_result) -> float:
    """The service's tail metric: request p99, or TTFT p99 for LLMs.

    A job result with *zero* completed requests in the window (a crashed
    client, or a service evicted by a device fault) has no tail — that
    is the worst possible SLA outcome, not a configuration error, so it
    reports ``inf`` (an unconditional SLA violation) instead of
    aborting the whole cluster evaluation.
    """
    if job_result.latency is not None:
        return job_result.latency.p99
    if job_result.serving is not None and job_result.serving.ttft is not None:
        return job_result.serving.ttft.p99
    return float("inf")
