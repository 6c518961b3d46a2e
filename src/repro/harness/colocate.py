"""Co-location experiment runner.

Builds a simulated GPU, a sharing policy, and a set of workload drivers
(latency-critical inference services fed by traffic traces, best-effort
training loops), runs them together for a fixed window, and collects
the paper's metrics: p99 request latency and per-workload throughput
within the post-warmup measurement window.

Standalone (isolated) runs of each workload are cached per
configuration — they are the normalization baselines for every figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal

from ..baselines import (
    Ideal,
    MPS,
    MPSPriority,
    Priority,
    REEF,
    SharingPolicy,
    TGS,
    TimeSlicing,
)
from ..check import InvariantChecker
from ..core import Tally, TallyConfig
from ..errors import HarnessError
from ..faults import FaultConfig, FaultInjector
from ..gpu import A100_SXM4_40GB, EventLoop, GPUDevice, GPUSpec
from ..metrics import LatencySummary, ServingSLO, ServingSummary
from ..trace import Tracer
from ..traffic import TrafficTrace, bursty_trace, maf_trace, poisson_trace
from ..workloads import InferenceJob, TrainingJob, get_model
from ..workloads.llm_models import get_llm_model
from ..workloads.memory import A100_MEMORY_BYTES, check_memory_fit
from ..workloads.models import WorkloadKind

__all__ = [
    "POLICY_NAMES",
    "JobSpec",
    "RunConfig",
    "JobResult",
    "RunResult",
    "make_policy",
    "run_colocation",
    "standalone",
    "clear_standalone_cache",
]

POLICY_NAMES = ("Ideal", "Time-Slicing", "MPS", "MPS-Priority",
                "TGS", "REEF", "Tally")


def make_policy(name: str, device: GPUDevice, engine: EventLoop, *,
                tally_config: TallyConfig | None = None) -> SharingPolicy:
    """Instantiate a sharing policy by its paper name."""
    if name == "Ideal":
        return Ideal(device, engine)
    if name == "Time-Slicing":
        return TimeSlicing(device, engine)
    if name == "MPS":
        return MPS(device, engine)
    if name == "MPS-Priority":
        return MPSPriority(device, engine)
    if name == "TGS":
        return TGS(device, engine)
    if name == "REEF":
        return REEF(device, engine)
    if name == "Tally":
        return Tally(device, engine, tally_config)
    raise HarnessError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


@dataclass(frozen=True)
class JobSpec:
    """One workload in a co-location run."""

    model: str
    role: Literal["inference", "training", "llm"]
    #: inference/llm only: target offered load (fraction of busy time)
    load: float = 0.5
    #: None = role default (inference/llm HIGH, training BEST_EFFORT)
    priority: Priority | None = None
    traffic_seed: int = 0
    #: explicit traffic overrides the generated trace (Fig. 5b)
    traffic: TrafficTrace | None = None
    #: simulated time at which this client crashes (fault injection);
    #: None = the process survives the whole run
    crash_at: float | None = None

    def __post_init__(self) -> None:
        if self.role == "llm":
            # The serving driver is loaded with the job that needs it,
            # so a run's inputs, not the run itself, pay its import.
            from ..workloads import llm  # noqa: F401

    @property
    def effective_priority(self) -> Priority:
        if self.priority is not None:
            return self.priority
        return (Priority.BEST_EFFORT if self.role == "training"
                else Priority.HIGH)

    @staticmethod
    def inference(model: str, load: float = 0.5, **kwargs) -> "JobSpec":
        return JobSpec(model=model, role="inference", load=load, **kwargs)

    @staticmethod
    def training(model: str, **kwargs) -> "JobSpec":
        return JobSpec(model=model, role="training", **kwargs)

    @staticmethod
    def llm(model: str, load: float = 0.5, **kwargs) -> "JobSpec":
        """An LLM serving endpoint (continuous batching; see
        :class:`~repro.workloads.llm.LLMServingJob`)."""
        return JobSpec(model=model, role="llm", load=load, **kwargs)


@dataclass(frozen=True)
class RunConfig:
    """Shared parameters of one co-location run."""

    spec: GPUSpec = A100_SXM4_40GB
    duration: float = 20.0
    warmup: float = 2.0
    colocation_slowdown: float = 1.08
    tally_config: TallyConfig | None = None
    traffic_kind: Literal["maf", "bursty", "poisson"] = "maf"
    burst_ratio: float = 20.0
    trace_seed: int = 0
    #: serving SLO applied to LLM jobs' goodput accounting; None keeps
    #: goodput == throughput (an unstated SLO rejects nothing)
    slo: ServingSLO | None = None
    #: validate that the co-located models' memory footprints fit the
    #: GPU (GPU sharing is memory-gated before it is compute-gated)
    check_memory: bool = True
    memory_capacity_bytes: int | None = None  # None = A100 40 GiB

    def __post_init__(self) -> None:
        # one chained comparison, False for NaN anywhere in it
        if not 0.0 <= self.warmup < self.duration < math.inf:
            raise HarnessError(
                "need 0 <= warmup < duration < inf, got "
                f"warmup={self.warmup!r}, duration={self.duration!r}")

    @property
    def window(self) -> tuple[float, float]:
        return (self.warmup, self.duration)


@dataclass
class JobResult:
    """Measured outcome of one workload in a run."""

    client_id: str
    model: str
    role: str
    completed: int  # requests or iterations within the window
    rate: float  # per second within the window
    latency: LatencySummary | None = None  # inference only
    pending: int = 0  # inference backlog at the end (overload indicator)
    #: arrival-to-start (inference) / arrival-to-admission (llm) delays
    queueing: LatencySummary | None = None
    #: llm only: windowed TTFT / inter-token / goodput metrics
    serving: ServingSummary | None = None
    #: llm only: requests shed for KV headroom within the window
    evicted: int = 0

    def normalized_rate(self, baseline: "JobResult") -> float:
        if baseline.rate <= 0:
            raise HarnessError(
                f"standalone rate of {self.model} must be > 0"
            )
        return self.rate / baseline.rate


@dataclass
class RunResult:
    """Outcome of one co-location run."""

    policy: str
    config: RunConfig
    jobs: dict[str, JobResult]
    utilization: float
    events: int
    #: invariant audits performed (0 when the run was unchecked); a
    #: checked run that returns at all had zero violations
    invariant_checks: int = 0
    #: faults actually injected, by kind (empty for fault-free runs)
    fault_counts: dict[str, int] = field(default_factory=dict)
    #: the workload drivers, for post-hoc analysis beyond the window
    #: summaries (e.g. slicing latencies at a crash instant)
    drivers: dict[str, object] = field(default_factory=dict, repr=False)

    def job(self, client_id: str) -> JobResult:
        try:
            return self.jobs[client_id]
        except KeyError:
            raise HarnessError(
                f"no job {client_id!r} in run (have {sorted(self.jobs)})"
            ) from None

    def inference_results(self) -> list[JobResult]:
        return [j for j in self.jobs.values() if j.role == "inference"]

    def llm_results(self) -> list[JobResult]:
        return [j for j in self.jobs.values() if j.role == "llm"]

    def training_results(self) -> list[JobResult]:
        return [j for j in self.jobs.values() if j.role == "training"]


# ---------------------------------------------------------------------------

def _traffic_for(spec_: JobSpec, service_time: float,
                 config: RunConfig) -> TrafficTrace:
    if spec_.traffic is not None:
        return spec_.traffic
    if config.traffic_kind == "poisson":
        rate = spec_.load / service_time
        return poisson_trace(rate, config.duration, seed=spec_.traffic_seed)
    if config.traffic_kind == "bursty":
        return bursty_trace(
            spec_.load, service_time, config.duration,
            burst_ratio=config.burst_ratio, seed=spec_.traffic_seed,
        )
    return maf_trace(
        spec_.load, service_time, config.duration,
        spike_ratio=config.burst_ratio, seed=spec_.traffic_seed,
    )


def job_inputs(spec: JobSpec, config: RunConfig):
    """The ``(model or trace, traffic)`` a job's driver runs on.

    An LLM endpoint runs its serving model, an inference service and a
    trainer their kernel trace; a trainer has no traffic (None).  Both
    are pure functions of ``(spec, config)``.
    """
    if spec.role == "llm":
        llm_model = get_llm_model(spec.model)
        return llm_model, _traffic_for(spec, llm_model.mean_request_time(),
                                       config)
    model = get_model(spec.model)
    expected = ("inference" if model.kind is WorkloadKind.INFERENCE
                else "training")
    if expected != spec.role:
        raise HarnessError(
            f"model {spec.model!r} is a {expected} workload, "
            f"not {spec.role}"
        )
    trace = model.build_trace(config.spec, seed=config.trace_seed)
    if spec.role == "training":
        return trace, None
    return trace, _traffic_for(spec, trace.duration, config)


def make_driver(spec: JobSpec, config: RunConfig, policy: SharingPolicy,
                client_id: str):
    """The workload driver of one job on ``policy``, not yet started."""
    source, traffic = job_inputs(spec, config)
    priority = spec.effective_priority
    if spec.role == "llm":
        from ..workloads.llm import LLMServingJob

        return LLMServingJob(source, traffic, policy, client_id,
                             priority=priority, seed=spec.traffic_seed)
    if spec.role == "inference":
        return InferenceJob(source, traffic, policy, client_id,
                            priority=priority)
    return TrainingJob(source, policy, client_id, priority=priority)


def run_colocation(policy_name: str, jobs: list[JobSpec],
                   config: RunConfig | None = None, *,
                   tracer: Tracer | None = None,
                   check: "bool | InvariantChecker" = False,
                   faults: "FaultConfig | FaultInjector | None" = None,
                   ) -> RunResult:
    """Run ``jobs`` together under ``policy_name`` and collect metrics.

    Pass a :class:`~repro.trace.Tracer` to record the run's scheduler
    and device activity (see ``docs/observability.md``); tracing is
    off — and free — when ``tracer`` is None.

    ``check=True`` (or an :class:`~repro.check.InvariantChecker`)
    audits the device's accounting after every event and raises
    :class:`~repro.errors.InvariantViolation` on the first breach
    (see ``docs/validation.md``); checking is off — and free — by
    default.

    ``faults`` (a :class:`~repro.faults.FaultConfig` or a pre-built
    :class:`~repro.faults.FaultInjector`) enables seeded fault
    injection — device kernel faults, slot faults, client crashes —
    and arms the crash times on each :class:`JobSpec` (see
    ``docs/fault_tolerance.md``).  ``FaultConfig.crash_at`` without a
    per-job ``crash_at`` kills the first best-effort client, the
    common chaos scenario.  Injection is off — and free — by default.
    """
    if not jobs:
        raise HarnessError("need at least one job")
    config = config if config is not None else RunConfig()
    checker: InvariantChecker | None
    if check is True:
        checker = InvariantChecker()
    elif check:
        checker = check  # caller-supplied checker (e.g. collect mode)
    else:
        checker = None
    injector: FaultInjector | None
    if faults is None:
        injector = None
    elif isinstance(faults, FaultConfig):
        injector = FaultInjector(faults)
    else:
        injector = faults  # pre-built (possibly shared) injector

    if config.check_memory:
        capacity = (config.memory_capacity_bytes
                    if config.memory_capacity_bytes is not None
                    else A100_MEMORY_BYTES)
        check_memory_fit([j.model for j in jobs], capacity)

    engine = EventLoop()
    device = GPUDevice(config.spec, engine,
                       colocation_slowdown=config.colocation_slowdown,
                       tracer=tracer, check=checker, faults=injector)
    policy = make_policy(policy_name, device, engine,
                         tally_config=config.tally_config)

    drivers: list[tuple[JobSpec, object]] = []
    counters: dict[str, int] = {}
    for job_spec in jobs:
        n = counters.get(job_spec.model, 0)
        counters[job_spec.model] = n + 1
        drivers.append((job_spec, make_driver(job_spec, config, policy,
                                              f"{job_spec.model}#{n}")))

    if injector is not None:
        _arm_faults(injector, drivers, device, engine, policy, config,
                    tracer=tracer)

    for _spec, driver in drivers:
        driver.start()  # type: ignore[union-attr]
    engine.run_until(config.duration)

    start, end = config.window
    span = end - start
    results: dict[str, JobResult] = {}
    for job_spec, driver in drivers:
        if job_spec.role == "llm":
            serving = driver.serving_summary(since=start, until=end,
                                             slo=config.slo)
            results[driver.client_id] = JobResult(
                client_id=driver.client_id, model=job_spec.model,
                role="llm", completed=serving.completed,
                rate=serving.requests_per_s,
                pending=driver.pending_requests,
                queueing=driver.queueing_summary(since=start, until=end),
                serving=serving, evicted=serving.evicted,
            )
        elif job_spec.role == "inference":
            latencies = driver.latencies(since=start, until=end)
            summary = LatencySummary.of(latencies) if latencies else None
            completed = driver.completions_in(start, end)
            results[driver.client_id] = JobResult(
                client_id=driver.client_id, model=job_spec.model,
                role="inference", completed=completed,
                rate=completed / span, latency=summary,
                pending=driver.pending_requests,
                queueing=driver.queueing_summary(since=start, until=end),
            )
        else:
            completed = driver.completions_in(start, end)
            results[driver.client_id] = JobResult(
                client_id=driver.client_id, model=job_spec.model,
                role="training", completed=completed, rate=completed / span,
            )

    return RunResult(
        policy=policy_name, config=config, jobs=results,
        utilization=device.utilization(), events=engine.events_processed,
        invariant_checks=checker.checks_run if checker is not None else 0,
        fault_counts=(dict(injector.injected) if injector is not None
                      else {}),
        drivers={driver.client_id: driver  # type: ignore[attr-defined]
                 for _spec, driver in drivers},
    )


def _arm_faults(injector: FaultInjector, drivers: list[tuple[JobSpec, object]],
                device: GPUDevice, engine: EventLoop, policy: SharingPolicy,
                config: RunConfig, *, tracer: Tracer | None) -> None:
    """Schedule the run's slot faults and client crashes."""
    from ..faults import arm_slot_faults, schedule_client_crash

    event_tracer = tracer if tracer is not None else device.tracer
    arm_slot_faults(device, engine, injector, config.duration,
                    tracer=event_tracer)
    crash_specs: list[tuple[float, object, str]] = []
    for job_spec, driver in drivers:
        if job_spec.crash_at is not None:
            client_id = driver.client_id  # type: ignore[attr-defined]
            crash_specs.append((job_spec.crash_at, driver, client_id))
    if not crash_specs and injector.config.crash_at is not None:
        # CLI convenience: an un-targeted crash kills the first
        # best-effort client — the canonical chaos scenario (the
        # high-priority service must sail on unperturbed).
        for job_spec, driver in drivers:
            if job_spec.effective_priority is not Priority.HIGH:
                client_id = driver.client_id  # type: ignore[attr-defined]
                crash_specs.append(
                    (injector.config.crash_at, driver, client_id))
                break
    for when, driver, client_id in crash_specs:
        if when >= config.duration:
            raise HarnessError(
                f"crash_at={when} is beyond the run duration "
                f"({config.duration})"
            )
        injector.injected["client_crash"] += 1
        schedule_client_crash(engine, when, driver, policy, client_id,
                              tracer=event_tracer)


# ---------------------------------------------------------------------------
# Standalone baselines (cached)
# ---------------------------------------------------------------------------

# The key holds every input a solo run reads: the job, the whole
# (frozen) GPUSpec rather than its name, the window, the traffic shape
# and the serving SLO that LLM goodput is judged against.
# Each entry pins the explicit traffic object (when one was supplied)
# alongside the result: the key uses id(traffic), and without a strong
# reference a garbage-collected traffic list could recycle its id and
# alias a different workload's baseline.  The cache is per-process —
# sweep workers (see sweep.py) each warm their own, which only costs
# repeated baseline runs, never stale or cross-process state.
_STANDALONE_CACHE: dict[tuple, tuple[JobResult, object]] = {}

#: entry bound; oldest entries are evicted first (dict preserves
#: insertion order) so unbounded parameter sweeps can't grow it forever
_STANDALONE_CACHE_MAX = 256


def standalone(job: JobSpec, config: RunConfig | None = None) -> JobResult:
    """Isolated execution of one workload (the normalization baseline)."""
    config = config if config is not None else RunConfig()
    key = (
        job.model, job.role, round(job.load, 6), job.traffic_seed,
        id(job.traffic) if job.traffic is not None else None,
        config.spec, config.duration, config.warmup,
        config.traffic_kind, config.burst_ratio, config.trace_seed,
        config.slo,
    )
    cached = _STANDALONE_CACHE.get(key)
    if cached is not None and cached[1] is job.traffic:
        return cached[0]
    solo = replace(job, priority=Priority.HIGH)
    result = run_colocation("Ideal", [solo], config)
    job_result = next(iter(result.jobs.values()))
    while len(_STANDALONE_CACHE) >= _STANDALONE_CACHE_MAX:
        _STANDALONE_CACHE.pop(next(iter(_STANDALONE_CACHE)))
    _STANDALONE_CACHE[key] = (job_result, job.traffic)
    return job_result


def clear_standalone_cache() -> None:
    """Drop cached standalone baselines (tests use this)."""
    _STANDALONE_CACHE.clear()
