"""Cluster control plane: placements, arrivals, failures, live migration.

This is the one way to run a cluster.  Started from a placement and
left alone, it answers "does this packing meet SLAs in steady state?"
(:func:`run_controlplane` with ``placement=``).  It also answers the
question a production fleet actually faces: jobs arrive and depart
online, devices crash / throttle / flap, and the packed cluster must
keep its latency-critical tenants alive through all of it.

One :class:`ClusterController` drives one device shard per simulated
GPU — a :class:`~repro.gpu.device.GPUDevice`, its own sharing-policy
instance and the workload drivers placed there — each on its own event
loop in a :class:`~repro.cluster.parallel.ClusterShardDomain`.  The
controller's loop holds only control events; it reaches the shards
through the shard engine's op protocol (:mod:`repro.engine`): every
shard advances exactly to each control event, in-process or, with
``engine="parallel"`` and ``workers > 1``, in worker processes.  On
top of the shards it runs:

* **admission control** — arriving jobs are first-fit placed under the
  same compute-budget / memory / one-HP-per-GPU constraints as
  :func:`~repro.cluster.placement.packed_placement`; jobs that fit
  nowhere wait in a bounded queue (backpressure) and are shed beyond it;
* **failure handling** — the seeded device-fault schedule
  (:meth:`~repro.faults.FaultInjector.device_fault_schedule`) drives
  three fault kinds: a *crash* triggers reactive failover, a *degrade*
  window slows the device (:meth:`~repro.gpu.device.GPUDevice.set_speed_factor`)
  and is ridden through, and *flapping* past ``flap_threshold``
  transitions quarantines the device and proactively migrates its
  latency-critical tenants;
* **checkpoint/restore live migration** — the driver pauses
  (:meth:`~repro.workloads.InferenceJob.checkpoint`: cancel timers,
  requeue the in-flight request, bump the stale-completion epoch), the
  source policy disconnects the client (killing resident launches), the
  frozen driver moves to the target shard
  (:meth:`~repro.workloads.InferenceJob.freeze_state`), and after
  ``migration_downtime`` simulated seconds it resumes there.  Arrivals
  keep queueing throughout, so no admitted request is lost — the
  migration-conservation invariant
  (:func:`~repro.check.check_request_conservation`) audits exactly that;
* **re-pack on failover** — when a displaced high-priority tenant fits
  nowhere, best-effort tenants are migrated (or, as a last resort,
  evicted) to make room;
* **graceful drain** — :meth:`ClusterController.drain` migrates every
  tenant off a device for scale-down;
* **load-driven autoscaling** — with ``autoscale=`` an
  :class:`AutoscalerConfig` and ``standby=`` spare devices, a periodic
  tick reads two load signals (admission-queue depth and the worst
  windowed p99-vs-SLO ratio across latency-critical tenants) through
  consecutive-tick hysteresis: sustained overload activates a standby
  shard after a seeded warm-up delay; sustained calm gracefully drains
  the least-loaded elastic shard back to standby.  Every committed
  decision emits a :class:`~repro.trace.ScaleDecision` event.

Everything is deterministic: fault schedules come from seeded sub-RNGs,
arrival times from a seeded draw, and all control decisions are
functions of event-loop state — a fixed seed replays bit-identically,
with the shards in-process or in worker processes.  See
``docs/cluster.md`` for the full semantics.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, fields

from ..check import ServiceLedger, check_request_conservation
from ..engine import CommitTracer, InlineBackend, Op, ProcessBackend
from ..errors import HarnessError
from ..faults import DeviceFaultEvent, FaultConfig, FaultInjector
from ..gpu import EventLoop
from ..harness import JobSpec, RunConfig, standalone
from ..metrics import LatencySummary
from ..metrics.recovery import RecoveryReport, ServiceRecovery
from .. import trace
from ..trace import NULL_TRACER, Tracer
from ..workloads.memory import A100_MEMORY_BYTES
from .parallel import ClusterShardProgram
from .placement import ClusterJob, Placement
from .simulate import ClusterResult, ServiceOutcome, _tail_p99, _to_jobspec

__all__ = [
    "AutoscalerConfig",
    "ClusterController",
    "run_controlplane",
    "schedule_arrivals",
]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Hysteresis parameters for the load-signal autoscaler.

    The controller samples two signals every ``interval`` simulated
    seconds: the admission-queue depth and the worst ratio of windowed
    p99 latency to the SLO threshold (``sla_factor`` × standalone p99)
    across live latency-critical tenants.  A tick is *overloaded* when
    either signal is at or above its high-water mark, *calm* when both
    are at or below the low-water marks; anything in between resets the
    hysteresis counters.  ``up_ticks`` consecutive overloaded ticks
    activate a standby device (after a seeded warm-up delay drawn
    uniformly from ``[warmup_min, warmup_max]``); ``down_ticks``
    consecutive calm ticks gracefully drain the least-loaded elastic
    device back to standby.  ``cooldown`` simulated seconds must pass
    between committed decisions.
    """

    interval: float = 0.25
    queue_high: int = 2
    queue_low: int = 0
    p99_high: float = 1.0
    p99_low: float = 0.5
    #: latency-sample lookback for the p99 signal, seconds
    signal_window: float = 0.5
    up_ticks: int = 2
    down_ticks: int = 4
    cooldown: float = 0.5
    warmup_min: float = 0.1
    warmup_max: float = 0.3
    #: never drain below this many accepting (or warming) devices
    min_active: int = 1

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise HarnessError("autoscaler interval must be > 0")
        if self.queue_low > self.queue_high:
            raise HarnessError("queue_low must be <= queue_high")
        if self.p99_low > self.p99_high:
            raise HarnessError("p99_low must be <= p99_high")
        if self.signal_window <= 0:
            raise HarnessError("signal_window must be > 0")
        if self.up_ticks < 1 or self.down_ticks < 1:
            raise HarnessError("hysteresis tick counts must be >= 1")
        if not 0 <= self.warmup_min <= self.warmup_max:
            raise HarnessError(
                "need 0 <= warmup_min <= warmup_max")
        if self.cooldown < 0:
            raise HarnessError("cooldown must be >= 0")
        if self.min_active < 1:
            raise HarnessError("min_active must be >= 1")

    @staticmethod
    def parse(spec: str) -> "AutoscalerConfig":
        """Build a config from a ``key=value,key=value`` CLI string."""
        known = {f.name: f for f in fields(AutoscalerConfig)}
        int_keys = {"queue_high", "queue_low", "up_ticks", "down_ticks",
                    "min_active"}
        values: dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise HarnessError(
                    f"bad --autoscale entry {part!r}; known keys: "
                    f"{', '.join(sorted(known))}")
            try:
                values[key] = (int(raw) if key in int_keys
                               else float(raw))
            except ValueError:
                raise HarnessError(
                    f"bad --autoscale value {raw!r} for {key}") from None
        return AutoscalerConfig(**values)  # type: ignore[arg-type]


def schedule_arrivals(count: int, rate: float, *, seed: int = 0) -> list[float]:
    """Seeded Poisson arrival times for ``count`` online jobs.

    Drawn from a dedicated sub-RNG (``{seed}/arrivals``) so the job
    arrival process never interleaves with any other randomness source.
    """
    if rate <= 0:
        raise HarnessError(f"arrival rate must be > 0, got {rate!r}")
    rng = random.Random(f"{seed}/arrivals")
    times: list[float] = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        times.append(t)
    return times


@dataclass
class _Tenant:
    """One admitted job and its live bookkeeping."""

    job: ClusterJob
    spec: JobSpec
    client_id: str
    role: str               # "inference" | "training" | "llm"
    demand: float
    memory: int
    device: int             # current (or last) device index; -1 if evicted
    admitted_at: float
    evicted: bool = False
    departed: bool = False
    migrations: int = 0
    downtime: float = 0.0
    restored_at: float | None = None
    #: set while checkpointed and off-device (downtime accrues from here)
    paused_since: float | None = None
    #: bumped per migration leg; stale restore events check it
    move_seq: int = 0

    @property
    def latency_critical(self) -> bool:
        return self.job.latency_critical


class _ShardState:
    """The controller's view of one shard: placement truth, no simulation.

    This is everything admission control, migration targeting and the
    autoscaler read or write.  The live device runs in a
    :class:`~repro.cluster.parallel.ClusterShardDomain` on the shard
    engine and is reached only through ops.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.alive = True
        #: False while draining or quarantined — no new admissions
        self.accepting = True
        #: part of the autoscaler's elastic pool (starts not accepting)
        self.standby = False
        #: scale-up committed, warm-up delay still running
        self.warming = False
        self.demand = 0.0
        self.memory = 0
        self.has_high = False
        self.tenants: dict[str, _Tenant] = {}
        self.flap_transitions = 0

    def add(self, tenant: _Tenant) -> None:
        self.tenants[tenant.client_id] = tenant
        self.demand += tenant.demand
        self.memory += tenant.memory
        if tenant.latency_critical:
            self.has_high = True

    def remove(self, tenant: _Tenant) -> None:
        self.tenants.pop(tenant.client_id, None)
        self.demand -= tenant.demand
        self.memory -= tenant.memory
        if tenant.latency_critical:
            self.has_high = any(t.latency_critical
                                for t in self.tenants.values())

    def fits(self, tenant_demand: float, tenant_memory: int,
             is_high: bool, *, budget: float, capacity: int) -> bool:
        if not (self.alive and self.accepting):
            return False
        if is_high and self.has_high:
            return False
        if self.demand + tenant_demand > budget:
            return False
        return self.memory + tenant_memory <= capacity


class ClusterController:
    """Event-driven control plane over ``devices`` shards.

    Build one, then :meth:`run` it; or use :func:`run_controlplane`.
    The controller's own :class:`~repro.gpu.engine.EventLoop` holds only
    control events (arrivals, device faults, drains, restores,
    autoscaler ticks).  Each device runs in a
    :class:`~repro.cluster.parallel.ClusterShardDomain` on the shard
    engine (:mod:`repro.engine`) and is reached only through
    timestamped ops.  Every shard advances exactly to each control
    event; ``engine="parallel"`` with ``workers > 1`` runs the shards
    in that many worker processes, otherwise they run in-process.
    Both commit bit-identical results.
    """

    def __init__(self, jobs: list[ClusterJob], devices: int, *,
                 engine: str = "serial",
                 workers: int = 0,
                 policy: str = "Tally",
                 config: RunConfig | None = None,
                 placement: Placement | None = None,
                 arrival_rate: float | None = None,
                 faults: FaultConfig | None = None,
                 fail_device: tuple[tuple[int, float], ...] = (),
                 drain: tuple[tuple[int, float], ...] = (),
                 tracer: Tracer | None = None,
                 check: bool = False,
                 compute_budget: float = 1.25,
                 capacity_bytes: int | None = None,
                 admission_limit: int = 8,
                 flap_threshold: int = 3,
                 migration_downtime: float = 0.05,
                 autoscale: AutoscalerConfig | None = None,
                 standby: int = 0) -> None:
        if engine not in ("serial", "parallel"):
            raise HarnessError(
                f"engine must be 'serial' or 'parallel', got {engine!r}")
        if workers < 0:
            raise HarnessError(f"workers must be >= 0, got {workers}")
        if devices < 1:
            raise HarnessError("need at least one device")
        if not jobs:
            raise HarnessError("no jobs to serve")
        if migration_downtime < 0:
            raise HarnessError("migration_downtime must be >= 0")
        if standby < 0 or standby >= devices:
            raise HarnessError(
                f"standby count {standby} must leave at least one of "
                f"{devices} device(s) active")
        if standby > 0 and autoscale is None:
            raise HarnessError(
                "standby devices need autoscale= to ever activate")
        if faults is not None:
            faults.reject_unhonoured(
                "ClusterController",
                "crash a device with fail_device=((index, time),) instead"
                if faults.crash_at is not None else "")
        self.config = config if config is not None else RunConfig(
            duration=6.0, warmup=1.0)
        self.policy_name = policy
        self.jobs = list(jobs)
        self.placement = placement
        self.compute_budget = compute_budget
        self.capacity_bytes = (capacity_bytes if capacity_bytes is not None
                               else A100_MEMORY_BYTES)
        self.admission_limit = admission_limit
        self.flap_threshold = flap_threshold
        self.migration_downtime = migration_downtime
        self.arrival_rate = arrival_rate

        duration = self.config.duration
        for index, when in fail_device:
            if not 0 <= index < devices:
                raise HarnessError(
                    f"--fail-device index {index} outside 0..{devices - 1}")
            if not 0 <= when < duration:
                raise HarnessError(
                    f"--fail-device time {when} outside the run "
                    f"[0, {duration})")
        self.fail_device = tuple(fail_device)
        for index, when in drain:
            if not 0 <= index < devices:
                raise HarnessError(
                    f"drain index {index} outside 0..{devices - 1}")
            if not 0 <= when < duration:
                raise HarnessError(
                    f"drain time {when} for device {index} outside the "
                    f"run [0, {duration})")
        self.drain_schedule = tuple(drain)

        self.engine = EventLoop()
        self.shards = [_ShardState(i) for i in range(devices)]
        self.autoscale = autoscale
        # the LAST `standby` shards form the elastic pool: they accept
        # nothing until a scale-up decision finishes their warm-up
        for shard in self.shards[devices - standby:]:
            shard.standby = True
            shard.accepting = False
        self._scaler_rng = random.Random(
            f"{self.config.trace_seed}/autoscaler")
        self._breach_ticks = 0
        self._calm_ticks = 0
        self._last_scale = float("-inf")
        self.scale_ups = 0
        self.scale_downs = 0

        self._client_counters: Counter[str] = Counter()
        self._tenants: list[_Tenant] = []
        self._admission_queue: deque[tuple[ClusterJob, float]] = deque()
        self._downtimes: list[float] = []
        self.admitted = 0
        self.jobs_shed = 0
        self.jobs_evicted = 0
        self._fault_counts: Counter[str] = Counter()
        self._ran = False

        # shard engine: control events buffer trace output until commit
        self.tracer = self._commit = CommitTracer(
            tracer if tracer is not None else NULL_TRACER)
        self._fault_source = (FaultInjector(faults)
                              if faults is not None else None)
        program = ClusterShardProgram(
            config=self.config, policy=policy, check=bool(check),
            faults=faults, traced=self.tracer.enabled)
        if engine == "parallel" and workers > 1 and devices > 1:
            self._backend = ProcessBackend(program, devices, workers)
        else:
            self._backend = InlineBackend(program, devices)
        self._seq = 0
        #: per-shard events processed, filled in by :meth:`run`
        self.shard_events: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Shard engine plumbing
    # ------------------------------------------------------------------
    def _issue(self, shard_index: int, kind: str, payload=None, *,
               want_result: bool = False):
        """Send one op to a shard at the current control time."""
        self._seq += 1
        return self._backend.op(Op(
            seq=self._seq, shard=shard_index, at=self.engine.now,
            kind=kind, payload=payload, want_result=want_result))

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> ClusterResult:
        """Run the scenario to ``config.duration`` and collect metrics.

        Each round grants the shards the time of the next control event
        (the horizon), commits trace output below it, then runs every
        control event at the horizon; ops they issue land on shards
        sitting exactly there.
        """
        if self._ran:
            raise HarnessError("controller already ran; build a fresh one")
        self._ran = True
        duration = self.config.duration
        backend = self._backend
        backend.start()
        try:
            self._schedule_initial_jobs()
            self._schedule_device_faults()
            engine = self.engine
            for index, when in self.drain_schedule:
                engine.schedule_at(when, lambda i=index: self.drain(i))
            # slot faults are armed inside each shard domain's build
            if self.autoscale is not None:
                engine.schedule_at(self.autoscale.interval,
                                   self._autoscale_tick)
            commit = self._commit
            while True:
                grant = engine.peek_time()
                if grant is None or grant > duration:
                    break
                outputs = backend.advance(grant)
                for index in sorted(outputs):
                    commit.add_shard_events(index, outputs[index])
                commit.commit(grant)
                engine.advance_to(grant, inclusive=True)
            reports, outputs, stats = backend.finalize(duration)
            engine.advance_to(duration)
            for index in sorted(outputs):
                commit.add_shard_events(index, outputs[index])
            commit.close()
            self.shard_events = stats
            return self._collect(reports)
        finally:
            backend.stop()

    def _schedule_initial_jobs(self) -> None:
        if self.placement is not None and self.arrival_rate is None:
            # Static start: every job admitted to its placement bin at
            # t=0 (bin order), then the run continues online.
            for gpu_index, gpu_jobs in enumerate(self.placement.bins):
                for job in gpu_jobs:
                    shard = self.shards[gpu_index]
                    self.engine.schedule_at(
                        0.0, lambda j=job, s=shard: self._admit(j, s))
            return
        if self.arrival_rate is None:
            for job in self.jobs:
                self.engine.schedule_at(
                    0.0, lambda j=job: self._on_job_arrival(j))
            return
        times = schedule_arrivals(len(self.jobs), self.arrival_rate,
                                  seed=self.config.trace_seed)
        for job, when in zip(self.jobs, times):
            if when >= self.config.duration:
                continue  # arrived after the run window; never existed
            self.engine.schedule_at(
                when, lambda j=job: self._on_job_arrival(j))

    def _schedule_device_faults(self) -> None:
        duration = self.config.duration
        if self._fault_source is not None:
            for shard in self.shards:
                for event in self._fault_source.device_fault_schedule(
                        shard.index, duration):
                    self.engine.schedule_at(
                        min(event.time, duration),
                        lambda s=shard, e=event: self._on_device_fault(s, e))
        for index, when in self.fail_device:
            shard = self.shards[index]
            crash = DeviceFaultEvent(when, "crash")
            self.engine.schedule_at(
                when, lambda s=shard, e=crash: self._on_device_fault(s, e))

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _find_shard(self, job_demand: float, job_memory: int,
                    is_high: bool, *,
                    exclude: "_ShardState | None" = None
                    ) -> "_ShardState | None":
        for shard in self.shards:
            if shard is exclude:
                continue
            if shard.fits(job_demand, job_memory, is_high,
                          budget=self.compute_budget,
                          capacity=self.capacity_bytes):
                return shard
        return None

    def _on_job_arrival(self, job: ClusterJob) -> None:
        shard = self._find_shard(job.demand(self.config.spec), job.memory(),
                                 job.latency_critical)
        if shard is not None:
            self._admit(job, shard)
            return
        if len(self._admission_queue) < self.admission_limit:
            self._admission_queue.append((job, self.engine.now))
            self._emit_admission(job.model, "queued")
            return
        self.jobs_shed += 1
        self._emit_admission(job.model, "shed")

    def _drain_admission_queue(self) -> None:
        """Capacity freed: try to admit queued jobs, FIFO."""
        admitted_any = True
        while admitted_any and self._admission_queue:
            admitted_any = False
            job, _arrived = self._admission_queue[0]
            shard = self._find_shard(job.demand(self.config.spec),
                                     job.memory(), job.latency_critical)
            if shard is not None:
                self._admission_queue.popleft()
                self._admit(job, shard)
                admitted_any = True

    def _admit(self, job: ClusterJob, shard: _ShardState) -> None:
        spec = _to_jobspec(job)
        n = self._client_counters[job.model]
        self._client_counters[job.model] += 1
        client_id = f"{job.model}#{n}"
        now = self.engine.now
        if job.depart_at is not None and spec.role == "llm":
            raise HarnessError(
                f"LLM tenant {job.model!r}: depart_at is not supported "
                "(LLM endpoints have no graceful-close surface yet)")
        self._issue(shard.index, "admit", (client_id, spec))
        tenant = _Tenant(
            job=job, spec=spec, client_id=client_id,
            role=spec.role, demand=job.demand(self.config.spec),
            memory=job.memory(), device=shard.index, admitted_at=now,
        )
        shard.add(tenant)
        self._tenants.append(tenant)
        self.admitted += 1
        self._emit_admission(client_id, "admitted", device=shard.index)
        self._issue(shard.index, "start", client_id)
        if job.depart_at is not None:
            self.engine.schedule_at(max(now, job.depart_at),
                                    lambda t=tenant: self._depart(t))

    def _emit_admission(self, client_id: str, action: str, *,
                        device: int = -1) -> None:
        if self.tracer.enabled:
            self.tracer.emit(trace.AdmissionDecision(
                ts=self.engine.now, client_id=client_id, kernel="",
                action=action, device=device,
                queue_depth=len(self._admission_queue),
            ))

    def _depart(self, tenant: _Tenant) -> None:
        """Graceful online departure: drain the tenant, free capacity."""
        if tenant.evicted or tenant.departed:
            return
        tenant.departed = True
        self._issue(tenant.device, "depart", tenant.client_id)
        shard = self.shards[tenant.device]
        if tenant.client_id in shard.tenants:
            shard.remove(tenant)
        self._drain_admission_queue()

    # ------------------------------------------------------------------
    # Device faults
    # ------------------------------------------------------------------
    def _on_device_fault(self, shard: _ShardState,
                         event: DeviceFaultEvent) -> None:
        if not shard.alive:
            return  # the device is already dead; nothing left to break
        self._fault_counts[f"device_{event.kind}"] += 1
        if self.tracer.enabled:
            self.tracer.emit(trace.DeviceFault(
                ts=self.engine.now, client_id="", kernel="",
                device=shard.index, fault=event.kind,
                factor=event.factor, flapping=event.flapping,
            ))
        if event.kind == "crash":
            self._fail_device(shard)
        elif event.kind == "degrade":
            self._issue(shard.index, "speed", event.factor)
            if event.flapping:
                shard.flap_transitions += 1
                if (shard.flap_transitions >= self.flap_threshold
                        and shard.accepting):
                    self._quarantine(shard)
        elif event.kind == "recover":
            self._issue(shard.index, "speed", 1.0)

    def _fail_device(self, shard: _ShardState) -> None:
        """Reactive failover: the device died, everyone must move."""
        shard.alive = False
        shard.accepting = False
        # Latency-critical tenants recover first: they contend for the
        # same spare capacity as the best-effort re-pack that follows.
        tenants = sorted(shard.tenants.values(),
                         key=lambda t: 0 if t.latency_critical else 1)
        for tenant in tenants:
            reason = "failover" if tenant.latency_critical else "repack"
            self._migrate(tenant, shard, reason=reason)
        self._drain_admission_queue()

    def _quarantine(self, shard: _ShardState) -> None:
        """A flapping device is unstable: stop admissions, move HP off.

        Best-effort tenants stay — they tolerate the slow windows, and
        moving them would churn the rest of the fleet.
        """
        shard.accepting = False
        # a flapping device leaves the elastic pool for good: the
        # autoscaler must never re-activate what quarantine fenced off
        shard.standby = False
        for tenant in [t for t in shard.tenants.values()
                       if t.latency_critical]:
            self._migrate(tenant, shard, reason="flapping")

    def drain(self, device_index: int) -> None:
        """Gracefully drain a device for scale-down: migrate everyone."""
        shard = self.shards[device_index]
        if not shard.alive:
            return
        shard.accepting = False
        tenants = sorted(shard.tenants.values(),
                         key=lambda t: 0 if t.latency_critical else 1)
        migrated = 0
        for tenant in tenants:
            self._migrate(tenant, shard, reason="drain")
            if not tenant.evicted and tenant.device != shard.index:
                migrated += 1
        if self.tracer.enabled:
            self.tracer.emit(trace.DeviceDrain(
                ts=self.engine.now, client_id="", kernel="",
                device=shard.index, migrated=migrated,
            ))

    # ------------------------------------------------------------------
    # Load-signal autoscaling
    # ------------------------------------------------------------------
    def _active_count(self) -> int:
        """Devices serving or committed to serve (warm-up counts)."""
        return sum(1 for s in self.shards
                   if s.alive and (s.accepting or s.warming))

    def _p99_pressure(self, now: float) -> float:
        """Worst windowed p99-vs-SLO ratio across live HP tenants.

        1.0 means the worst tenant's recent p99 sits exactly at its SLO
        threshold (``sla_factor`` × standalone p99); tenants with no
        completions inside the window contribute nothing — an empty
        window is silence, not breach (queue depth covers total stall).
        """
        since = max(0.0, now - self.autoscale.signal_window)
        live = [t for t in self._tenants
                if not (t.evicted or t.departed) and t.latency_critical]
        by_shard: dict[int, list[str]] = {}
        for tenant in live:
            by_shard.setdefault(tenant.device, []).append(tenant.client_id)
        latencies: dict[str, list[float]] = {}
        for index in sorted(by_shard):
            latencies.update(self._backend.query(
                index, "tails", (by_shard[index], since, now)))
        worst = 0.0
        for tenant in live:
            window = latencies[tenant.client_id]
            if not window:
                continue
            baseline_tail = _tail_p99(standalone(tenant.spec, self.config))
            threshold = tenant.job.sla_factor * baseline_tail
            if not 0 < threshold < float("inf"):
                continue
            worst = max(worst, LatencySummary.of(window).p99 / threshold)
        return worst

    def _autoscale_tick(self) -> None:
        cfg = self.autoscale
        now = self.engine.now
        if now + cfg.interval < self.config.duration:
            self.engine.schedule_at(now + cfg.interval,
                                    self._autoscale_tick)
        queue_depth = len(self._admission_queue)
        pressure = self._p99_pressure(now)
        if queue_depth >= cfg.queue_high or pressure >= cfg.p99_high:
            self._breach_ticks += 1
            self._calm_ticks = 0
        elif queue_depth <= cfg.queue_low and pressure <= cfg.p99_low:
            self._calm_ticks += 1
            self._breach_ticks = 0
        else:
            self._breach_ticks = 0
            self._calm_ticks = 0
        if now - self._last_scale < cfg.cooldown:
            return
        if self._breach_ticks >= cfg.up_ticks:
            reason = ("queue-depth" if queue_depth >= cfg.queue_high
                      else "p99-over-slo")
            self._scale_up(reason, queue_depth)
        elif self._calm_ticks >= cfg.down_ticks:
            self._scale_down(queue_depth)

    def _scale_up(self, reason: str, queue_depth: int) -> None:
        spare = next((s for s in self.shards
                      if s.standby and s.alive
                      and not s.accepting and not s.warming), None)
        if spare is None:
            return  # elastic pool exhausted; keep riding the breach
        cfg = self.autoscale
        now = self.engine.now
        spare.warming = True
        self.scale_ups += 1
        self._breach_ticks = 0
        self._last_scale = now
        if self.tracer.enabled:
            self.tracer.emit(trace.ScaleDecision(
                ts=now, client_id="", kernel="",
                action="scale_up", device=spare.index,
                active=self._active_count(), reason=reason,
                queue_depth=queue_depth,
            ))
        delay = cfg.warmup_min + self._scaler_rng.uniform(
            0.0, cfg.warmup_max - cfg.warmup_min)
        self.engine.schedule_at(now + delay,
                                lambda s=spare: self._finish_warmup(s))

    def _finish_warmup(self, shard: _ShardState) -> None:
        shard.warming = False
        if not shard.alive:
            return  # crashed mid-warm-up; the pool lost a spare
        shard.accepting = True
        self._drain_admission_queue()

    def _scale_down(self, queue_depth: int) -> None:
        cfg = self.autoscale
        if self._active_count() <= cfg.min_active:
            return
        # only elastic-pool shards drain back; the base fleet is fixed
        candidates = [s for s in self.shards
                      if s.standby and s.alive and s.accepting]
        if not candidates:
            return
        victim = min(candidates, key=lambda s: (s.demand, s.index))
        now = self.engine.now
        self.scale_downs += 1
        self._calm_ticks = 0
        self._last_scale = now
        if self.tracer.enabled:
            self.tracer.emit(trace.ScaleDecision(
                ts=now, client_id="", kernel="",
                action="scale_down", device=victim.index,
                active=self._active_count() - 1, reason="idle",
                queue_depth=queue_depth,
            ))
        self.drain(victim.index)

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------
    def _migrate(self, tenant: _Tenant, source: _ShardState, *,
                 reason: str) -> None:
        now = self.engine.now
        if tenant.role == "llm":
            # LLM endpoints have no driver-level checkpoint surface
            # (the continuous-batching state does not freeze).  On a
            # dead device the endpoint is lost; on a draining/flapping
            # one it rides out.
            if not source.alive:
                self._evict(tenant, source)
            return
        if tenant.paused_since is None:
            tenant.paused_since = now
        tenant.move_seq += 1
        # pause the driver and disconnect it from the source policy; an
        # inference driver reports the requests it still holds
        pending = self._issue(
            source.index, "detach", tenant.client_id,
            want_result=tenant.role == "inference") or 0
        source.remove(tenant)
        if tenant.departed and tenant.role == "training":
            # A stopped trainer has nothing left to run; don't re-place.
            return
        target = self._find_shard(tenant.demand, tenant.memory,
                                  tenant.latency_critical, exclude=source)
        if target is None and tenant.latency_critical:
            target = self._make_room(tenant, exclude=source)
        if self.tracer.enabled:
            self.tracer.emit(trace.MigrationStart(
                ts=now, client_id=tenant.client_id, kernel="",
                source=source.index,
                target=target.index if target is not None else -1,
                reason=reason, pending=pending,
            ))
        if target is None:
            self._evict(tenant, source)
            return
        # the frozen driver moves from source to target
        frozen = self._issue(source.index, "export", tenant.client_id,
                             want_result=True)
        self._issue(target.index, "import",
                    (tenant.client_id, tenant.spec, frozen))
        target.add(tenant)
        tenant.device = target.index
        seq = tenant.move_seq
        self.engine.schedule_at(
            now + self.migration_downtime,
            lambda: self._complete_restore(tenant, target, seq))

    def _make_room(self, tenant: _Tenant,
                   exclude: _ShardState) -> "_ShardState | None":
        """Re-pack: displace best-effort tenants so a HP tenant fits.

        Scans healthy shards for one whose best-effort tenants, moved
        elsewhere (or evicted as a last resort — priority means
        something), free enough compute and memory for ``tenant``.
        """
        for shard in self.shards:
            if shard is exclude or not (shard.alive and shard.accepting):
                continue
            if shard.has_high and tenant.latency_critical:
                continue
            victims: list[_Tenant] = []
            demand = shard.demand
            memory = shard.memory
            for candidate in sorted(
                    (t for t in shard.tenants.values()
                     if not t.latency_critical),
                    key=lambda t: t.demand):
                if (demand + tenant.demand <= self.compute_budget
                        and memory + tenant.memory <= self.capacity_bytes):
                    break
                victims.append(candidate)
                demand -= candidate.demand
                memory -= candidate.memory
            if (demand + tenant.demand > self.compute_budget
                    or memory + tenant.memory > self.capacity_bytes):
                continue  # even emptying the BE tenants wouldn't fit
            for victim in victims:
                self._migrate(victim, shard, reason="repack")
            return shard
        return None

    def _complete_restore(self, tenant: _Tenant, target: _ShardState,
                          seq: int) -> None:
        if tenant.evicted or seq != tenant.move_seq:
            return  # superseded by a later migration leg (or eviction)
        if not target.alive:
            # The target died inside the downtime window; the crash
            # handler has already re-migrated the checkpointed tenant.
            return
        downtime = self.engine.now - (tenant.paused_since
                                      if tenant.paused_since is not None
                                      else self.engine.now)
        self._issue(target.index, "restore", tenant.client_id)
        tenant.paused_since = None
        tenant.restored_at = self.engine.now
        tenant.downtime += downtime
        tenant.migrations += 1
        self._downtimes.append(downtime)
        if self.tracer.enabled:
            self.tracer.emit(trace.MigrationComplete(
                ts=self.engine.now, client_id=tenant.client_id, kernel="",
                target=target.index, downtime=downtime,
            ))

    def _evict(self, tenant: _Tenant, owner: _ShardState) -> None:
        """No capacity anywhere: the tenant dies, its work is shed."""
        tenant.evicted = True
        tenant.device = -1
        self.jobs_evicted += 1
        self._issue(owner.index, "evict", tenant.client_id)
        owner.remove(tenant)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(self, reports: dict) -> ClusterResult:
        """Build the result from the shards' final reports.

        ``reports`` maps shard index to
        :meth:`~repro.cluster.parallel.ClusterShardDomain.finalize`
        output.
        """
        config = self.config
        start, end = config.window
        span = end - start
        clients = {client_id: data
                   for report in reports.values()
                   for client_id, data in report["clients"].items()}
        ledgers: dict[str, ServiceLedger] = {}
        for tenant in self._tenants:
            counts = clients[tenant.client_id]["ledger"]
            if counts is not None:
                arrivals, completed, pending, shed = counts
                ledgers[tenant.client_id] = ServiceLedger(
                    client_id=tenant.client_id, arrivals=arrivals,
                    completed=completed, pending=pending, shed=shed)
        audits = check_request_conservation(ledgers.values())
        services: list[ServiceOutcome] = []
        recoveries: list[ServiceRecovery] = []
        total_throughput = 0.0
        requests_shed = sum(ledger.shed for ledger in ledgers.values())
        for tenant in self._tenants:
            data = clients[tenant.client_id]
            baseline = standalone(tenant.spec, config)
            if baseline.rate > 0:
                total_throughput += (data["completed"] / span) / baseline.rate
            if not tenant.latency_critical:
                continue
            baseline_tail = _tail_p99(baseline)
            # (window key, latency) pairs: completion or first-token time
            pairs = data["lat"] or []
            latencies = [lat for key, lat in pairs if start <= key < end]
            tail = (LatencySummary.of(latencies).p99 if latencies
                    else float("inf"))  # zero completions: worst outcome
            threshold = tenant.job.sla_factor * baseline_tail
            attainment = (sum(1 for lat in latencies if lat <= threshold)
                          / len(latencies) if latencies else float("nan"))
            if tenant.restored_at is not None:
                post = [lat for key, lat in pairs
                        if tenant.restored_at <= key < end]
                post_attainment = (
                    sum(1 for lat in post if lat <= threshold) / len(post)
                    if post else float("nan"))
            else:
                post_attainment = float("nan")
            services.append(ServiceOutcome(
                model=tenant.job.model,
                gpu=tenant.device,
                p99_ratio=tail / baseline_tail,
                sla_factor=tenant.job.sla_factor,
            ))
            recoveries.append(ServiceRecovery(
                client_id=tenant.client_id,
                model=tenant.job.model,
                device=tenant.device,
                migrations=tenant.migrations,
                downtime=tenant.downtime,
                slo_attainment=attainment,
                post_recovery_attainment=post_attainment,
                evicted=tenant.evicted,
            ))
        for report in reports.values():
            self._fault_counts.update(report["injected"])
        shard_checks = sum(report["checks_run"]
                           for report in reports.values())
        events = (self.engine.events_processed
                  + sum(self.shard_events.values()))
        report = RecoveryReport(
            services=tuple(recoveries),
            migrations=len(self._downtimes),
            jobs_shed=self.jobs_shed,
            jobs_evicted=self.jobs_evicted,
            requests_shed=requests_shed,
            mttr=(sum(self._downtimes) / len(self._downtimes)
                  if self._downtimes else float("nan")),
            device_faults=dict(self._fault_counts),
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
        )
        return ClusterResult(
            policy=self.policy_name,
            gpus_used=len(self.shards),
            services=services,
            total_normalized_throughput=total_throughput,
            events=events,
            recovery=report,
            invariant_checks=audits + shard_checks,
        )


def run_controlplane(jobs: list[ClusterJob] | None = None,
                     devices: int | None = None, *,
                     placement: Placement | None = None,
                     policy: str = "Tally",
                     config: RunConfig | None = None,
                     arrival_rate: float | None = None,
                     faults: FaultConfig | None = None,
                     fail_device: tuple[tuple[int, float], ...] = (),
                     drain: tuple[tuple[int, float], ...] = (),
                     tracer: Tracer | None = None,
                     check: bool = False,
                     compute_budget: float = 1.25,
                     capacity_bytes: int | None = None,
                     admission_limit: int = 8,
                     flap_threshold: int = 3,
                     migration_downtime: float = 0.05,
                     autoscale: AutoscalerConfig | None = None,
                     standby: int = 0,
                     engine: str = "serial",
                     workers: int = 0) -> ClusterResult:
    """Run one control-plane scenario and return its result.

    Two entry shapes:

    * ``placement=`` — evaluate a validated (e.g. packed) placement:
      every job begins on its assigned device at t=0 and the run
      continues online from there.  Without faults, drains or an
      autoscaler that is the static evaluation (each bin runs as one
      co-location); with them, the failover scenario;
    * ``jobs=`` + ``devices=`` — fully online: jobs are admitted
      first-fit as they arrive (all at t=0, or Poisson-spaced when
      ``arrival_rate`` is given).

    Every device shard advances exactly to each control event on the
    shard engine (:mod:`repro.engine`); ``engine="parallel"`` runs the
    shards in ``workers`` processes (``workers<=1`` stays in-process).
    Committed results are bit-identical between the two.
    """
    if placement is not None:
        job_list = placement.jobs()
        device_count = placement.gpus_used if devices is None else devices
    else:
        if jobs is None or devices is None:
            raise HarnessError(
                "run_controlplane needs either placement= or jobs= and "
                "devices=")
        job_list = list(jobs)
        device_count = devices
    controller = ClusterController(
        job_list, device_count, policy=policy, config=config,
        placement=placement if arrival_rate is None else None,
        arrival_rate=arrival_rate, faults=faults,
        fail_device=fail_device, drain=drain, tracer=tracer, check=check,
        compute_budget=compute_budget, capacity_bytes=capacity_bytes,
        admission_limit=admission_limit, flap_threshold=flap_threshold,
        migration_downtime=migration_downtime,
        autoscale=autoscale, standby=standby,
        engine=engine, workers=workers,
    )
    return controller.run()
