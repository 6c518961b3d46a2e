"""Device shards of the cluster control plane.

Every :class:`~repro.cluster.controlplane.ClusterController` run keeps
its device shards here, on the shard engine in :mod:`repro.engine`:
each shard (device + policy + drivers) lives in its own
:class:`ClusterShardDomain` with a private event loop, while the
controller keeps the *decision* half (admission, migration targeting,
autoscaling) and reaches a shard only through timestamped ops
(``apply``), read-only queries (``query``) and the end-of-run
``finalize``.  This module is the one place in the cluster where
devices and policies are built; drivers come from the same factory as
a single-GPU run's (:func:`~repro.harness.colocate.make_driver`).

The controller's loop holds only control events, so its next event
time is a *horizon*: every shard runs exclusively up to it and no
further, so each op lands on a shard sitting exactly at its time.
``engine="parallel"`` with ``workers > 1`` advances the shards to each
horizon in worker processes.  Committed metrics, trace summaries and
invariant audits are bit-identical between the inline and process
backends; see ``docs/performance.md`` for measured speedups.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..check import InvariantChecker
from ..engine.shard import ShardProgram
from ..engine.sync import ShardBuffer
from ..errors import HarnessError
from ..faults import FaultConfig, FaultInjector, arm_slot_faults
from ..gpu import EventLoop, GPUDevice
from ..harness import JobSpec, RunConfig
from ..harness.colocate import job_inputs, make_driver, make_policy
from ..trace import NULL_TRACER
from ..workloads import InferenceJob, TrainingJob

__all__ = [
    "ClusterShardDomain",
    "ClusterShardProgram",
]


@dataclass(frozen=True)
class ClusterShardProgram(ShardProgram):
    """Picklable genesis for one cluster shard (configs only)."""

    config: RunConfig
    policy: str
    check: bool
    faults: FaultConfig | None
    traced: bool

    def build(self, index: int) -> "ClusterShardDomain":
        return ClusterShardDomain(index, self)


class ClusterShardDomain:
    """One simulated GPU: device, policy, drivers.

    Implements the engine's domain contract (``loop`` / ``apply`` /
    ``query`` / ``outputs`` / ``finalize``).  Each op kind is one
    controller-side action on the shard, applied at its simulated
    instant.
    """

    def __init__(self, index: int, program: ClusterShardProgram) -> None:
        self.index = index
        config = self.config = program.config
        self.loop = EventLoop()
        self.outputs = ShardBuffer()
        tracer = self.outputs if program.traced else NULL_TRACER
        self.checker = InvariantChecker() if program.check else None
        self.injector = (FaultInjector(program.faults)
                         if program.faults is not None else None)
        self.device = GPUDevice(
            config.spec, self.loop,
            colocation_slowdown=config.colocation_slowdown,
            tracer=tracer, check=self.checker, faults=self.injector,
        )
        self.policy = make_policy(program.policy, self.device, self.loop,
                                  tally_config=config.tally_config)
        self.drivers: dict[str, object] = {}
        self.roles: dict[str, str] = {}
        if (program.faults is not None
                and program.faults.slot_fault_rate > 0):
            arm_slot_faults(self.device, self.loop, self.injector,
                            config.duration, tracer=tracer)

    # -- engine contract -----------------------------------------------
    def apply(self, kind: str, payload, at: float):
        if kind == "admit":
            client_id, spec = payload
            self.drivers[client_id] = make_driver(spec, self.config,
                                                  self.policy, client_id)
            self.roles[client_id] = spec.role
            return None
        if kind == "start":
            driver = self.drivers[payload]
            if self.roles[payload] == "training":
                driver.start()
            else:
                driver.start(since=at)
            return None
        if kind == "depart":
            driver = self.drivers[payload]
            if self.roles[payload] == "training":
                driver.stop()
            else:
                driver.close()
            return None
        if kind == "speed":
            self.device.set_speed_factor(payload)
            return None
        if kind == "detach":
            # pause the driver, then kill its launches on this device;
            # an inference driver reports the requests it still holds
            driver = self.drivers[payload]
            driver.checkpoint()
            self.policy.disconnect(payload)
            if self.roles[payload] == "inference":
                return driver.pending_requests
            return 0
        if kind == "export":
            # freezing cancels the pending arrival, so only a driver
            # that really leaves is frozen
            self.roles.pop(payload)
            return self.drivers.pop(payload).freeze_state()
        if kind == "import":
            client_id, spec, frozen = payload
            self.drivers[client_id] = _thaw_driver(self.config, spec,
                                                   self.policy, frozen)
            self.roles[client_id] = spec.role
            return None
        if kind == "restore":
            self.drivers[payload].restore(self.policy)
            return None
        if kind == "evict":
            self.drivers[payload].crash()
            self.policy.disconnect(payload)
            return None
        raise HarnessError(f"unknown shard op {kind!r}")

    def query(self, kind: str, payload):
        if kind == "tails":
            client_ids, since, until = payload
            return {cid: self._window_latencies(cid, since, until)
                    for cid in client_ids}
        raise HarnessError(f"unknown shard query {kind!r}")

    def finalize(self, at: float) -> dict:
        self.loop.run_until(at)
        start, end = self.config.window
        clients: dict[str, dict] = {}
        for client_id, driver in self.drivers.items():
            clients[client_id] = {
                "ledger": self._ledger_fields(client_id),
                "completed": driver.completions_in(start, end),
                "lat": self._latency_samples(client_id),
            }
        return {
            "clients": clients,
            "injected": (dict(self.injector.injected)
                         if self.injector is not None else {}),
            "checks_run": (self.checker.checks_run
                           if self.checker is not None else 0),
        }

    # -- read-outs ------------------------------------------------------
    def _window_latencies(self, client_id: str, since: float,
                          until: float) -> list[float]:
        driver = self.drivers[client_id]
        if self.roles[client_id] == "inference":
            return driver.latencies(since=since, until=until)
        return [r.ttft for r in driver.requests
                if r.first_token is not None
                and since <= r.first_token < until]

    def _latency_samples(self, client_id: str):
        """Raw ``(window key, latency)`` pairs for coordinator windowing."""
        driver = self.drivers[client_id]
        role = self.roles[client_id]
        if role == "inference":
            return [(r.completed, r.latency) for r in driver.records]
        if role == "llm":
            return [(r.first_token, r.ttft) for r in driver.requests
                    if r.first_token is not None]
        return None

    def _ledger_fields(self, client_id: str):
        """(arrivals, completed, pending, shed) of one service.

        For LLM endpoints, evictions, TTFT-deadline sheds and work
        stranded by a device crash all count as shed.
        """
        driver = self.drivers[client_id]
        role = self.roles[client_id]
        if role == "inference":
            return (driver.arrivals_total, len(driver.records),
                    driver.pending_requests, driver.shed_requests)
        if role == "llm":
            arrivals = len(driver.requests)
            completed = sum(1 for r in driver.requests if r.completed)
            dropped = sum(1 for r in driver.requests
                          if r.evicted or r.deadline_shed)
            pending = driver.pending_requests
            stranded = arrivals - completed - dropped - pending
            return (arrivals, completed, pending, dropped + stranded)
        return None


def _thaw_driver(config: RunConfig, spec: JobSpec, policy, frozen: dict):
    """Rebuild a frozen driver on the target shard's loop.

    The trace and traffic are regenerated from (config, spec) exactly
    as :func:`~repro.harness.colocate.make_driver` builds them — both
    are pure functions of seeds, so the thawed driver is
    byte-equivalent to the source shard's driver at the same instant.
    """
    trace, traffic = job_inputs(spec, config)
    if spec.role == "inference":
        return InferenceJob.thaw(trace, traffic, policy, frozen)
    return TrainingJob.thaw(trace, policy, frozen)
