"""Runtime invariant checker for the timing simulator.

The checker mirrors the ``NULL_TRACER`` pattern: a
:class:`GPUDevice <repro.gpu.device.GPUDevice>` holds either the module
singleton :data:`NULL_CHECKER` (``enabled`` is False; every
instrumentation site costs one attribute load and a branch) or an
:class:`InvariantChecker`, in which case the device re-audits its whole
accounting state after every event and dispatch decision.

The invariants (also documented in ``docs/simulator.md``):

* **capacity** — free threads/slots never leave ``[0, capacity]``, and
  equal full capacity exactly when no block is in flight;
* **conservation** — for every ORIGINAL launch,
  ``blocks_done + blocks_inflight + blocks_to_start + blocks_killed ==
  total_blocks``; for every PTB launch the task counter stays within
  ``[0, total_blocks]`` and worker occupancy within the worker count;
* **accounting** — the device's free pools and per-client in-flight
  table are exactly the totals implied by resident launches, and its
  waiting list holds exactly the resident launches with blocks to
  start and no preemption request, in dispatch order;
* **time** — simulated time is non-negative and never moves backwards,
  and utilization stays within ``[0, 1]``;
* **strict priority** — a block of priority ``p`` only starts while a
  higher-priority launch has blocks waiting if that launch cannot fit
  a dispatchable chunk in the currently free resources.

Violations raise :class:`~repro.errors.InvariantViolation` (or are
collected on ``violations`` when ``raise_on_violation`` is False, for
harness-level reporting).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gpu.device import DeviceLaunch, GPUDevice

__all__ = ["InvariantChecker", "NullChecker", "NULL_CHECKER"]

#: slack for float comparisons (time, utilization); resource counts are
#: integers and compared exactly.
_EPS = 1e-9


class InvariantChecker:
    """Audits a device's accounting state after every simulation event."""

    enabled = True

    def __init__(self, *, raise_on_violation: bool = True) -> None:
        self.raise_on_violation = raise_on_violation
        #: number of full-state audits performed
        self.checks_run = 0
        #: human-readable description of every violation seen
        self.violations: list[str] = []
        self._last_now = 0.0

    # ------------------------------------------------------------------
    def verify(self, device: "GPUDevice") -> None:
        """Full-state audit; called by the device after each event."""
        self.checks_run += 1
        problems = self.audit(device)
        if problems:
            self._report(device, problems)

    def verify_dispatch(self, device: "GPUDevice",
                        launch: "DeviceLaunch") -> None:
        """Dispatch-safety audit; called just before a batch starts."""
        problems = self.audit_dispatch(device, launch)
        if problems:
            self._report(device, problems)

    # ------------------------------------------------------------------
    def audit(self, device: "GPUDevice") -> list[str]:
        """Every currently violated invariant (empty list = healthy)."""
        problems: list[str] = []
        spec = device.spec
        now = device.engine.now

        # Time moves forward and stays non-negative.
        if now < 0:
            problems.append(f"negative simulated time {now!r}")
        if now < self._last_now - _EPS:
            problems.append(
                f"time went backwards: {now!r} after {self._last_now!r}"
            )
        self._last_now = max(self._last_now, now)

        # Global capacity bounds.
        threads_free = device.threads_free
        slots_free = device.slots_free
        if not 0 <= threads_free <= spec.total_threads:
            problems.append(
                f"threads_free {threads_free} outside "
                f"[0, {spec.total_threads}]"
            )
        if not 0 <= slots_free <= spec.total_block_slots:
            problems.append(
                f"slots_free {slots_free} outside "
                f"[0, {spec.total_block_slots}]"
            )

        # Per-launch conservation plus the implied resource totals.
        inflight_blocks = 0
        inflight_threads = 0
        per_client: dict[str, int] = {}
        for launch in device.resident_launches:
            if launch.done:
                problems.append(f"{launch!r} finished but still resident")
            problems.extend(self._audit_launch(launch))
            inflight_blocks += launch.blocks_inflight
            inflight_threads += (launch.blocks_inflight
                                 * launch.descriptor.threads_per_block)
            per_client[launch.client_id] = (
                per_client.get(launch.client_id, 0) + launch.blocks_inflight
            )

        if threads_free + inflight_threads != spec.total_threads:
            problems.append(
                f"thread leak: {threads_free} free + {inflight_threads} "
                f"in flight != capacity {spec.total_threads}"
            )
        if slots_free + inflight_blocks != spec.total_block_slots:
            problems.append(
                f"slot leak: {slots_free} free + {inflight_blocks} "
                f"in flight != capacity {spec.total_block_slots}"
            )

        # The per-client in-flight table matches resident blocks.
        for client, count in device._client_inflight.items():
            if count < 0:
                problems.append(f"client {client!r} in-flight count {count} < 0")
            if count != per_client.get(client, 0):
                problems.append(
                    f"client {client!r} in-flight count {count} != "
                    f"{per_client.get(client, 0)} resident blocks"
                )
        for client, count in device._submitting.items():
            if count < 0:
                problems.append(
                    f"client {client!r} submission count {count} < 0"
                )

        # The device's waiting list is exactly its waiting launches.
        waiting = [launch for launch in device.resident_launches
                   if launch.blocks_to_start > 0
                   and not launch.preempt_requested]
        if device._waiting != waiting:
            problems.append(
                f"waiting list {device._waiting!r} != waiting launches "
                f"{waiting!r}"
            )

        # Utilization is a fraction of capacity.
        utilization = device.utilization()
        if not -_EPS <= utilization <= 1.0 + _EPS:
            problems.append(f"utilization {utilization!r} outside [0, 1]")

        return problems

    def audit_dispatch(self, device: "GPUDevice",
                       launch: "DeviceLaunch") -> list[str]:
        """Strict-priority safety of starting a batch of ``launch`` now."""
        problems: list[str] = []
        if launch.preempt_requested:
            problems.append(
                f"dispatching blocks of preempted launch {launch!r}"
            )
        for other in device.resident_launches:
            if (other.priority >= launch.priority or other.done
                    or other.preempt_requested
                    or other.blocks_to_start <= 0):
                continue
            # A higher-priority launch has blocks waiting; the batch is
            # only legitimate if that launch cannot fit a dispatchable
            # chunk (the device's coalescing rule) in the free pool.
            tpb = other.descriptor.threads_per_block
            fit = min(device.threads_free // tpb, device.slots_free,
                      other.blocks_to_start)
            min_chunk = min(
                other.blocks_to_start,
                max(1, device._capacity(
                    tpb, other.descriptor.shared_mem_per_block) // 8),
            )
            if fit >= min_chunk:
                problems.append(
                    f"priority inversion: starting blocks of {launch!r} "
                    f"(priority {launch.priority}) while {other!r} "
                    f"(priority {other.priority}) has "
                    f"{other.blocks_to_start} blocks waiting and "
                    f"{fit} would fit"
                )
        return problems

    # ------------------------------------------------------------------
    @staticmethod
    def _audit_launch(launch: "DeviceLaunch") -> list[str]:
        problems: list[str] = []
        label = f"{launch.descriptor.name}#{launch.seq}"
        counters = (launch.blocks_done, launch.blocks_inflight,
                    launch.blocks_to_start, launch.blocks_killed,
                    launch.tasks_done)
        if min(counters) < 0:
            problems.append(f"{label}: negative block counter {counters}")
        if launch.is_ptb:
            if launch.tasks_done > launch.total_blocks:
                problems.append(
                    f"{label}: tasks_done {launch.tasks_done} > "
                    f"total_blocks {launch.total_blocks}"
                )
            if launch.blocks_done != launch.tasks_done:
                problems.append(
                    f"{label}: PTB blocks_done {launch.blocks_done} != "
                    f"tasks_done {launch.tasks_done}"
                )
            workers = min(launch.config.workers, launch.total_blocks)
            if launch.blocks_inflight + launch.blocks_to_start > workers:
                problems.append(
                    f"{label}: {launch.blocks_inflight} workers in flight "
                    f"+ {launch.blocks_to_start} to start exceed the "
                    f"{workers} PTB workers"
                )
        else:
            total = (launch.blocks_done + launch.blocks_inflight
                     + launch.blocks_to_start + launch.blocks_killed)
            if total != launch.total_blocks:
                problems.append(
                    f"{label}: block conservation broken — "
                    f"{launch.blocks_done} done + "
                    f"{launch.blocks_inflight} in flight + "
                    f"{launch.blocks_to_start} to start + "
                    f"{launch.blocks_killed} killed != "
                    f"total {launch.total_blocks}"
                )
        return problems

    def _report(self, device: "GPUDevice", problems: list[str]) -> None:
        self.violations.extend(problems)
        if self.raise_on_violation:
            lines = "\n  - ".join(problems)
            raise InvariantViolation(
                f"invariant violation at t={device.engine.now:.9f} "
                f"(after {self.checks_run} checks):\n  - {lines}"
            )


class NullChecker:
    """Disabled checker: the default, with zero per-event overhead."""

    enabled = False

    def verify(self, device: "GPUDevice") -> None:  # pragma: no cover
        """No-op (instrumentation sites skip the call entirely)."""

    def verify_dispatch(self, device: "GPUDevice",
                        launch: "DeviceLaunch") -> None:  # pragma: no cover
        """No-op (instrumentation sites skip the call entirely)."""


#: Shared disabled checker; devices hold this unless given a real one.
NULL_CHECKER = NullChecker()
