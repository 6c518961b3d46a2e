"""Best-effort training job driver.

A training job loops over its iteration trace forever: kernels are
submitted one at a time through the sharing policy (stream order), and
host gaps advance simulated time without touching the device.  The
driver records per-iteration completion times, from which the harness
computes throughput over any measurement window.  Under a passthrough
policy on an otherwise idle device, stretches of kernels and gaps —
across iteration boundaries too — run ahead inline
(:mod:`repro.workloads.runahead`); under Tally a high-priority
trainer's kernels do, up to its next host gap.
"""

from __future__ import annotations


from ..baselines.base import Priority, SharingPolicy
from ..errors import MigrationError, WorkloadError
from ..gpu.engine import Event, EventLoop
from .models import Trace
from .runahead import run_ahead

__all__ = ["TrainingJob"]


class TrainingJob:
    """Drives one training workload through a sharing policy."""

    def __init__(self, trace: Trace, policy: SharingPolicy, client_id: str,
                 *, priority: Priority = Priority.BEST_EFFORT) -> None:
        if not trace.ops:
            raise WorkloadError(f"trace {trace.model_name!r} is empty")
        self.trace = trace
        self.policy = policy
        self.engine: EventLoop = policy.engine
        self.client_id = client_id
        self.priority = priority
        self.iteration_completions: list[float] = []
        self.kernels_completed = 0
        self.started_at: float | None = None
        self.crashed = False
        self._op_index = 0
        self._stopped = False
        self._paused = False
        self._epoch = 0          # bumped by checkpoint(); stale-callback guard
        self._gap_event: Event | None = None
        policy.register_client(client_id, priority)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin iterating (call once, before running the engine)."""
        if self.started_at is not None:
            raise WorkloadError(f"job {self.client_id!r} already started")
        self.started_at = self.engine.now
        self._advance()

    def stop(self) -> None:
        """Stop after the current kernel/gap completes."""
        self._stopped = True

    def crash(self) -> None:
        """The client process dies: no further submissions, ever.

        Unlike :meth:`stop`, a crash also leaves any in-flight kernel
        without a consumer — the policy's ``disconnect`` must reclaim
        it; completion callbacks that still fire become no-ops.
        """
        self._stopped = True
        self.crashed = True

    # -- checkpoint/restore (live migration) ---------------------------
    def checkpoint(self) -> None:
        """Freeze the job for migration to another device.

        Training iterations have no externally visible request boundary,
        so the interrupted iteration simply restarts from its first
        kernel after :meth:`restore` — partial progress on the dead
        device is discarded, as a real trainer redoes the step from its
        last optimizer checkpoint.
        """
        self._paused = True
        self._epoch += 1
        if self._gap_event is not None:
            self._gap_event.cancel()
            self._gap_event = None
        self._op_index = 0

    def restore(self, policy: SharingPolicy) -> None:
        """Resume iterating on ``policy`` (after :meth:`checkpoint`)."""
        if policy.engine is not self.engine:
            raise MigrationError(
                f"cannot restore {self.client_id!r}: target policy runs on a "
                "different event loop")
        if not self._paused:
            raise MigrationError(
                f"restore of {self.client_id!r} without a checkpoint")
        self.policy = policy
        policy.register_client(self.client_id, self.priority)
        self._paused = False
        if not self._stopped:
            self._advance()

    # -- freeze/thaw (cross-loop migration) ----------------------------
    def freeze_state(self) -> dict:
        """Serialize the mutable state of a checkpointed trainer.

        A checkpointed trainer has no live events (the gap timer is
        cancelled, kernel completions are epoch-guarded), so the state
        is pure data; :meth:`thaw` rebuilds the driver on another event
        loop from the deterministically regenerated trace.
        """
        if not self._paused:
            raise MigrationError(
                f"freeze of {self.client_id!r} without a checkpoint")
        return {
            "client_id": self.client_id,
            "priority": self.priority,
            "iteration_completions": list(self.iteration_completions),
            "kernels_completed": self.kernels_completed,
            "started_at": self.started_at,
            "crashed": self.crashed,
            "stopped": self._stopped,
            "epoch": self._epoch,
        }

    @classmethod
    def thaw(cls, trace: Trace, policy: SharingPolicy,
             state: dict) -> "TrainingJob":
        """Rebuild a frozen trainer on ``policy``'s event loop.

        The thawed driver is paused and unregistered — the state an
        in-loop driver holds between ``checkpoint()`` and ``restore()``.
        """
        job = cls.__new__(cls)
        job.trace = trace
        job.policy = policy
        job.engine = policy.engine
        job.client_id = state["client_id"]
        job.priority = state["priority"]
        job.iteration_completions = list(state["iteration_completions"])
        job.kernels_completed = state["kernels_completed"]
        job.started_at = state["started_at"]
        job.crashed = state["crashed"]
        job._op_index = 0
        job._stopped = state["stopped"]
        job._paused = True
        job._epoch = state["epoch"]
        job._gap_event = None
        return job

    @property
    def iterations_completed(self) -> int:
        return len(self.iteration_completions)

    def fractional_iterations(self) -> float:
        """Completed iterations plus progress through the current one."""
        return self.iterations_completed + self._op_index / len(self.trace.ops)

    def completions_in(self, start: float, end: float) -> int:
        """Iterations completed within [start, end)."""
        return sum(1 for t in self.iteration_completions if start <= t < end)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        if self._stopped or self._paused:
            return
        self._gap_event = None
        if self._op_index >= len(self.trace.ops):
            self._op_index = 0
            self.iteration_completions.append(self.engine.now)
        kernels = run_ahead(self, self.iteration_completions)
        if kernels is not None:
            self.kernels_completed += kernels
            return
        op = self.trace.ops[self._op_index]
        self._op_index += 1
        if op.kind == "gap":
            self._gap_event = self.engine.schedule(op.gap, self._advance)
        else:
            epoch = self._epoch
            self.policy.submit(self.client_id, op.kernel,
                               lambda: self._kernel_done(epoch))

    def _kernel_done(self, epoch: int) -> None:
        if self.crashed or epoch != self._epoch:
            return  # racing a crash, or a device this client migrated off
        self.kernels_completed += 1
        self._advance()
