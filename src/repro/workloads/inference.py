"""Latency-critical inference service driver.

An inference service receives requests per a
:class:`~repro.traffic.TrafficTrace` and serves them FIFO, one at a
time; each request executes the model's kernel trace through the
sharing policy.  Request latency (completion minus arrival, i.e.
including queueing) is the quantity whose 99th percentile the paper
reports.  Under a passthrough policy on an otherwise idle device, the
rest of a request's kernels and gaps run ahead inline
(:mod:`repro.workloads.runahead`), up to the request's end; under
Tally a high-priority service's kernels do, up to its next host gap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..baselines.base import Priority, SharingPolicy
from ..errors import MigrationError, WorkloadError
from ..gpu.engine import Event, EventLoop
from ..metrics.latency import LatencySummary
from .. import trace
from ..traffic.maf import TrafficTrace
from .models import Trace
from .runahead import run_ahead

__all__ = ["RequestRecord", "InferenceJob"]


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one completed request."""

    arrival: float
    started: float
    completed: float

    @property
    def latency(self) -> float:
        return self.completed - self.arrival

    @property
    def queueing(self) -> float:
        return self.started - self.arrival


class InferenceJob:
    """Drives one inference service through a sharing policy."""

    def __init__(self, trace: Trace, traffic: TrafficTrace,
                 policy: SharingPolicy, client_id: str, *,
                 priority: Priority = Priority.HIGH) -> None:
        if not trace.ops:
            raise WorkloadError(f"trace {trace.model_name!r} is empty")
        self.trace = trace
        self.traffic = traffic
        self.policy = policy
        self.engine: EventLoop = policy.engine
        self.client_id = client_id
        self.priority = priority
        self.records: list[RequestRecord] = []
        self._queue: deque[float] = deque()
        self._busy = False
        self._arrival_index = 0
        self._op_index = 0
        self._current_arrival = 0.0
        self._current_start = 0.0
        self._started = False
        self.crashed = False
        #: requests that ever entered the queue (conservation:
        #: ``arrivals_total == completed + pending + shed``)
        self.arrivals_total = 0
        #: requests discarded by a crash, never to complete
        self.shed_requests = 0
        self._paused = False
        self._closed = False
        self._epoch = 0          # bumped by checkpoint(); stale-callback guard
        self._gap_event: Event | None = None
        self._arrival_event: Event | None = None
        policy.register_client(client_id, priority)

    # ------------------------------------------------------------------
    def start(self, *, since: float = 0.0) -> None:
        """Arm the arrival process (call once, before running the engine).

        ``since`` skips arrivals scheduled before that time — the online
        control plane admits jobs mid-run, and requests "sent" before
        the service existed never happened.
        """
        if self._started:
            raise WorkloadError(f"job {self.client_id!r} already started")
        self._started = True
        if since > 0.0:
            arrivals = self.traffic.arrivals
            while (self._arrival_index < self.traffic.count
                   and float(arrivals[self._arrival_index]) < since):
                self._arrival_index += 1
        self._schedule_next_arrival()

    def close(self) -> None:
        """Graceful departure: stop accepting new arrivals.

        Unlike :meth:`crash`, queued and in-flight requests still
        complete — the service drains before it leaves the cluster.
        """
        self._closed = True

    def crash(self) -> None:
        """The client process dies: stop arriving and submitting.

        Queued requests are abandoned and any in-flight request never
        completes — the policy's ``disconnect`` reclaims the device
        side; late completion callbacks become no-ops.  Records of
        already-completed requests stay, so before/after-crash latency
        comparisons remain possible.
        """
        self.crashed = True
        self.shed_requests += len(self._queue) + (1 if self._busy else 0)
        self._queue.clear()
        self._busy = False

    # -- checkpoint/restore (live migration) ---------------------------
    def checkpoint(self) -> None:
        """Freeze the driver so it can be restored on another device.

        Cancels the pending gap timer, bumps the submit epoch so kernel
        completions from the old device are ignored, and requeues any
        in-flight request at the queue front — it will replay from its
        first kernel after :meth:`restore`, keeping its original arrival
        time so the latency it reports includes the migration downtime.
        Arrivals keep queueing while paused (the traffic source outlives
        the device), so no admitted request is lost.
        """
        self._paused = True
        self._epoch += 1
        if self._gap_event is not None:
            self._gap_event.cancel()
            self._gap_event = None
        if self._busy:
            self._queue.appendleft(self._current_arrival)
            self._busy = False

    def restore(self, policy: SharingPolicy) -> None:
        """Resume on ``policy`` (after :meth:`checkpoint`).

        The new policy must share the driver's event loop — arrival
        events are already scheduled on it.  Registers the client with
        the new policy and restarts the head-of-queue request.
        """
        if policy.engine is not self.engine:
            raise MigrationError(
                f"cannot restore {self.client_id!r}: target policy runs on a "
                "different event loop than the one its arrivals are scheduled on"
            )
        if not self._paused:
            raise MigrationError(
                f"restore of {self.client_id!r} without a checkpoint")
        self.policy = policy
        policy.register_client(self.client_id, self.priority)
        self._paused = False
        if self._queue and not self._busy:
            self._start_request()

    # -- freeze/thaw (cross-loop migration) ----------------------------
    def freeze_state(self) -> dict:
        """Serialize the mutable driver state of a checkpointed job.

        Unlike :meth:`checkpoint`/:meth:`restore` — which keep the same
        object on the same event loop — freeze/thaw moves a driver to a
        *different* event loop (a parallel-engine shard on another
        worker).  The pending arrival event cannot cross loops, so it is
        cancelled here and re-armed by :meth:`thaw` from the (identical,
        deterministically rebuilt) traffic trace.  The old object is
        left inert: stale kernel completions are epoch-guarded no-ops,
        exactly as they are after an in-loop migration.
        """
        if not self._paused:
            raise MigrationError(
                f"freeze of {self.client_id!r} without a checkpoint")
        resume_index = self._arrival_index
        if self._arrival_event is not None:
            self._arrival_event.cancel()
            self._arrival_event = None
            resume_index -= 1  # the cancelled arrival re-arms on thaw
        return {
            "client_id": self.client_id,
            "priority": self.priority,
            "records": list(self.records),
            "queue": list(self._queue),
            "arrival_index": resume_index,
            "started": self._started,
            "crashed": self.crashed,
            "arrivals_total": self.arrivals_total,
            "shed_requests": self.shed_requests,
            "closed": self._closed,
            "epoch": self._epoch,
        }

    @classmethod
    def thaw(cls, trace: Trace, traffic: TrafficTrace,
             policy: SharingPolicy, state: dict) -> "InferenceJob":
        """Rebuild a frozen driver on ``policy``'s event loop.

        ``trace``/``traffic`` must be the deterministic rebuilds of the
        originals (same model, seed, and config).  The thawed driver is
        paused and *not* registered with the policy — exactly the state
        an in-loop driver is in between ``checkpoint()`` and
        ``restore()`` — but its arrival chain is live, so requests keep
        queueing through the migration downtime.
        """
        job = cls.__new__(cls)
        job.trace = trace
        job.traffic = traffic
        job.policy = policy
        job.engine = policy.engine
        job.client_id = state["client_id"]
        job.priority = state["priority"]
        job.records = list(state["records"])
        job._queue = deque(state["queue"])
        job._busy = False
        job._arrival_index = state["arrival_index"]
        job._op_index = 0
        job._current_arrival = 0.0
        job._current_start = 0.0
        job._started = state["started"]
        job.crashed = state["crashed"]
        job.arrivals_total = state["arrivals_total"]
        job.shed_requests = state["shed_requests"]
        job._paused = True
        job._closed = state["closed"]
        job._epoch = state["epoch"]
        job._gap_event = None
        job._arrival_event = None
        job._schedule_next_arrival()
        return job

    @property
    def completed_requests(self) -> int:
        return len(self.records)

    @property
    def pending_requests(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

    def latencies(self, *, since: float = 0.0,
                  until: float = float("inf")) -> list[float]:
        """Latencies of requests completed within [since, until)."""
        return [r.latency for r in self.records
                if since <= r.completed < until]

    def latency_summary(self, *, since: float = 0.0,
                        until: float = float("inf")) -> LatencySummary:
        return LatencySummary.of(self.latencies(since=since, until=until))

    def queueing_delays(self, *, since: float = 0.0,
                        until: float = float("inf")) -> list[float]:
        """Arrival-to-start delays of requests completed in the window.

        End-to-end latency already *contains* this delay, but reporting
        it separately makes submission-time queueing observable: under
        bursty arrivals (``maf_trace`` spike seconds) a request can wait
        behind the backlog far longer than it executes, and a latency
        summary alone cannot say which share of the p99 is queueing.
        """
        return [r.queueing for r in self.records
                if since <= r.completed < until]

    def queueing_summary(self, *, since: float = 0.0,
                         until: float = float("inf")
                         ) -> LatencySummary | None:
        """Summary of queueing delays, or None if nothing completed."""
        delays = self.queueing_delays(since=since, until=until)
        return LatencySummary.of(delays) if delays else None

    def completions_in(self, start: float, end: float) -> int:
        """Requests completed within [start, end)."""
        return sum(1 for r in self.records if start <= r.completed < end)

    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        if self._closed or self._arrival_index >= self.traffic.count:
            return
        when = float(self.traffic.arrivals[self._arrival_index])
        self._arrival_index += 1
        self._arrival_event = self.engine.schedule_at(when, self._on_arrival)

    def _on_arrival(self) -> None:
        self._arrival_event = None
        if self.crashed:
            return  # the arrival event outlived the process
        self.arrivals_total += 1
        self._queue.append(self.engine.now)
        self._schedule_next_arrival()
        self._sample_queue_depth()
        if not self._busy and not self._paused:
            self._start_request()

    def _sample_queue_depth(self) -> None:
        tracer = self.policy.tracer
        if tracer.enabled:
            tracer.emit(trace.QueueDepth(
                ts=self.engine.now, client_id=self.client_id, kernel="",
                depth=self.pending_requests,
            ))

    def _start_request(self) -> None:
        self._busy = True
        self._current_arrival = self._queue.popleft()
        self._current_start = self.engine.now
        self._op_index = 0
        self._advance()

    def _advance(self) -> None:
        if self.crashed or self._paused:
            return  # a completion racing a crash or checkpoint
        self._gap_event = None
        if self._op_index >= len(self.trace.ops):
            self.records.append(RequestRecord(
                arrival=self._current_arrival,
                started=self._current_start,
                completed=self.engine.now,
            ))
            self._busy = False
            self._sample_queue_depth()
            if self._queue:
                self._start_request()
            return
        if run_ahead(self, None) is not None:
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
        if epoch != self._epoch:
            return  # completion from a device this client migrated off
        self._advance()
