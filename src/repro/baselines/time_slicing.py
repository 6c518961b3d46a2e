"""NVIDIA time-slicing baseline (temporal sharing at context granularity).

The default GPU concurrency mechanism: contexts take turns owning the
whole device for a scheduling quantum.  Since Pascal, compute preemption
lets the hardware context-switch without waiting for kernels to finish
— at a quantum boundary, running kernels are preempted (in-flight
thread blocks drain, remaining blocks are saved) and resume when their
context is next scheduled.  The policy remains priority-agnostic: a
high-priority inference request arriving during another context's
quantum still waits out the quantum, which is the multi-millisecond
interference the paper measures.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..errors import SchedulerError
from ..gpu.device import DeviceLaunch, GPUDevice, LaunchStatus
from ..gpu.engine import EventLoop
from ..gpu.kernel import KernelDescriptor
from .. import trace
from .base import ClientInfo, SharingPolicy

__all__ = ["TimeSlicing"]


class TimeSlicing(SharingPolicy):
    """Round-robin temporal sharing with compute preemption."""

    name = "Time-Slicing"

    def __init__(self, device: GPUDevice, engine: EventLoop, *,
                 quantum: float = 2e-3,
                 context_switch_overhead: float = 100e-6) -> None:
        super().__init__(device, engine)
        if quantum <= 0:
            raise SchedulerError("quantum must be > 0")
        self.quantum = quantum
        self.context_switch_overhead = context_switch_overhead
        self._order: list[str] = []
        #: fresh kernels waiting to start, per client
        self._queues: dict[str, deque] = {}
        #: preempted launches to resume first, per client
        self._suspended: dict[str, deque] = {}
        self._active: str | None = None
        self._inflight: dict[str, int] = {}
        self._quantum_event = None
        self.preemptions = 0

    # ------------------------------------------------------------------
    def _on_register(self, info: ClientInfo) -> None:
        self._order.append(info.client_id)
        self._queues[info.client_id] = deque()
        self._suspended[info.client_id] = deque()
        self._inflight[info.client_id] = 0

    def _submit(self, info: ClientInfo, descriptor: KernelDescriptor,
                on_done: Callable[[], None]) -> None:
        self._queues[info.client_id].append((descriptor, on_done))
        if self._active is None:
            self._activate(info.client_id)
        elif self._active == info.client_id:
            self._drain_active()
        else:
            self._yield_if_idle()

    def _on_disconnect(self, info: ClientInfo) -> int:
        """Remove a crashed context from the rotation.

        Its queued kernels are dropped, resident launches killed with
        callbacks severed (the crashed client's ``_finished`` would
        otherwise touch the state deleted here), and if it held the
        device the quantum rotates to the next context with work.
        """
        client_id = info.client_id
        cancelled = 0
        for launch in self.device.resident_for(client_id):
            launch.on_complete = None
            self.device.kill(launch)
            cancelled += 1
        self._order.remove(client_id)
        del self._queues[client_id]
        del self._suspended[client_id]
        del self._inflight[client_id]
        if self._active == client_id:
            self._active = None
            if self._quantum_event is not None:
                self._quantum_event.cancel()
                self._quantum_event = None
            for survivor in self._order:
                if self._has_work(survivor):
                    self._activate(survivor)
                    break
        return cancelled

    # ------------------------------------------------------------------
    def _has_work(self, client_id: str) -> bool:
        return bool(self._queues[client_id] or self._suspended[client_id]
                    or self._inflight[client_id])

    def _activate(self, client_id: str) -> None:
        self._active = client_id
        if self._quantum_event is not None:
            self._quantum_event.cancel()
        self._quantum_event = self.engine.schedule(
            self.quantum, self._quantum_expired
        )
        # The context-switch cost precedes the new context's kernels.
        self.engine.schedule(self.context_switch_overhead,
                             lambda: self._drain_if_active(client_id))

    def _drain_if_active(self, client_id: str) -> None:
        if self._active == client_id:
            self._drain_active()

    def _quantum_expired(self) -> None:
        active = self._active
        if active is None:
            return
        nxt = self._next_with_work(after=active)
        if nxt is None:
            if self._has_work(active):
                # No other context wants the device: extend the quantum.
                self._quantum_event = self.engine.schedule(
                    self.quantum, self._quantum_expired
                )
            else:
                # Everyone is idle; stop the timer until new work arrives.
                self._active = None
            return
        # Compute preemption: stop the active context's launches; their
        # completion callbacks park the remainders for resumption.
        if self.tracer.enabled:
            self.tracer.emit(trace.SchedDecision(
                ts=self.engine.now, client_id=active, kernel="",
                transform="context-switch",
                reason=f"quantum expired; switching to {nxt}",
            ))
        for launch in list(self.device.resident_launches):
            # A launch preempted in an earlier quantum may still be
            # draining its in-flight blocks; preempt each launch once.
            if (launch.client_id == active and not launch.done
                    and not launch.preempt_requested):
                self.device.preempt(launch)
                self.preemptions += 1
        self._activate(nxt)

    def _next_with_work(self, after: str) -> str | None:
        if not self._order:
            return None
        start = self._order.index(after)
        n = len(self._order)
        for step in range(1, n + 1):
            candidate = self._order[(start + step) % n]
            if candidate != after and self._has_work(candidate):
                return candidate
        return None

    def _yield_if_idle(self) -> None:
        """Hand over early when the active context runs dry."""
        active = self._active
        if active is None or self._has_work(active):
            return
        nxt = self._next_with_work(after=active)
        if nxt is not None:
            self._activate(nxt)
        else:
            # Everyone idle: release the device and stop the timer.
            self._active = None
            if self._quantum_event is not None:
                self._quantum_event.cancel()
                self._quantum_event = None

    # ------------------------------------------------------------------
    def _drain_active(self) -> None:
        active = self._active
        if active is None:
            return
        suspended = self._suspended[active]
        while suspended:
            descriptor, on_done, remaining, offset = suspended.popleft()
            self._launch(active, descriptor, on_done,
                         blocks=remaining, offset=offset)
        queue = self._queues[active]
        while queue:
            descriptor, on_done = queue.popleft()
            self._launch(active, descriptor, on_done,
                         blocks=descriptor.num_blocks, offset=0)

    def _launch(self, client_id: str, descriptor: KernelDescriptor,
                on_done: Callable[[], None], *, blocks: int,
                offset: int) -> None:
        self._inflight[client_id] += 1
        launch = DeviceLaunch(
            descriptor,
            client_id=client_id,
            priority=0,
            blocks=blocks,
            block_offset=offset,
            on_complete=lambda l, c=client_id, cb=on_done:
                self._finished(c, cb, l),
        )
        self.device.submit(launch)

    def _finished(self, client_id: str, on_done: Callable[[], None],
                  launch: DeviceLaunch) -> None:
        self._inflight[client_id] -= 1
        if launch.status is LaunchStatus.PREEMPTED:
            # Park the remainder; it resumes when this context is next
            # scheduled.  If the context already got the device back
            # before the in-flight blocks drained, continue right away.
            self._suspended[client_id].append((
                launch.descriptor, on_done, launch.tasks_remaining,
                launch.block_offset + launch.blocks_done,
            ))
            if self._active == client_id:
                self._drain_active()
            return
        on_done()
        if self._active == client_id:
            self._drain_active()
            self._yield_if_idle()
        elif self._active is None:
            nxt = self._next_with_work(after=client_id)
            if nxt is not None:
                self._activate(nxt)