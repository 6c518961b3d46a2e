"""REEF-style comparator (reset-based thread-level preemption).

REEF (OSDI'22) achieves microsecond-scale preemption by *resetting*
best-effort kernels: in-flight computation is killed outright and the
kernel is re-executed later.  This is only sound for **idempotent**
kernels — the applicability restriction the paper gives for why REEF
does not generalize to arbitrary DL clusters (§3).

The policy here mirrors Tally's opportunistic structure (best-effort
kernels run only while the high-priority client is idle) but uses the
device's :meth:`~repro.gpu.device.GPUDevice.kill` primitive instead of
block-level transformations: turnaround is near-zero, at the price of
re-executing every block that was in flight when the reset hit.  It is
*not* one of the paper's measured baselines; it exists to quantify the
turnaround-vs-wasted-work trade-off the related-work section describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import SchedulerError
from ..gpu.device import DeviceLaunch, GPUDevice, LaunchStatus
from ..gpu.engine import EventLoop
from ..gpu.kernel import KernelDescriptor
from .. import trace
from .base import ClientInfo, Priority, SharingPolicy

__all__ = ["REEF"]


@dataclass
class _Pending:
    """One best-effort kernel waiting for or holding the device."""

    descriptor: KernelDescriptor
    on_done: Callable[[], None]
    launch: DeviceLaunch | None = None
    resets: int = 0


class REEF(SharingPolicy):
    """Reset-based scheduling: kill best-effort kernels on HP arrival.

    Assumes every best-effort kernel is idempotent (safe to re-execute
    from scratch).
    """

    name = "REEF"

    def __init__(self, device: GPUDevice, engine: EventLoop) -> None:
        super().__init__(device, engine)
        self._hp_outstanding = 0
        self._pending: dict[str, _Pending] = {}
        self.resets = 0
        self.blocks_wasted = 0

    # ------------------------------------------------------------------
    def _submit(self, info: ClientInfo, descriptor: KernelDescriptor,
                on_done: Callable[[], None]) -> None:
        if info.priority is Priority.HIGH:
            self._hp_outstanding += 1
            self._reset_best_effort()
            launch = DeviceLaunch(
                descriptor, client_id=info.client_id, priority=0,
                on_complete=lambda _l: self._hp_done(on_done),
            )
            self.device.submit(launch)
            return

        if info.client_id in self._pending:
            raise SchedulerError(
                f"client {info.client_id!r} submitted a kernel while one "
                "is still executing (clients are stream-ordered)"
            )
        entry = _Pending(descriptor, on_done)
        self._pending[info.client_id] = entry
        if self._hp_outstanding == 0:
            self._start(info.client_id, entry)

    def _on_disconnect(self, info: ClientInfo) -> int:
        """Drop a crashed client's pending kernel and kill its launches.

        A crashed high-priority client's severed launches must still
        decrement ``_hp_outstanding``, or best-effort work would wait
        forever for a completion that cannot come.
        """
        entry = self._pending.pop(info.client_id, None)
        cancelled = 0
        if entry is not None and entry.launch is not None \
                and not entry.launch.done:
            entry.launch.on_complete = None
            self.device.kill(entry.launch)
            cancelled += 1
        for stray in self.device.resident_for(info.client_id):
            stray.on_complete = None
            self.device.kill(stray)
            cancelled += 1
            if info.priority is Priority.HIGH and self._hp_outstanding > 0:
                self._hp_outstanding -= 1
        if (info.priority is Priority.HIGH and cancelled
                and self._hp_outstanding == 0):
            for client_id, pending in list(self._pending.items()):
                if pending.launch is None:
                    self._start(client_id, pending)
        return cancelled

    # ------------------------------------------------------------------
    def _hp_done(self, on_done: Callable[[], None]) -> None:
        self._hp_outstanding -= 1
        on_done()
        if self._hp_outstanding == 0:
            for client_id, entry in list(self._pending.items()):
                if entry.launch is None:
                    self._start(client_id, entry)

    def _reset_best_effort(self) -> None:
        for entry in self._pending.values():
            launch = entry.launch
            # A launch killed during its submission delay retires only
            # when it reaches the device; don't count a second reset
            # for it on the next high-priority arrival.
            if (launch is not None and not launch.done
                    and not launch.preempt_requested):
                if self.tracer.enabled:
                    self.tracer.emit(trace.SchedDecision(
                        ts=self.engine.now, client_id=launch.client_id,
                        kernel=entry.descriptor.name, transform="reset",
                        reason="high-priority arrival",
                    ))
                self.device.kill(launch)
                self.resets += 1
                entry.resets += 1

    def _start(self, client_id: str, entry: _Pending) -> None:
        launch = DeviceLaunch(
            entry.descriptor, client_id=client_id, priority=1,
            on_complete=lambda l: self._finished(client_id, entry, l),
        )
        entry.launch = launch
        self.device.submit(launch)

    def _finished(self, client_id: str, entry: _Pending,
                  launch: DeviceLaunch) -> None:
        entry.launch = None
        if launch.status is LaunchStatus.PREEMPTED:
            # Reset: partial progress is discarded (idempotence), the
            # whole kernel re-executes once the HP burst ends.
            self.blocks_wasted += launch.blocks_done + launch.blocks_killed
            if self._hp_outstanding == 0:
                self._start(client_id, entry)
            return
        del self._pending[client_id]
        entry.on_done()
