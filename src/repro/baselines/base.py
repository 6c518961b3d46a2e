"""The GPU-sharing policy interface.

Every sharing system in the reproduction — Tally and the four baselines
(Time-Slicing, MPS, MPS-Priority, TGS) — implements
:class:`SharingPolicy`: clients register with a priority class and then
submit kernels one at a time; the policy decides when and how each
kernel reaches the :class:`~repro.gpu.device.GPUDevice` and invokes the
client's completion callback when it finishes.

Clients model DL processes: they submit their next kernel from the
completion callback of the previous one (plus any host-side gap), which
mirrors stream-ordered execution.  A policy may also let a client run
ahead — settle its next kernels inline, without events, while the
event loop proves nothing else can run (:meth:`SharingPolicy.run_ahead`).
The passthrough policies do on an idle device; Tally does for its
high-priority clients, whose kernels run alone while best-effort work
is held, and for a best-effort client while no high-priority kernel is
outstanding and no other best-effort kernel is in flight.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable

from ..errors import SchedulerError
from ..gpu.device import DeviceLaunch, GPUDevice
from ..gpu.engine import EventLoop
from ..gpu.kernel import KernelDescriptor
from ..trace.events import ClientGC

__all__ = ["Priority", "ClientInfo", "SharingPolicy", "PassthroughPolicy"]


class Priority(enum.IntEnum):
    """Client priority classes (lower value = more important)."""

    HIGH = 0
    BEST_EFFORT = 1


@dataclass
class ClientInfo:
    """Registration record of one client process."""

    client_id: str
    priority: Priority
    kernels_submitted: int = 0
    kernels_completed: int = 0


class SharingPolicy(abc.ABC):
    """Mediates kernel execution of concurrent clients on one GPU."""

    #: human-readable system name (used in reports)
    name: str = "abstract"

    def __init__(self, device: GPUDevice, engine: EventLoop) -> None:
        self.device = device
        self.engine = engine
        self.clients: dict[str, ClientInfo] = {}

    @property
    def tracer(self):
        """The device's tracer — one observability channel per run."""
        return self.device.tracer

    # ------------------------------------------------------------------
    def register_client(self, client_id: str,
                        priority: Priority = Priority.BEST_EFFORT) -> ClientInfo:
        """Introduce a client before it submits kernels."""
        if client_id in self.clients:
            raise SchedulerError(f"client {client_id!r} already registered")
        info = ClientInfo(client_id, priority)
        self.clients[client_id] = info
        self._on_register(info)
        return info

    def submit(self, client_id: str, descriptor: KernelDescriptor,
               on_done: Callable[[], None]) -> None:
        """Client ``client_id`` wants to run ``descriptor`` next.

        ``on_done`` fires when the kernel has fully executed; the client
        reacts by submitting its next kernel (stream order).
        """
        try:
            info = self.clients[client_id]
        except KeyError:
            raise SchedulerError(f"unknown client {client_id!r}") from None
        info.kernels_submitted += 1

        def counted_done() -> None:
            info.kernels_completed += 1
            on_done()

        self._submit(info, descriptor, counted_done)

    def run_ahead(self, client_id: str) -> tuple[float, bool] | None:
        """The window (see :meth:`~repro.gpu.engine.EventLoop.quiet_until`)
        in which ``client_id``'s next kernels may settle inline through
        :meth:`run_inline`, or None to keep them on the event path.

        Declines by default: a policy that queues, reorders, preempts or
        transforms kernels makes decisions the inline path would skip.
        A policy grants only where each kernel would run alone on the
        idle device (:meth:`~repro.gpu.device.GPUDevice.solo_window`).
        """
        return None

    def run_ahead_crosses_gaps(self, client_id: str) -> bool:
        """Whether a run-ahead stretch of ``client_id`` may settle a
        host gap between two of its kernels inline.  A policy that acts
        when the client's kernel stream pauses (Tally resumes
        best-effort work when a high-priority client's does) must stop
        the stretch at the gap instead."""
        return True

    def run_inline(self, client_id: str, descriptor: KernelDescriptor,
                   start: float, window: tuple[float, bool]) -> float | None:
        """Submit ``descriptor`` for ``client_id`` at ``start`` and settle
        it inline; return its completion time, or None (nothing
        happened) if it would not complete inside ``window``.  Only
        called with a window from :meth:`run_ahead`: the device runs the
        kernel as :meth:`_run_inline` runs it, and the client's
        counters move as :meth:`submit` moves them."""
        end = self._run_inline(client_id, descriptor, start, window)
        if end is not None:
            info = self.clients[client_id]
            info.kernels_submitted += 1
            info.kernels_completed += 1
        return end

    def _run_inline(self, client_id: str, descriptor: KernelDescriptor,
                    start: float, window: tuple[float, bool]) -> float | None:
        """The device side of :meth:`run_inline`: by default one
        ORIGINAL launch alone on the device
        (:meth:`~repro.gpu.device.GPUDevice.run_solo`)."""
        return self.device.run_solo(descriptor, start, window)

    def run_ahead_resume(self, client_id: str,
                         resume: Callable[[], None]) -> Callable[[], None]:
        """The callback of the event that ends ``client_id``'s run-ahead
        stretch, given the driver's ``resume``: the event path would run
        the policy's completion handling of the stretch's last kernel
        around the driver's reaction to it.  The default has none."""
        return resume

    def disconnect(self, client_id: str) -> None:
        """Forget a crashed client and cancel its in-flight work.

        Idempotent — disconnecting an unknown or already-removed client
        is a no-op.  Surviving clients must be unaffected: their queued
        and resident launches keep their positions.
        """
        info = self.clients.pop(client_id, None)
        if info is None:
            return
        cancelled = self._on_disconnect(info)
        if self.tracer.enabled:
            self.tracer.emit(ClientGC(
                ts=self.engine.now, client_id=client_id, kernel="",
                scope="scheduler", launches_cancelled=cancelled,
            ))

    # ------------------------------------------------------------------
    def _on_register(self, info: ClientInfo) -> None:
        """Hook for subclasses (default: nothing)."""

    def _on_disconnect(self, info: ClientInfo) -> int:
        """Cancel ``info``'s work; returns launches cancelled.

        The default kills the client's resident device launches with
        their completion callbacks neutralized (the client is gone —
        nobody is waiting).  Policies with internal queues override
        this to also drop their per-client state.
        """
        cancelled = 0
        for launch in self.device.resident_for(info.client_id):
            launch.on_complete = None
            self.device.kill(launch)
            cancelled += 1
        return cancelled

    @abc.abstractmethod
    def _submit(self, info: ClientInfo, descriptor: KernelDescriptor,
                on_done: Callable[[], None]) -> None:
        """Policy-specific scheduling of one kernel."""


class PassthroughPolicy(SharingPolicy):
    """Launch every kernel immediately (the building block of MPS).

    ``priority_aware=True`` maps the client's priority class onto the
    device dispatch priority (MPS with client priority levels);
    ``False`` dispatches everything at equal priority (plain MPS).
    """

    name = "passthrough"

    def __init__(self, device: GPUDevice, engine: EventLoop, *,
                 priority_aware: bool = False) -> None:
        super().__init__(device, engine)
        self.priority_aware = priority_aware

    def run_ahead(self, client_id: str) -> tuple[float, bool] | None:
        """Run ahead whenever the device is idle and uninstrumented (see
        :meth:`~repro.gpu.device.GPUDevice.solo_window`): a kernel alone
        on the device runs exactly as :meth:`_submit` would run it (a
        subclass that changes :meth:`_submit` must decline)."""
        return self.device.solo_window()

    def _submit(self, info: ClientInfo, descriptor: KernelDescriptor,
                on_done: Callable[[], None]) -> None:
        priority = int(info.priority) if self.priority_aware else 0
        launch = DeviceLaunch(
            descriptor,
            client_id=info.client_id,
            priority=priority,
            on_complete=lambda _launch: on_done(),
        )
        self.device.submit(launch)
