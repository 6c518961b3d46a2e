"""A deliberately naive reference device: one event per wave.

:class:`ReferenceDevice` models what :class:`~repro.gpu.device.GPUDevice`
computes, written for clarity instead of speed, so that the device's
shortcuts have an independent oracle:

* every ORIGINAL wave and every PTB iteration is its own event on the
  event loop — no wave records, settle loop, refill walk or inline
  path;
* the blocks one dispatch starts together are a *chunk*: wave ``k`` of
  a chunk ends at ``base + d * k``, and ``base`` moves to the boundary
  only when the price ``d`` changes.  After an ORIGINAL wave's boundary
  the first batch the dispatch starts for the same launch continues
  that wave's chunk; PTB workers continue theirs until they exit;
* dispatch scans the resident launches level by level: strict priority
  between levels, round-robin shares within one, the coalescing minimum
  (an eighth of the kernel's capacity) for partial chunks.  A level
  holding a launch that could still start a dispatchable chunk in the
  free pool stops the scan, as the invariant checker's strict-priority
  rule intends;
* the price is the block duration, times ``colocation_slowdown`` while
  another client has blocks in flight and times the speed factor (for
  PTB, one iteration of it); a wave keeps the price it started with;
* busy time is the integral of the busy-thread count, a step function
  whose steps are taken where the count after an instant differs from
  the count before it.

Where the device's group dispatch lets a lower level start below a
level that could still start a chunk (ROADMAP item 8), the reference
keeps strict priority and sets :attr:`ReferenceDevice.diverged`: from
there on the two may differ for that known reason only.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from ..gpu.device import DeviceLaunch, LaunchStatus
from ..gpu.kernel import PTB_ITERATION_OVERHEAD
from ..gpu.specs import GPUSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gpu.engine import EventLoop

__all__ = ["ReferenceDevice"]


class ReferenceDevice:
    """The per-wave device model, one event per wave or iteration.

    It drives the same :class:`~repro.gpu.device.DeviceLaunch` records
    and answers the same questions (``threads_free``, ``slots_free``,
    ``resident_launches``, ``utilization()``) as the device."""

    def __init__(self, spec: GPUSpec, engine: "EventLoop", *,
                 colocation_slowdown: float = 1.15) -> None:
        self.spec = spec
        self.engine = engine
        self.colocation_slowdown = colocation_slowdown
        self.speed_factor = 1.0
        self.threads_free = spec.total_threads
        self.slots_free = spec.total_block_slots
        #: arrived, unfinished launches
        self.resident: list[DeviceLaunch] = []
        #: blocks in flight per client
        self.inflight: dict[str, int] = {}
        #: launches submitted per client, still in their launch overhead
        self.submitting: dict[str, int] = {}
        self.rr = 0
        #: ``(time, busy threads from then on)``, one step per instant
        #: at which the count changed
        self.steps: list[tuple[float, int]] = [(0.0, 0)]
        self.launches_completed = 0
        #: ``(launch, base, d, k)`` of the ORIGINAL wave whose boundary
        #: is dispatching
        self.refill: tuple | None = None
        #: why the device may differ from here on, or None
        self.diverged: str | None = None

    # ------------------------------------------------------------------
    # What the device is asked
    # ------------------------------------------------------------------
    @property
    def resident_launches(self) -> tuple[DeviceLaunch, ...]:
        return tuple(self.resident)

    def set_speed_factor(self, factor: float) -> None:
        self.speed_factor = factor

    def utilization(self) -> float:
        now = self.engine.now
        if now <= 0:
            return 0.0
        seconds = 0.0
        for (start, busy), (end, _next) in zip(self.steps, self.steps[1:]):
            seconds += busy * (end - start)
        start, busy = self.steps[-1]
        seconds += busy * (now - start)
        return seconds / (now * self.spec.total_threads)

    # ------------------------------------------------------------------
    # What the device is told
    # ------------------------------------------------------------------
    def submit(self, launch: DeviceLaunch, *,
               launch_overhead: float | None = None) -> None:
        overhead = (self.spec.kernel_launch_overhead
                    if launch_overhead is None else launch_overhead)
        launch.submitted_at = self.engine.now
        self.submitting[launch.client_id] = (
            self.submitting.get(launch.client_id, 0) + 1)
        self.engine.schedule(overhead, lambda: self._arrive(launch))

    def preempt(self, launch: DeviceLaunch) -> bool:
        if launch.done:
            return True
        launch.preempt_requested = True
        if launch.blocks_inflight == 0 and not math.isnan(launch.arrived_at):
            self._finalize(launch)
        return True

    def kill(self, launch: DeviceLaunch) -> None:
        if launch.done:
            return
        launch.preempt_requested = True
        launch.killed = True
        if launch.blocks_inflight:
            self._free(launch, launch.blocks_inflight)
            launch.blocks_killed += launch.blocks_inflight
            launch.blocks_inflight = 0
            self._note_busy()
        if not math.isnan(launch.arrived_at):
            self._finalize(launch)

    # ------------------------------------------------------------------
    # The model
    # ------------------------------------------------------------------
    def _arrive(self, launch: DeviceLaunch) -> None:
        launch.arrived_at = self.engine.now
        self.submitting[launch.client_id] -= 1
        self.resident.append(launch)
        self.resident.sort(key=lambda l: (l.priority, l.seq))
        if launch.preempt_requested and launch.blocks_inflight == 0:
            self._finalize(launch)
        else:
            self._dispatch()

    def _note_busy(self) -> None:
        """Record the busy count after a change at ``now``."""
        now = self.engine.now
        busy = self.spec.total_threads - self.threads_free
        if self.steps[-1][0] == now:
            self.steps.pop()
        if not self.steps or self.steps[-1][1] != busy:
            self.steps.append((now, busy))

    def _free(self, launch: DeviceLaunch, count: int) -> None:
        self.threads_free += count * launch.descriptor.threads_per_block
        self.slots_free += count
        self.inflight[launch.client_id] -= count

    def _price(self, launch: DeviceLaunch) -> float:
        d = launch.descriptor.block_duration
        if any(client != launch.client_id and blocks > 0
               for client, blocks in self.inflight.items()):
            d *= self.colocation_slowdown
        if self.speed_factor != 1.0:
            d *= self.speed_factor
        if launch.is_ptb:
            d = (d * (1.0 + launch.descriptor.ptb_overhead_fraction)
                 + PTB_ITERATION_OVERHEAD)
        return d

    def _waiting(self, launch: DeviceLaunch) -> bool:
        return launch.blocks_to_start > 0 and not launch.preempt_requested

    def _fit(self, launch: DeviceLaunch) -> int:
        return min(self.threads_free // launch.descriptor.threads_per_block,
                   self.slots_free, launch.blocks_to_start)

    def _min_chunk(self, launch: DeviceLaunch) -> int:
        capacity = self.spec.concurrent_blocks(
            launch.descriptor.threads_per_block,
            launch.descriptor.shared_mem_per_block)
        return min(launch.blocks_to_start, max(1, capacity // 8))

    def _could_start(self, launch: DeviceLaunch) -> bool:
        return self._waiting(launch) and self._fit(launch) >= self._min_chunk(
            launch)

    def _dispatch(self) -> None:
        levels = sorted({l.priority for l in self.resident})
        for priority in levels:
            if self.slots_free <= 0:
                return
            level = [l for l in self.resident
                     if l.priority == priority and self._waiting(l)]
            if len(level) == 1:
                launch = level[0]
                fit = self._fit(launch)
                if fit > 0 and fit >= self._min_chunk(launch):
                    self._start(launch, fit)
            elif level:
                self._dispatch_level(level)
            if any(self._could_start(l) for l in level):
                # the device goes on to the waiting launches below
                if any(l.priority > priority and self._waiting(l)
                       for l in self.resident):
                    self.diverged = "ROADMAP item 8"
                return

    def _dispatch_level(self, level: list[DeviceLaunch]) -> None:
        """Round-robin shares of the free slots: each pass offers every
        launch still waiting an equal share, rotated one place per
        dispatch of a level, until a pass starts nothing."""
        self.rr = (self.rr + 1) % len(level)
        order = level[self.rr:] + level[:self.rr]
        started = True
        while started and self.slots_free > 0:
            started = False
            pending = [l for l in order if l.blocks_to_start > 0]
            if not pending:
                return
            share = max(1, self.slots_free // len(pending))
            for launch in pending:
                fit = self._fit(launch)
                if len(pending) > 1:
                    fit = min(fit, share)
                if fit > 0 and fit >= self._min_chunk(launch):
                    self._start(launch, fit)
                    started = True

    def _start(self, launch: DeviceLaunch, count: int) -> None:
        now = self.engine.now
        self.threads_free -= count * launch.descriptor.threads_per_block
        self.slots_free -= count
        self.inflight[launch.client_id] = (
            self.inflight.get(launch.client_id, 0) + count)
        launch.blocks_to_start -= count
        launch.blocks_inflight += count
        if launch.status is LaunchStatus.PENDING:
            launch.status = LaunchStatus.RUNNING
            launch.started_at = now
        self._note_busy()
        d = self._price(launch)
        base, k = now, 1
        if self.refill is not None and self.refill[0] is launch:
            _launch, chunk_base, chunk_d, chunk_k = self.refill
            self.refill = None
            if chunk_d == d:
                base, k = chunk_base, chunk_k + 1
        self._schedule(launch, count, base, d, k)

    def _schedule(self, launch: DeviceLaunch, count: int, base: float,
                  d: float, k: int) -> None:
        done: Callable[[], None]
        if launch.is_ptb:
            done = lambda: self._iteration_done(launch, count, base, d, k)
        else:
            done = lambda: self._wave_done(launch, count, base, d, k)
        self.engine.schedule_at(base + d * k, done)

    def _wave_done(self, launch: DeviceLaunch, count: int, base: float,
                   d: float, k: int) -> None:
        if launch.killed:
            return
        self._free(launch, count)
        launch.blocks_inflight -= count
        launch.blocks_done += count
        self._note_busy()
        if launch.blocks_inflight == 0 and (launch.blocks_to_start == 0
                                            or launch.preempt_requested):
            self._finalize(launch)
        else:
            self.refill = (launch, base, d, k)
            self._dispatch()
            self.refill = None

    def _iteration_done(self, launch: DeviceLaunch, workers: int,
                        base: float, d: float, k: int) -> None:
        if launch.killed:
            return
        launch.tasks_done = min(launch.tasks_done + workers,
                                launch.total_blocks)
        launch.blocks_done = launch.tasks_done
        if (launch.preempt_requested
                or launch.tasks_done >= launch.total_blocks):
            self._free(launch, workers)
            launch.blocks_inflight -= workers
            self._note_busy()
            if launch.blocks_inflight == 0:
                self._finalize(launch)
            else:
                self._dispatch()
            return
        price = self._price(launch)
        if price != d:
            base, d, k = self.engine.now, price, 0
        self._schedule(launch, workers, base, d, k + 1)

    def _finalize(self, launch: DeviceLaunch) -> None:
        launch.status = (LaunchStatus.COMPLETED if launch.tasks_remaining <= 0
                         else LaunchStatus.PREEMPTED)
        launch.finished_at = self.engine.now
        if launch in self.resident:
            self.resident.remove(launch)
        self.launches_completed += 1
        self._dispatch()
        if launch.on_complete is not None:
            launch.on_complete(launch)
