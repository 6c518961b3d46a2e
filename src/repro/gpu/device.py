"""Discrete-event GPU device model.

The device is a pool of resident-block slots and threads (per
:class:`~repro.gpu.specs.GPUSpec`).  Submitted launches dispatch thread
blocks into free slots in (priority, submission) order — exactly the
mechanism by which a long-running best-effort kernel delays a
high-priority kernel on real hardware: the high-priority blocks must
wait for resident blocks to drain.

Two launch kinds are modelled:

* ``ORIGINAL`` — every grid block is dispatched once; the blocks a
  dispatch starts together run as one wave and complete together.
* ``PTB`` — ``workers`` persistent blocks hold their slots and consume
  one logical block each per iteration; a preemption request makes the
  workers exit after the iteration in flight, bounding turnaround at
  one iteration.

Both run as *chunks*: the blocks (or workers) started together, one
wave (iteration) after another.  Wave ``k`` of a chunk ends at ``base +
d * k``, in closed form; ``base`` moves to the boundary only when the
price ``d`` changes (a co-location flip or a speed change), and the
batch that the dispatch after an ORIGINAL boundary starts first for the
same launch continues its chunk.  Every wave or iteration in flight is
a *record* in a device-private heap behind one proxy event, keyed as
its own event would be.  The *settle loop* runs the boundaries in key
order without touching the event heap, and advances a chunk whose
boundaries only restart it in one step (see ``docs/performance.md``,
"Wave records").  ``EventLoop.events_processed`` counts every boundary,
executed or credited.

Slicing is realized above the device as a chain of ORIGINAL launches
over block sub-ranges (see :mod:`repro.core.scheduler`).

An idle, uninstrumented device can also run launches that would start
alone on it (a passthrough policy's kernels, a Tally high-priority
client's, a Tally best-effort client's slices, PTB launch or whole
launch) *inline*, a trace's whole stretch of them in one walk
(:meth:`GPUDevice.run_trace`): when the event loop proves that nothing
else runs before a launch ends, its completion time and busy time
follow from the same closed form without any event at all.

A mild ``colocation_slowdown`` factor inflates block durations while
blocks of more than one client are resident, standing in for memory
bandwidth and L2 contention that the slot model does not capture.
"""

from __future__ import annotations

import enum
import itertools
import math
from bisect import bisect_right, insort
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable

from ..check.invariants import InvariantChecker, NULL_CHECKER
from ..errors import GPUSimError
from ..faults.injector import FaultInjector, NULL_INJECTOR
from .. import trace
from ..trace import NULL_TRACER, Tracer
from .engine import Event, EventLoop
from .kernel import (
    KernelDescriptor,
    LaunchConfig,
    LaunchKind,
    PTB_ITERATION_OVERHEAD,
)
from .specs import GPUSpec

__all__ = ["LaunchStatus", "DeviceLaunch", "GPUDevice"]

_priority = attrgetter("priority")

#: bound on each of a device's solo plan caches (see
#: :meth:`GPUDevice._cache_plan`)
_SOLO_PLANS_MAX = 4096


class LaunchStatus(enum.Enum):
    """Lifecycle of a device launch."""

    PENDING = "pending"  # submitted, not yet dispatched
    RUNNING = "running"
    COMPLETED = "completed"
    PREEMPTED = "preempted"  # stopped early; progress recorded


class DeviceLaunch:
    """One kernel launch resident on (or queued for) the device."""

    __slots__ = (
        "descriptor", "config", "client_id", "priority", "on_complete",
        "total_blocks", "block_offset", "blocks_to_start", "blocks_inflight",
        "blocks_done", "tasks_done", "preempt_requested", "killed",
        "blocks_killed", "status", "submitted_at", "arrived_at",
        "started_at", "finished_at", "seq", "is_ptb",
    )

    _seq = itertools.count()

    def __init__(
        self,
        descriptor: KernelDescriptor,
        config: LaunchConfig = LaunchConfig(),
        *,
        client_id: str = "default",
        priority: int = 0,
        on_complete: Callable[["DeviceLaunch"], None] | None = None,
        blocks: int | None = None,
        block_offset: int = 0,
    ) -> None:
        self.descriptor = descriptor
        self.config = config
        self.client_id = client_id
        self.priority = priority
        self.on_complete = on_complete
        self.total_blocks = (descriptor.num_blocks if blocks is None
                             else blocks)
        if self.total_blocks < 1:
            raise GPUSimError(f"{descriptor.name}: launch needs >= 1 block")
        self.block_offset = block_offset
        self.is_ptb = config.kind is LaunchKind.PTB
        if self.is_ptb:
            self.blocks_to_start = min(config.workers, self.total_blocks)
        else:
            self.blocks_to_start = self.total_blocks
        self.blocks_inflight = 0
        self.blocks_done = 0
        self.tasks_done = 0
        self.preempt_requested = False
        self.killed = False
        self.blocks_killed = 0
        self.status = LaunchStatus.PENDING
        self.submitted_at = float("nan")
        self.arrived_at = float("nan")
        self.started_at = float("nan")
        self.finished_at = float("nan")
        self.seq = next(DeviceLaunch._seq)

    # ------------------------------------------------------------------
    @property
    def tasks_remaining(self) -> int:
        """Logical blocks not yet executed (PTB progress; for resume)."""
        if self.is_ptb:
            return self.total_blocks - self.tasks_done
        return self.total_blocks - self.blocks_done

    @property
    def done(self) -> bool:
        return self.status in (LaunchStatus.COMPLETED, LaunchStatus.PREEMPTED)

    def sort_key(self) -> tuple[int, int]:
        return (self.priority, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DeviceLaunch {self.descriptor.name} {self.config.kind.value}"
                f" client={self.client_id} {self.status.value}>")


class GPUDevice:
    """The simulated GPU."""

    def __init__(self, spec: GPUSpec, engine: EventLoop, *,
                 colocation_slowdown: float = 1.15,
                 tracer: Tracer | None = None,
                 check: InvariantChecker | None = None,
                 faults: FaultInjector | None = None) -> None:
        if colocation_slowdown < 1.0:
            raise GPUSimError("colocation_slowdown must be >= 1.0")
        self.spec = spec
        self.engine = engine
        self.colocation_slowdown = colocation_slowdown
        #: transient health multiplier on block durations (1.0 = healthy);
        #: set by cluster-level fault injection via :meth:`set_speed_factor`
        self._speed_factor = 1.0
        #: shared observability channel; policies and drivers emit to
        #: ``device.tracer`` too, so one tracer sees the whole run
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: opt-in invariant checker (``repro.check``); the disabled
        #: default costs one attribute check per instrumentation site
        self.check = check if check is not None else NULL_CHECKER
        #: opt-in fault injector (``repro.faults``); same disabled
        #: default pattern, same zero-cost fault-free path
        self.faults = faults if faults is not None else NULL_INJECTOR
        self._total_threads = spec.total_threads
        self._threads_free = spec.total_threads
        self._slots_free = spec.total_block_slots
        self._resident: list[DeviceLaunch] = []  # sorted by (priority, seq)
        #: the resident launches still *waiting* — blocks left to start
        #: and no preemption request — in the same order; dispatch and
        #: the settle loop's tests read it instead of scanning
        #: ``_resident`` (a launch never waits again once it stops).
        #: Replaced, never changed in place, so that a dispatch in
        #: progress sees a launch leave (see :meth:`_unwait`)
        self._waiting: list[DeviceLaunch] = []
        self._client_inflight: dict[str, int] = {}
        #: number of clients with at least one block in flight — kept
        #: incrementally so the co-location test is O(1), not a scan
        self._active_clients = 0
        #: launches submitted but still in their launch-overhead delay
        self._submitting: dict[str, int] = {}
        #: device-wide capacity per *occupancy key* — the full tuple of
        #: per-kernel quantities occupancy depends on in this model
        #: (threads per block, shared memory per block); keying on
        #: threads alone would alias kernels whose shared-memory
        #: pressure lowers their occupancy
        self._capacity_cache: dict[tuple[int, int], int] = {}
        #: solo plans of ORIGINAL and PTB launches, keyed on
        #: (descriptor, blocks or workers, threads free, slots free),
        #: the plan lists of sliced chains and of :meth:`run_trace`'s
        #: traces (:meth:`_chain_plan`, :meth:`_trace_plan`), and the
        #: walk's free-pool tokens; they also depend on the speed
        #: factor, so :meth:`set_speed_factor` drops them
        self._solo_plans: dict[tuple, tuple] = {}
        self._ptb_plans: dict[tuple, tuple | None] = {}
        self._plan_lists: dict[tuple, tuple] = {}
        #: heap of wave records ``(end, born, seq, launch, count, base,
        #: d, k)``, one per wave or PTB iteration in flight: wave ``k``
        #: of a chunk of ``count`` blocks (workers) priced ``d`` from
        #: ``base``, ending at ``base + d * k`` and keyed as its own
        #: completion event would be; the proxy event stands for the
        #: earliest, unless the settle loop is running (see
        #: :meth:`_settle_waves`)
        self._waves: list[tuple] = []
        self._proxy: Event | None = None
        #: the record whose boundary the settle loop's full body is
        #: running: the first batch the dispatch after it starts for
        #: the same launch continues its chunk (see :meth:`_start_batch`)
        self._refill: tuple | None = None
        self._rr = 0  # round-robin cursor for same-priority fairness
        # Utilization accounting (see :meth:`_account`): busy
        # thread-seconds up to ``_last_change``, since which
        # ``_busy_level`` threads were busy until ``_touched``, the last
        # instant at which the count may have changed.
        self._busy_thread_seconds = 0.0
        self._last_change = 0.0
        self._busy_level = 0
        self._touched = 0.0
        self.launches_completed = 0
        #: events :meth:`run_trace` stands for (each launch's arrival
        #: and its boundaries), which a run-ahead stretch credits
        self.inline_events = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def speed_factor(self) -> float:
        """Current health multiplier on block durations (1.0 = healthy)."""
        return self._speed_factor

    def set_speed_factor(self, factor: float) -> None:
        """Degrade (or restore) the device: blocks take ``factor``× longer.

        Models a transiently slow device — thermal throttling, ECC
        retirement storms, a noisy host neighbour — for cluster-level
        fault injection (:mod:`repro.faults`).  The factor follows the
        co-location pricing rule: waves and iterations already in flight
        keep the price they started with, and the next ones take the new
        price.  Passing
        ``1.0`` restores full speed; runs that never call this method pay
        nothing on the hot path (a single ``!= 1.0`` test).
        """
        if factor <= 0.0:
            raise GPUSimError(f"speed factor must be > 0, got {factor!r}")
        if factor == self._speed_factor:
            return
        self._speed_factor = factor
        self._solo_plans.clear()
        self._ptb_plans.clear()
        self._plan_lists.clear()

    def submit(self, launch: DeviceLaunch, *,
               launch_overhead: float | None = None) -> DeviceLaunch:
        """Queue a launch; it reaches the device after the launch overhead."""
        if launch.status is not LaunchStatus.PENDING or not math.isnan(
                launch.submitted_at):
            raise GPUSimError(f"launch {launch!r} already submitted")
        overhead = (self.spec.kernel_launch_overhead
                    if launch_overhead is None else launch_overhead)
        launch.submitted_at = self.engine.now
        if self.tracer.enabled:
            self.tracer.emit(trace.KernelSubmit(
                ts=self.engine.now, client_id=launch.client_id,
                kernel=launch.descriptor.name, launch_seq=launch.seq,
                kind=launch.config.kind.value, priority=launch.priority,
                blocks=launch.total_blocks,
                block_offset=launch.block_offset,
                workers=launch.config.workers,
            ))
        self._submitting[launch.client_id] = (
            self._submitting.get(launch.client_id, 0) + 1
        )
        self.engine.schedule(overhead, lambda: self._arrive(launch))
        if self.check.enabled:
            self.check.verify(self)
        return launch

    def preempt(self, launch: DeviceLaunch) -> bool:
        """Request preemption: no new blocks start; in-flight blocks finish.

        For PTB launches workers exit after their current iteration, so
        the device is released within one block duration.  For ORIGINAL
        launches only not-yet-started blocks are cancelled (real GPUs
        cannot stop a running block), and progress is recorded so a
        sliced execution can continue from ``blocks_done``.

        Returns True when the request took effect.  Under fault
        injection a PTB flag write can be *lost* (the workers never see
        it): the device emits :class:`~repro.trace.PreemptLost` and
        returns False with the launch untouched — no ack will ever
        arrive, which is the condition the scheduler's watchdog exists
        to recover from.
        """
        if launch.done:
            return True
        if self.tracer.enabled and not launch.preempt_requested:
            self.tracer.emit(trace.PreemptRequest(
                ts=self.engine.now, client_id=launch.client_id,
                kernel=launch.descriptor.name, launch_seq=launch.seq,
                mechanism="ptb-flag" if launch.is_ptb else "drain",
            ))
        if (self.faults.enabled and launch.is_ptb
                and launch.blocks_inflight > 0
                and not launch.preempt_requested
                and self.faults.lost_preempt_ack()):
            if self.tracer.enabled:
                self.tracer.emit(trace.PreemptLost(
                    ts=self.engine.now, client_id=launch.client_id,
                    kernel=launch.descriptor.name, launch_seq=launch.seq,
                    mechanism="ptb-flag",
                ))
            return False
        launch.preempt_requested = True
        self._update_waiting(launch)
        # PTB workers see the flag at their next iteration boundary.
        # If nothing is in flight and the launch has already reached the
        # device (it may have been starved of slots and never started),
        # retire it immediately; a launch still in its submission delay
        # is retired by _arrive instead.
        if launch.blocks_inflight == 0 and not math.isnan(launch.arrived_at):
            self._finalize(launch)
        if self.check.enabled:
            self.check.verify(self)
        return True

    def kill(self, launch: DeviceLaunch) -> None:
        """Reset-based preemption (REEF-style): discard in-flight work.

        All of the launch's resident blocks terminate immediately and
        their partial work is lost — only sound for *idempotent*
        kernels, which is exactly the applicability restriction the
        paper criticizes REEF for.  The launch retires as PREEMPTED with
        ``blocks_done`` counting only fully completed blocks, so a
        restart re-executes everything else.
        """
        if launch.done:
            return
        if self.tracer.enabled and not launch.preempt_requested:
            self.tracer.emit(trace.PreemptRequest(
                ts=self.engine.now, client_id=launch.client_id,
                kernel=launch.descriptor.name, launch_seq=launch.seq,
                mechanism="kill",
            ))
        launch.preempt_requested = True
        launch.killed = True
        self._update_waiting(launch)
        if launch.blocks_inflight > 0:
            # The waves' (iterations') boundaries still run, but the
            # resources are returned now and the boundaries become
            # no-ops: the wave (iteration) in flight is lost.
            self._account()
            tpb = launch.descriptor.threads_per_block
            self._threads_free += launch.blocks_inflight * tpb
            self._slots_free += launch.blocks_inflight
            self._sub_inflight(launch.client_id, launch.blocks_inflight)
            launch.blocks_killed += launch.blocks_inflight
            launch.blocks_inflight = 0
        if not math.isnan(launch.arrived_at):
            self._finalize(launch)
        if self.check.enabled:
            self.check.verify(self)

    def busy_for_client(self, client_id: str) -> bool:
        """Whether ``client_id`` has a launch resident **or** still in
        its submission delay.

        A launch between :meth:`submit` and its arrival on the device
        counts as busy, so policies polling this cannot double-dispatch
        a client during the launch-overhead window.
        """
        if self._submitting.get(client_id, 0) > 0:
            return True
        return any(l.client_id == client_id for l in self._resident)

    def resident_for(self, client_id: str) -> list[DeviceLaunch]:
        """The client's resident, unfinished launches (for cleanup)."""
        return [l for l in self._resident
                if l.client_id == client_id and not l.done]

    @property
    def threads_free(self) -> int:
        return self._threads_free

    @property
    def slots_free(self) -> int:
        return self._slots_free

    @property
    def resident_launches(self) -> tuple[DeviceLaunch, ...]:
        return tuple(self._resident)

    def utilization(self) -> float:
        """Mean fraction of thread capacity busy since t=0.

        A pure read: it adds the busy time since the last change without
        folding it into the running sum, so reading it (the invariant
        checker does after every event) cannot move a later reading."""
        now = self.engine.now
        if now <= 0:
            return 0.0
        busy = self._total_threads - self._threads_free
        level = self._busy_level
        last = self._last_change
        if busy == level:
            seconds = self._busy_thread_seconds + level * (now - last)
        else:
            touched = self._touched
            seconds = (self._busy_thread_seconds + level * (touched - last)
                       + busy * (now - touched))
        return seconds / (now * self._total_threads)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _account(self) -> None:
        """Note that the busy thread count may change now, before it
        does.

        Busy time accrues only where the count changes: when the count
        after the last instant noted differs from the one before it, the
        stretch up to that instant is added to the sum.  Changes that
        cancel out at one instant (a wave released and restarted) add
        nothing, so the sum does not depend on which boundaries run."""
        now = self.engine.now
        touched = self._touched
        if now != touched:
            busy = self._total_threads - self._threads_free
            level = self._busy_level
            if busy != level:
                self._busy_thread_seconds += level * (
                    touched - self._last_change)
                self._last_change = touched
                self._busy_level = busy
            self._touched = now

    def _sub_inflight(self, client_id: str, count: int) -> None:
        """Decrement a client's in-flight blocks; track 0-transitions."""
        inflight = self._client_inflight
        left = inflight[client_id] - count
        inflight[client_id] = left
        if left == 0 and count > 0:
            self._active_clients -= 1

    def _arrive(self, launch: DeviceLaunch) -> None:
        launch.arrived_at = self.engine.now
        self._submitting[launch.client_id] -= 1
        insort(self._resident, launch, key=DeviceLaunch.sort_key)
        if launch.blocks_to_start > 0 and not launch.preempt_requested:
            waiting = self._waiting[:]
            insort(waiting, launch, key=DeviceLaunch.sort_key)
            self._waiting = waiting
        if launch.preempt_requested and launch.blocks_inflight == 0:
            # Preempted before it ever dispatched.
            self._finalize(launch)
        else:
            self._dispatch()
        if self.check.enabled:
            self.check.verify(self)

    def _capacity(self, threads_per_block: int,
                  shared_mem_per_block: int = 0) -> int:
        key = (threads_per_block, shared_mem_per_block)
        cached = self._capacity_cache.get(key)
        if cached is None:
            cached = self.spec.concurrent_blocks(threads_per_block,
                                                 shared_mem_per_block)
            self._capacity_cache[key] = cached
        return cached

    def _dispatch(self) -> None:
        """Start pending blocks: strict priority between levels, fair
        round-robin within a level (concurrent grids on real hardware
        interleave their blocks rather than strictly serializing).

        Only waiting launches are visited, level by level: with nothing
        waiting a release dispatches nothing, and freed slots go
        straight to the one launch of a level.  A level whose one launch
        fits no block's threads is skipped; a level of several always
        runs :meth:`_dispatch_group`, which turns the round-robin cursor
        even when it starts nothing."""
        waiting = self._waiting
        n = len(waiting)
        i = 0
        while i < n and self._slots_free > 0:
            launch = waiting[i]
            priority = launch.priority
            j = i + 1
            while j < n and waiting[j].priority == priority:
                j += 1
            if j > i + 1:
                self._dispatch_group(waiting[i:j])
            elif self._threads_free >= launch.descriptor.threads_per_block:
                self._dispatch_single(launch)
            if self._waiting is waiting:
                i = j
            else:
                # launches stopped waiting: go on after this level in
                # the list as it is now, should one below have left too
                waiting = self._waiting
                n = len(waiting)
                i = bisect_right(waiting, priority, key=_priority)

    def _dispatch_single(self, launch: DeviceLaunch) -> None:
        """Fast path: one launch wants blocks at this priority level."""
        descriptor = launch.descriptor
        tpb = descriptor.threads_per_block
        left = launch.blocks_to_start
        fit = self._threads_free // tpb
        if fit > self._slots_free:
            fit = self._slots_free
        if fit >= left:
            fit = left  # a remainder that fits goes whole
        elif fit <= 0:
            return
        else:
            # Coalesce: avoid shredding big grids into slivers (each
            # batch is one simulation event): a part of what is left
            # starts only if it is an eighth of the capacity or more.
            key = (tpb, descriptor.shared_mem_per_block)
            capacity = self._capacity_cache.get(key)
            if capacity is None:
                capacity = self._capacity(*key)
            if fit < capacity // 8:
                return
        self._start_batch(launch, fit)

    def _dispatch_group(self, group: list[DeviceLaunch]) -> None:
        self._rr = (self._rr + 1) % len(group)
        group = group[self._rr:] + group[:self._rr]
        progress = True
        while progress and self._slots_free > 0:
            progress = False
            pending = [l for l in group if l.blocks_to_start > 0]
            if not pending:
                return
            share = max(1, self._slots_free // len(pending))
            for launch in pending:
                tpb = launch.descriptor.threads_per_block
                fit = min(
                    self._threads_free // tpb,
                    self._slots_free,
                    launch.blocks_to_start,
                )
                if len(pending) > 1:
                    fit = min(fit, share)
                if fit <= 0:
                    continue
                min_chunk = min(
                    launch.blocks_to_start,
                    max(1, self._capacity(
                        tpb, launch.descriptor.shared_mem_per_block) // 8),
                )
                if fit < min_chunk:
                    continue
                self._start_batch(launch, fit)
                progress = True

    def _block_duration(self, launch: DeviceLaunch) -> float:
        duration = launch.descriptor.block_duration
        # co-located: some other client has blocks in flight
        active = self._active_clients
        if active > 1 or (active == 1 and self._client_inflight.get(
                launch.client_id, 0) == 0):
            duration *= self.colocation_slowdown
        if self._speed_factor != 1.0:
            duration *= self._speed_factor
        return duration

    def _start_batch(self, launch: DeviceLaunch, count: int) -> None:
        """Start ``count`` blocks (PTB workers) of ``launch`` as one
        wave: a new chunk from now, or, for the first batch of the
        launch whose boundary the settle loop is running
        (``_refill``), that chunk's next wave if its price is
        unchanged."""
        if self.check.enabled:
            self.check.verify_dispatch(self, launch)
        engine = self.engine
        now = engine.now
        touched = self._touched
        if now != touched:  # _account(), inline
            busy = self._total_threads - self._threads_free
            level = self._busy_level
            if busy != level:
                self._busy_thread_seconds += level * (
                    touched - self._last_change)
                self._last_change = touched
                self._busy_level = busy
            self._touched = now
        tpb = launch.descriptor.threads_per_block
        self._threads_free -= count * tpb
        self._slots_free -= count
        left = launch.blocks_to_start - count
        launch.blocks_to_start = left
        if not left:
            self._unwait(launch)
        launch.blocks_inflight += count
        inflight = self._client_inflight
        prev = inflight.get(launch.client_id, 0)
        inflight[launch.client_id] = prev + count
        if prev == 0:
            self._active_clients += 1
        if launch.status is LaunchStatus.PENDING:
            launch.status = LaunchStatus.RUNNING
            launch.started_at = now
            if self.tracer.enabled:
                self.tracer.emit(trace.KernelStart(
                    ts=now, client_id=launch.client_id,
                    kernel=launch.descriptor.name, launch_seq=launch.seq,
                    blocks=launch.total_blocks,
                ))

        if launch.is_ptb:
            d = self._ptb_iteration_duration(launch)
        else:
            d = self._block_duration(launch)
        base = now
        k = 1
        chunk = self._refill
        if chunk is not None and chunk[3] is launch:
            self._refill = None
            if chunk[6] == d:
                base = chunk[5]
                k = chunk[7] + 1
        # the sequence number the wave's own event would take, inline
        seq = engine._seq
        engine._seq = seq + 1
        self._push_wave((base + d * k, now, seq, launch, count, base, d, k))

    def solo_window(self) -> tuple[float, bool] | None:
        """The window (see :meth:`EventLoop.quiet_until`) in which
        :meth:`run_trace` may settle kernels inline, or None: the device
        must be idle — nothing resident, nothing in its submission
        delay — and run without tracer, checker or fault injector,
        whose observations the event path alone produces."""
        if (self._resident or self.tracer is not NULL_TRACER
                or self.check is not NULL_CHECKER
                or self.faults is not NULL_INJECTOR
                or any(self._submitting.values())):
            return None
        return self.engine.quiet_until()

    def launch_plans(self, descriptor: KernelDescriptor, per: int = 0,
                     workers: int = 0) -> tuple | list | None:
        """The plans of the launches one kernel of ``descriptor`` makes
        alone on this idle device's free pool, for :meth:`run_trace`:
        ORIGINAL launches of ``per`` blocks each, the last taking the
        rest (a sliced kernel's chain; one launch of the whole grid if
        ``per`` is 0), each submitted when the previous one completes,
        or one PTB launch of ``workers`` persistent blocks over the
        whole grid — None if its workers do not all fit at once (they
        would start in groups, on the event path).

        Each ORIGINAL launch starts the chunk :meth:`_dispatch_single`
        starts on an idle device, from its arrival: wave ``k`` ends at
        ``arrival + d * k``, its partial last wave included; a PTB
        launch's iterations are one chunk priced by
        :meth:`_ptb_iteration`.  The plans are cached per (descriptor,
        ``per`` or ``workers``, free pool) and speed factor."""
        if workers:
            key = (descriptor, workers, self._threads_free,
                   self._slots_free)
            try:
                plan = self._ptb_plans[key]
            except KeyError:
                plan = self._ptb_plan(key)
            return None if plan is None else (plan,)
        key = (descriptor, per or descriptor.num_blocks, self._threads_free,
               self._slots_free)
        entry = self._plan_lists.get(key)
        return entry[1] if entry else self._chain_plan(key)

    def _solo_plan(self, key: tuple) -> tuple:
        """Plan and cache an ORIGINAL launch of ``blocks`` blocks alone
        on the device for ``key = (descriptor, blocks, threads free,
        slots free)``: ``(span, tail_span, busy, wave_busy, tail_busy,
        events)`` — the ends of the whole waves and of the partial wave
        (None if none) from the arrival, the busy threads before the
        launch, during its whole waves and during its partial wave, and
        the events it stands for.  The plans depend on the speed factor
        too, so :meth:`set_speed_factor` drops them."""
        descriptor, blocks, threads_free, slots_free = key
        tpb = descriptor.threads_per_block
        count = min(threads_free // tpb, slots_free, blocks)
        d = descriptor.block_duration
        if self._speed_factor != 1.0:
            d *= self._speed_factor
        waves, tail = divmod(blocks, count)
        busy = self._total_threads - threads_free
        plan = (d * waves, d * (waves + 1) if tail else None, busy,
                busy + count * tpb, busy + tail * tpb,
                1 + waves + (tail > 0))
        self._cache_plan(self._solo_plans, key, plan)
        return plan

    def _chain_plan(self, key: tuple) -> list:
        """Cache and return the :meth:`_solo_plan` of each launch of
        :meth:`launch_plans`'s chain for ``key = (descriptor, per,
        threads free, slots free)``."""
        descriptor, per, threads_free, slots_free = key
        whole, rest = divmod(descriptor.num_blocks, per)
        plans = []
        for blocks, launches in ((per, whole), (rest, rest > 0)):
            if launches:
                launch = (descriptor, blocks, threads_free, slots_free)
                plans += [self._solo_plans.get(launch)
                          or self._solo_plan(launch)] * launches
        self._cache_plan(self._plan_lists, key, (descriptor, plans))
        return plans

    def run_trace(self, workload_trace, index: int, start: float,
                  window: tuple[float, bool], completions: list | None,
                  crosses_gaps: bool, decisions: tuple | None = None
                  ) -> tuple[int, float, int, int]:
        """Walk ``workload_trace``'s ops from ``index`` at ``start`` while
        each ends inside ``window`` (from :meth:`solo_window`); return
        ``(index, end, kernels, gaps)``: the first op left, the last end
        and the ops run.  Host gaps run if ``crosses_gaps``; past the
        last op the walk wraps, appending the time to ``completions``,
        or stops if that is None.  No inline launch moves the free pool.

        Without ``decisions`` each kernel is one ORIGINAL launch of its
        whole grid, planned in the trace's plan list (:meth:`_trace_plan`).
        With them, ``(profiles, decide, fold)`` from a policy that
        decides each kernel's launches (Tally's best-effort clients),
        the walk reads the trace's ops (no plan list) and each kernel
        settles under its descriptor's standing decision,
        ``profiles[descriptor].decision``: a tuple ``(pool, plans, gap,
        measure)`` — the free pool it was planned on (a token of this
        device's, renewed by a new pool or speed factor), the plans of
        the kernel's launches (:meth:`launch_plans`), the time the
        policy adds to each launch's elapsed time, and what ``fold``
        reads.  If there is none for this pool, ``decide(descriptor,
        pool)`` makes one.  Once the kernel's last launch ends inside
        the window, ``fold(measure, longest, active)`` takes the longest
        launch's elapsed time (arrival to completion) and the sum, in
        launch order, of each one's elapsed time plus ``gap``.

        Each launch arrives one launch overhead after the previous end,
        and busy time accrues as :meth:`_account` accrues it, at the
        arrival, at the end of the whole waves if a partial wave
        follows, and at the completion.  The first kernel that would
        end outside ``window`` (or whose plans are None) changes
        nothing; the walk commits once, at its end (inside the window
        nothing can observe the device in between)."""
        solo = decisions is None
        pool = (self._threads_free, self._slots_free)
        if solo:
            key = (id(workload_trace), *pool)
            entry = self._plan_lists.get(key)
            plans = entry[1] if entry else self._trace_plan(workload_trace,
                                                            key)
        else:
            profiles, decide, fold = decisions
            token = self._plan_lists.get(pool)
            if token is None:
                token = pool
                self._cache_plan(self._plan_lists, pool, pool)
        ops = workload_trace.ops
        last = len(ops)
        bound, inclusive = window
        overhead = self.spec.kernel_launch_overhead
        seconds = self._busy_thread_seconds
        changed = self._last_change
        level = self._busy_level
        touched = self._touched
        now = start
        kernels = gaps = events = launches = 0
        while True:
            if index == last:
                if completions is None:
                    break
                index = 0
                completions.append(now)
            plan = plans[index] if solo else ops[index].kernel
            if plan is None:
                end = now + ops[index].gap
                if (not crosses_gaps or end > bound
                        or (end == bound and not inclusive)):
                    break
                gaps += 1
            elif solo:
                # one whole launch: the chain loop below for a one-launch
                # chain, without the loops and the sums no fold reads,
                # which add about a quarter to a solo walk's time (see
                # docs/performance.md, "Standing best-effort decisions")
                span, tail_span, busy, wave_busy, tail_busy, count = plan
                arrived = now + overhead
                end = arrived + (span if tail_span is None else tail_span)
                if end > bound or (end == bound and not inclusive):
                    break
                if arrived != touched:
                    if busy != level:
                        seconds += level * (touched - changed)
                        changed = touched
                        level = busy
                    touched = arrived
                if tail_span is None:
                    final = wave_busy
                else:
                    final = tail_busy
                    waves_end = arrived + span
                    if waves_end != touched:
                        if wave_busy != level:
                            seconds += level * (touched - changed)
                            changed = touched
                            level = wave_busy
                        touched = waves_end
                if end != touched:
                    if final != level:
                        seconds += level * (touched - changed)
                        changed = touched
                        level = final
                    touched = end
                kernels += 1
                events += count
            else:
                profile = profiles.get(plan)
                decision = profile.decision if profile else None
                if decision is None or decision[0] is not token:
                    decision = decide(plan, token)
                _, chain, gap, measure = decision
                if chain is None:
                    break
                end = now
                for launch in chain:
                    end = (end + overhead) + (launch[1] or launch[0])
                if end > bound or (end == bound and not inclusive):
                    break
                longest = active = 0.0
                for span, tail_span, busy, wave_busy, tail_busy, count in chain:
                    arrived = now + overhead
                    now = arrived + (span if tail_span is None else tail_span)
                    if arrived != touched:
                        if busy != level:
                            seconds += level * (touched - changed)
                            changed = touched
                            level = busy
                        touched = arrived
                    if tail_span is None:
                        final = wave_busy
                    else:
                        final = tail_busy
                        waves_end = arrived + span
                        if waves_end != touched:
                            if wave_busy != level:
                                seconds += level * (touched - changed)
                                changed = touched
                                level = wave_busy
                            touched = waves_end
                    if now != touched:
                        if final != level:
                            seconds += level * (touched - changed)
                            changed = touched
                            level = final
                        touched = now
                    elapsed = now - arrived
                    active += elapsed + gap
                    if elapsed > longest:
                        longest = elapsed
                    events += count
                    launches += 1
                fold(measure, longest, active)
                kernels += 1
            now = end
            index += 1
        if kernels:
            self._busy_thread_seconds = seconds
            self._last_change = changed
            self._busy_level = level
            self._touched = touched
            self.launches_completed += kernels if solo else launches
            self.inline_events += events
        return index, now, kernels, gaps

    def _trace_plan(self, workload_trace, key: tuple) -> list:
        """Cache and return a solo :meth:`run_trace`'s plan list of
        ``workload_trace`` for ``key = (trace identity, threads free,
        slots free)``: per op, None for a host gap, and for a kernel its
        :meth:`_solo_plan`.  The entry holds the trace, so the identity
        in its key is not reused while it lives."""
        _, threads_free, slots_free = key
        plans = []
        for op in workload_trace.ops:
            if op.kind == "gap":
                plans.append(None)
            else:
                launch = (op.kernel, op.kernel.num_blocks, threads_free,
                          slots_free)
                plans.append(self._solo_plans.get(launch)
                             or self._solo_plan(launch))
        self._cache_plan(self._plan_lists, key, (workload_trace, plans))
        return plans

    @staticmethod
    def _cache_plan(plans: dict, key: tuple, plan: tuple | None) -> None:
        """Store a solo plan, starting over once the cache is full (a
        bound, far above the distinct launches of any workload)."""
        if len(plans) >= _SOLO_PLANS_MAX:
            plans.clear()
        plans[key] = plan

    def _ptb_plan(self, key: tuple) -> tuple | None:
        """Plan and cache :meth:`launch_plans`'s PTB launch for ``key =
        (descriptor, workers, threads free, slots free)``, in
        :meth:`_solo_plan`'s shape with no partial wave: ``(span, None,
        busy, workers_busy, None, events)`` — its length, the busy
        threads before and during it, and the events it stands for — or
        None if its workers do not all fit."""
        descriptor, workers, threads_free, slots_free = key
        tpb = descriptor.threads_per_block
        blocks = descriptor.num_blocks
        count = min(workers, blocks)
        plan = None
        if count <= threads_free // tpb and count <= slots_free:
            base = descriptor.block_duration
            if self._speed_factor != 1.0:
                base *= self._speed_factor
            busy = self._total_threads - threads_free
            iterations = -(-blocks // count)
            plan = (self._ptb_iteration(descriptor, base) * iterations,
                    None, busy, busy + count * tpb, None, 1 + iterations)
        self._cache_plan(self._ptb_plans, key, plan)
        return plan

    def _unwait(self, launch: DeviceLaunch) -> None:
        """Take waiting ``launch`` out of ``_waiting``."""
        waiting = self._waiting[:]
        waiting.remove(launch)
        self._waiting = waiting

    def _update_waiting(self, launch: DeviceLaunch) -> None:
        """Drop ``launch`` from ``_waiting`` once it has no block left
        to start or a preemption request; call after changing either."""
        if launch in self._waiting and (launch.blocks_to_start <= 0
                                        or launch.preempt_requested):
            self._unwait(launch)

    def _release(self, launch: DeviceLaunch, count: int, threads: int) -> None:
        self._account()
        self._threads_free += threads
        self._slots_free += count
        launch.blocks_inflight -= count
        self._sub_inflight(launch.client_id, count)

    def _finish_batch(self, launch: DeviceLaunch, count: int,
                      threads: int) -> None:
        """A wave of ``count`` blocks of ``launch`` completes: release
        it, then retire the launch or dispatch the freed resources."""
        if launch.killed:
            return  # resources already reclaimed by kill()
        self._release(launch, count, threads)
        launch.blocks_done += count
        if launch.blocks_inflight == 0 and (launch.blocks_to_start == 0
                                            or launch.preempt_requested):
            self._finalize(launch)
        else:
            self._dispatch()
        if self.check.enabled:
            self.check.verify(self)

    def _finish_iteration(self, record: tuple) -> None:
        """An iteration of ``record``'s PTB workers completes: they
        consume a logical block each, then exit (on a preemption
        request, or with no block left) or start their chunk's next
        iteration at the current price."""
        launch = record[3]
        if launch.killed:
            return  # resources already reclaimed by kill()
        workers = record[4]
        launch.tasks_done = min(launch.tasks_done + workers,
                                launch.total_blocks)
        launch.blocks_done = launch.tasks_done
        if (launch.preempt_requested
                or launch.tasks_done >= launch.total_blocks):
            self._release(launch, workers,
                          workers * launch.descriptor.threads_per_block)
            if launch.blocks_inflight == 0:
                self._finalize(launch)
            else:
                self._dispatch()
        else:
            end, _born, _seq, _launch, _count, base, d, k = record
            duration = self._ptb_iteration_duration(launch)
            if duration != d:
                base, d, k = end, duration, 0
            engine = self.engine
            seq = engine._seq
            engine._seq = seq + 1
            self._push_wave((base + d * (k + 1), end, seq, launch, workers,
                             base, d, k + 1))
        if self.check.enabled:
            self.check.verify(self)

    def _ptb_iteration_duration(self, launch: DeviceLaunch) -> float:
        return self._ptb_iteration(launch.descriptor,
                                   self._block_duration(launch))

    @staticmethod
    def _ptb_iteration(descriptor: KernelDescriptor, base: float) -> float:
        """One PTB iteration of ``descriptor`` whose blocks take ``base``
        (the event path and :meth:`launch_plans` price it here)."""
        return (base * (1.0 + descriptor.ptb_overhead_fraction)
                + PTB_ITERATION_OVERHEAD)

    # ------------------------------------------------------------------
    # The settle loop: wave records in a device-private heap
    # ------------------------------------------------------------------
    def _push_wave(self, record: tuple) -> None:
        """Add a wave record; the proxy event moves to it if it is the
        new earliest (the settle loop re-arms the proxy itself when it
        returns)."""
        waves = self._waves
        heappush(waves, record)
        if waves[0] is record and self.engine.settling is not waves:
            if self._proxy is not None:
                self._proxy.cancel()
            self._proxy = self.engine.schedule_as(
                record[0], record[1], record[2], self._settle_waves)

    def _settle_waves(self) -> None:
        """The proxy event: run wave boundaries in key order, the
        earliest first, while the next record's key lies below
        :meth:`EventLoop.settle_limit` — no other event, and no end of
        the drain, would come first in the per-wave model.

        A boundary runs its *full body* as its own event would have, at
        its own ``now``: :meth:`_finish_batch` for an ORIGINAL wave
        (with ``_refill`` set, so that the dispatch continues the chunk)
        and :meth:`_finish_iteration` for a PTB iteration.  A *pure
        refill* (:meth:`_pure_refill`) only restarts its own chunk: it
        moves the blocks to ``blocks_done`` (``tasks_done``) and pushes
        the chunk's next wave, under the next sequence number, and it
        changes nothing the event heap, the limit, the free pool or the
        busy time depend on.  So the refills of one chunk that run
        before the next other record and below the limit run in one
        step (:meth:`_walk_length`): the step takes one sequence number,
        which orders the final record's ties as its own would be
        ordered, since nothing was scheduled between.  Every boundary
        after the first is credited (:meth:`EventLoop.credit`).
        Checked and traced runs take the full body at every boundary.
        Meanwhile ``engine.settling`` shows the records left, which
        :meth:`EventLoop.quiet_until` counts as events, and the proxy
        is re-armed when the loop stops.

        A launch's True verdict, with its price, holds until the next
        full body: a pure refill leaves the pool, the prices and every
        flag as they were and only lowers ``blocks_to_start`` of a
        launch that keeps its wave in flight.  That can stop a launch
        waiting, which only lifts :meth:`_pure_refill`'s refusals, never
        adds one.  So ``_pure_refill`` runs at most once per launch
        between full bodies; the blocks left, the one thing a refill
        changes that it depends on, are counted at every boundary.
        """
        engine = self.engine
        waves = self._waves
        record = heappop(waves)
        self._proxy = None
        outer = engine.settling
        engine.settling = waves
        walk = not (self.check.enabled or self.tracer.enabled)
        #: price of each launch found a pure refill since the last full
        #: body
        pure: dict[DeviceLaunch, float] = {}
        settled = 0
        limit = None
        try:
            while True:
                end, _born, _seq, launch, count, base, d, k = record
                duration = None
                if walk:
                    # blocks (PTB: logical blocks after this iteration)
                    # beyond this refill's
                    spare = (launch.total_blocks - launch.tasks_done - 1
                             if launch.is_ptb
                             else launch.blocks_to_start) - count
                    if spare >= 0:
                        duration = pure.get(launch)
                        if duration is None and self._pure_refill(launch,
                                                                  count):
                            duration = pure[launch] = (
                                self._ptb_iteration_duration(launch)
                                if launch.is_ptb
                                else self._block_duration(launch))
                if duration is not None:
                    if duration != d:
                        base, d, k = end, duration, 0
                    k += 1
                    after = base + d * k  # the refill's end
                    blocks = count
                    if spare >= count:
                        # most refills alternate with another chunk's:
                        # walk only if the refill's boundary may come
                        # before the next record and the limit
                        if limit is None:
                            limit = engine.settle_limit()
                        head = waves[0] if waves else limit
                        if after <= head[0] and after <= limit[0]:
                            more = self._walk_length(
                                base, d, k - 1, spare // count,
                                head if head < limit else limit)
                            if more:
                                k += more
                                end = base + d * (k - 1)
                                after = base + d * k
                                engine.now = end
                                settled += more
                                blocks += more * count
                    if launch.is_ptb:
                        launch.tasks_done += blocks
                        launch.blocks_done = launch.tasks_done
                    else:
                        launch.blocks_done += blocks
                        rest = launch.blocks_to_start - blocks
                        launch.blocks_to_start = rest
                        if not rest:
                            self._unwait(launch)
                    seq = engine._seq
                    engine._seq = seq + 1
                    heappush(waves, (after, end, seq, launch, count, base, d,
                                     k))
                else:
                    if launch.is_ptb:
                        self._finish_iteration(record)
                    else:
                        self._refill = record
                        self._finish_batch(
                            launch, count,
                            count * launch.descriptor.threads_per_block)
                        self._refill = None
                    if pure:
                        pure = {}
                    limit = None
                if not waves:
                    break
                if limit is None:
                    limit = engine.settle_limit()
                record = waves[0]
                if not record < limit:
                    break
                heappop(waves)
                engine.now = record[0]
                settled += 1
        finally:
            engine.settling = outer
            self._refill = None
            if settled:
                engine.credit(settled)
        if waves:
            record = waves[0]
            self._proxy = engine.schedule_as(
                record[0], record[1], record[2], self._settle_waves)

    def _walk_length(self, base: float, d: float, k: int, most: int,
                     bound: tuple) -> int:
        """How many of a chunk's next ``most`` boundaries, ``base + d *
        (k + i)`` for ``i = 1, 2, ...``, run before ``bound``: each
        keyed as its wave's event, born at the boundary before and
        scheduled after everything now queued."""
        seq = self.engine._seq
        if not (base + d * (k + 1), base + d * k, seq) < bound:
            return 0
        if (base + d * (k + most), base + d * (k + most - 1), seq) < bound:
            return most
        # 1 <= the answer < most; start from the closed-form estimate
        n = min(max(int((bound[0] - base) / d) - k, 1), most - 1)
        while not (base + d * (k + n), base + d * (k + n - 1), seq) < bound:
            n -= 1
        while (base + d * (k + n + 1), base + d * (k + n), seq) < bound:
            n += 1
        return n

    def _pure_refill(self, launch: DeviceLaunch, count: int) -> bool:
        """Whether the boundary of ``launch``'s ``count``-block wave,
        with blocks (PTB: logical blocks after it) left for another,
        would only start the same ``count`` blocks of it again.

        PTB workers that neither stop nor lose their flag write simply
        start their next iteration.  For an ORIGINAL wave,
        :meth:`_finish_batch` would release it and :meth:`_dispatch`
        give the freed slots straight back through
        :meth:`_dispatch_single` — with nothing waiting above ``launch``
        or beside it at its priority and the refill not growing past
        ``count`` (the launch fits no extra block now) — and leave the
        free pool, every co-location count and the wave's price as they
        were.  Launches below saw that pool at the last dispatch and did
        not start; a level there with two of them waiting would rotate
        the round-robin cursor, unless no slot is free to reach it.

        The coalescing minimum needs no test.  While ``blocks_to_start``
        exceeds ``count``, more than ``count`` blocks were left when the
        wave started, so the minimum its dispatch applied, and the wave
        met, was ``capacity // 8``; the minimum now is no larger.

        A True verdict stays true until the next full body (see
        :meth:`_settle_waves`) for any of the launch's waves that the
        blocks left still cover: each clause reads only what a pure
        refill leaves alone, or the waiting launches, which a refill
        can only thin out; and a launch with two waves in flight has
        ``blocks_inflight`` above either wave's size.
        """
        if launch.preempt_requested or launch.killed:
            return False
        if launch.is_ptb:
            return True
        if launch.blocks_to_start > count and self._slots_free and (
                self._threads_free >= launch.descriptor.threads_per_block):
            return False
        priority = launch.priority
        slots = self._slots_free
        seen = False
        lower = None
        for other in self._waiting:
            if other is launch:
                seen = True
            elif not seen or other.priority == priority:
                return False
            elif slots:
                if other.priority == lower:
                    return False
                lower = other.priority
        return True

    # ------------------------------------------------------------------
    def _finalize(self, launch: DeviceLaunch) -> None:
        completed = launch.tasks_remaining <= 0
        launch.status = (LaunchStatus.COMPLETED if completed
                         else LaunchStatus.PREEMPTED)
        launch.finished_at = self.engine.now
        if self.tracer.enabled:
            started = (None if math.isnan(launch.started_at)
                       else launch.started_at)
            self.tracer.emit(trace.KernelComplete(
                ts=self.engine.now, client_id=launch.client_id,
                kernel=launch.descriptor.name, launch_seq=launch.seq,
                status=launch.status.value, blocks_done=launch.blocks_done,
                started_at=started,
                duration=(None if started is None
                          else self.engine.now - started),
            ))
            if launch.status is LaunchStatus.PREEMPTED:
                self.tracer.emit(trace.PreemptAck(
                    ts=self.engine.now, client_id=launch.client_id,
                    kernel=launch.descriptor.name, launch_seq=launch.seq,
                    blocks_done=launch.blocks_done,
                    blocks_lost=launch.blocks_killed,
                ))
        try:
            self._resident.remove(launch)
        except ValueError:
            pass
        if launch in self._waiting:  # a PTB launch may retire waiting
            self._unwait(launch)
        self.launches_completed += 1
        self._dispatch()
        if self.check.enabled:
            self.check.verify(self)
        if launch.on_complete is not None:
            launch.on_complete(launch)
