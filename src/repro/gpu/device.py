"""Discrete-event GPU device model.

The device is a pool of resident-block slots and threads (per
:class:`~repro.gpu.specs.GPUSpec`).  Submitted launches dispatch thread
blocks into free slots in (priority, submission) order — exactly the
mechanism by which a long-running best-effort kernel delays a
high-priority kernel on real hardware: the high-priority blocks must
wait for resident blocks to drain.

Two launch kinds are modelled:

* ``ORIGINAL`` — every grid block is dispatched once; blocks that start
  together complete together (one boundary per wave-batch), which keeps
  the work proportional to waves, not blocks.  A launch alone on the
  device runs all its waves, the partial last wave folded in, as one
  *wave chain* settled by one event and cut short, exactly, whenever
  anything else changes.  The waves of launches sharing the device are
  *records* in a device-private heap behind a single proxy event; the
  *settle loop* runs their boundaries in the per-wave model's key
  order without touching the event heap, and a boundary that only
  restarts its own chunk skips dispatch (see ``docs/performance.md``).
* ``PTB`` — ``workers`` persistent blocks hold their slots and consume
  one logical block per iteration; a preemption request makes workers
  exit after the iteration in flight, bounding turnaround at one
  block's duration.  Iterations are **batched into one event per
  uninterrupted run segment**: while nothing can change an iteration's
  duration or stop the workers, the remaining iterations complete as a
  single simulation event, and any preemption request or co-location
  change *truncates* the batch at the next iteration boundary — so the
  observable timing is identical to per-iteration events while the
  event count collapses (see ``docs/performance.md``).

Slicing is realized above the device as a chain of ORIGINAL launches
over block sub-ranges (see :mod:`repro.core.scheduler`).

An idle, uninstrumented device can also run launches that would start
alone on it (a passthrough policy's kernels, a Tally high-priority
client's, a Tally best-effort client's slices or whole launch)
*inline* (:meth:`GPUDevice.run_solo`): when the event loop
proves that nothing else runs before a launch ends, its completion
time and busy time follow from the same wave arithmetic
(:meth:`GPUDevice._wave_plan`) without any event at all.  A PTB launch
whose workers all fit runs inline the same way
(:meth:`GPUDevice.run_solo_ptb`).

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
#: :meth:`GPUDevice._solo_plan`)
_SOLO_PLANS_MAX = 4096


class LaunchStatus(enum.Enum):
    """Lifecycle of a device launch."""

    PENDING = "pending"  # submitted, not yet dispatched
    RUNNING = "running"
    COMPLETED = "completed"
    PREEMPTED = "preempted"  # stopped early; progress recorded


class _Batch:
    """A run of identical work intervals settled by one simulation event.

    Two flavours share this record and the truncation machinery:

    * a **PTB batch** — ``count`` persistent workers executing ``iters``
      iterations of ``iter_duration`` each;
    * an **ORIGINAL wave chain** — ``iters`` back-to-back full waves of
      ``count`` blocks each, only formed while the launch has the
      device to itself (so nothing can change a wave's size or price).
      A chain that runs through the launch's partial last wave holds
      ``tail = (T, born, seq, blocks)``: the key of the event that ends
      its full waves at the *virtual boundary* ``T``, and the partial
      wave's size; its ``event`` settles the whole launch at ``T +
      iter_duration`` (see :meth:`GPUDevice._start_wave_chain`).

    The settlement event sits at ``started + iters * iter_duration``
    (one wave later for a chain with a ``tail``).  A preemption request,
    a kill, a new arrival, or a co-location change truncates a batch at
    the next interval boundary (the interval in flight keeps the
    duration it started with, exactly as per-interval events would have
    priced it).
    """

    __slots__ = ("launch", "count", "threads", "started", "iter_duration",
                 "iters", "event", "tail")

    def __init__(self, launch: "DeviceLaunch", count: int, threads: int,
                 started: float, iter_duration: float, iters: int,
                 event: Event) -> None:
        self.launch = launch
        self.count = count
        self.threads = threads
        self.started = started
        self.iter_duration = iter_duration
        self.iters = iters
        self.event = event
        self.tail: tuple | None = None


class DeviceLaunch:
    """One kernel launch resident on (or queued for) the device."""

    __slots__ = (
        "descriptor", "config", "client_id", "priority", "on_complete",
        "total_blocks", "block_offset", "blocks_to_start", "blocks_inflight",
        "blocks_done", "tasks_done", "preempt_requested", "killed",
        "blocks_killed", "status", "submitted_at", "arrived_at",
        "started_at", "finished_at", "seq", "batches", "is_ptb",
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
        #: in-flight :class:`_Batch` records (PTB iteration batches or
        #: an ORIGINAL wave chain)
        self.batches: list[_Batch] = []

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
        #: solo plans of :meth:`run_solo` and :meth:`run_solo_ptb`,
        #: keyed on (descriptor, blocks or workers, threads free, slots
        #: free); they also depend on the speed factor, so
        #: :meth:`set_speed_factor` drops them
        self._solo_plans: dict[tuple, tuple] = {}
        self._ptb_plans: dict[tuple, tuple | None] = {}
        #: multi-interval batches currently in flight — PTB iteration
        #: batches and ORIGINAL wave chains — truncated on arrivals and
        #: co-location transitions
        self._chains: list[_Batch] = []
        #: the wave chain among ``_chains`` that runs through its
        #: launch's partial last wave, if any (it holds the device alone,
        #: so there is at most one)
        self._fold: _Batch | None = None
        #: heap of ``(end, born, seq, launch, blocks)`` records, one per
        #: ORIGINAL wave in flight outside a wave chain, keyed as the
        #: per-wave model's completion event would be; the proxy event
        #: stands for the earliest, unless the settle loop is running
        #: (see :meth:`_settle_waves`)
        self._waves: list[tuple] = []
        self._proxy: Event | None = None
        self._rr = 0  # round-robin cursor for same-priority fairness
        # Utilization accounting (thread-seconds of busy time).
        self._busy_thread_seconds = 0.0
        self._last_change = 0.0
        self.launches_completed = 0

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
        co-location pricing rule: intervals already in flight keep the
        price they started with, and batched schedules are truncated so
        their next interval boundary re-evaluates the new price.  Passing
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
        if self._chains:
            self._truncate_chains()

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
        if self._fold is not None:
            self._catch_up()  # a boundary due now runs unflagged
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
        # Batched PTB iterations settle at the next boundary: the flag
        # write lands mid-iteration, workers exit when it completes.
        for batch in launch.batches[:]:  # a folded chain may leave
            self._truncate_batch(batch)
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
        if self._fold is not None and self._fold.launch is launch:
            self._unfold(self._fold)
        launch.preempt_requested = True
        launch.killed = True
        self._update_waiting(launch)
        # Credit iterations that fully completed inside in-flight PTB
        # batches before discarding them (the iteration in flight is
        # lost, matching per-iteration accounting).
        for batch in launch.batches:
            self._settle_batch_progress(batch)
            batch.event.cancel()
            if batch in self._chains:
                self._chains.remove(batch)
        launch.batches.clear()
        if launch.blocks_inflight > 0:
            # The waves' boundaries still run, but the resources are
            # returned now and the boundaries become no-ops.
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
        if self._fold is not None:
            self._catch_up()
        return [l for l in self._resident
                if l.client_id == client_id and not l.done]

    @property
    def threads_free(self) -> int:
        if self._fold is not None:
            self._catch_up()
        return self._threads_free

    @property
    def slots_free(self) -> int:
        if self._fold is not None:
            self._catch_up()
        return self._slots_free

    @property
    def resident_launches(self) -> tuple[DeviceLaunch, ...]:
        if self._fold is not None:
            self._catch_up()
        return tuple(self._resident)

    def utilization(self) -> float:
        """Mean fraction of thread capacity busy since t=0.

        A pure read: it adds the busy time since the last change without
        folding it into the running sum, so reading it (the invariant
        checker does after every event) cannot move a later reading."""
        if self._fold is not None:
            self._catch_up()
        now = self.engine.now
        if now <= 0:
            return 0.0
        busy = self._total_threads - self._threads_free
        return (self._busy_thread_seconds
                + busy * (now - self._last_change)) / (
            now * self._total_threads)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _account(self, now: float | None = None) -> None:
        """Accrue busy thread-seconds up to ``now`` (default: the
        clock)."""
        if now is None:
            now = self.engine.now
        last = self._last_change
        if now != last:
            busy = self._total_threads - self._threads_free
            if busy:
                self._busy_thread_seconds += busy * (now - last)
            self._last_change = now

    def _sub_inflight(self, client_id: str, count: int) -> None:
        """Decrement a client's in-flight blocks; track 0-transitions."""
        inflight = self._client_inflight
        left = inflight[client_id] - count
        inflight[client_id] = left
        if left == 0 and count > 0:
            self._active_clients -= 1
            if self._chains:
                self._reprice_batches(client_id)

    def _arrive(self, launch: DeviceLaunch) -> None:
        launch.arrived_at = self.engine.now
        self._submitting[launch.client_id] -= 1
        if self._chains:
            # The newcomer competes for resources from the next interval
            # boundary on; batched schedules stop being safe now.
            self._truncate_chains()
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
        self._start_batch(launch, fit, solo=True)

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

    def _start_batch(self, launch: DeviceLaunch, count: int, *,
                     solo: bool = False) -> None:
        if self.check.enabled:
            self.check.verify_dispatch(self, launch)
        engine = self.engine
        now = engine.now
        last = self._last_change
        if now != last:  # _account(), inline
            busy = self._total_threads - self._threads_free
            if busy:
                self._busy_thread_seconds += busy * (now - last)
            self._last_change = now
        tpb = launch.descriptor.threads_per_block
        threads = count * tpb
        self._threads_free -= threads
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
            if self._chains:
                self._reprice_batches(launch.client_id)
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
            self._start_ptb_batch(launch, count, threads)
            return
        duration = self._block_duration(launch)
        if solo and left and launch.blocks_inflight == count:
            chained = self._solo_chain(launch, count)
            if chained:
                self._start_wave_chain(launch, count, threads, duration,
                                       chained)
                return
        # one wave ends at _wave_plan(now, duration, count, count)[0],
        # under the sequence number its own event would take
        # (engine.reserve(1), inline)
        seq = engine._seq
        engine._seq = seq + 1
        self._push_wave((now + duration, now, seq, launch, count))

    @staticmethod
    def _wave_plan(start: float, duration: float, count: int,
                   blocks: int) -> tuple[float, int]:
        """The timing of ``blocks`` blocks run back to back, ``count``
        at a time, from ``start`` at ``duration`` per wave: the end ``T
        = start + duration * W`` of the ``W`` whole waves, and the size
        of the partial last wave after them (0 if none), which ends at
        ``T + duration``.  The one timing model of solo ORIGINAL work:
        a wave record (``W = 1``), a wave chain and a folded partial
        wave take their times from here, and so do :meth:`run_solo`'s
        cached plans (:meth:`_solo_plan`, from ``start = 0.0``: adding
        the span to the arrival later is the same sum)."""
        waves, tail = divmod(blocks, count)
        return start + duration * waves, tail

    def solo_window(self) -> tuple[float, bool] | None:
        """The window (see :meth:`EventLoop.quiet_until`) in which
        :meth:`run_solo` may settle kernels inline, or None: the device
        must be idle — nothing resident, nothing in its submission
        delay — and run without tracer, checker or fault injector,
        whose observations the event path alone produces."""
        if (self._resident or self.tracer is not NULL_TRACER
                or self.check is not NULL_CHECKER
                or self.faults is not NULL_INJECTOR
                or any(self._submitting.values())):
            return None
        return self.engine.quiet_until()

    def run_solo(self, descriptor: KernelDescriptor, start: float,
                 window: tuple[float, bool], per: int | None = None,
                 ends: list[float] | None = None) -> float | None:
        """Run an ORIGINAL launch of ``descriptor`` submitted at
        ``start`` to this idle device, inline — or, given ``per``, the
        chain of launches of ``per`` blocks each (the last takes the
        rest) that a sliced kernel makes, each submitted when the
        previous one completes: return the time the last completion
        would fire, or None (and change nothing) if that lies outside
        ``window`` (from :meth:`solo_window`).  ``ends``, an empty list
        if given, receives every launch's completion time when the
        chain runs.

        Each launch arrives after the launch overhead and starts the
        wave :meth:`_dispatch_single` starts on an idle device; its
        waves run as the solo wave chain does (:meth:`_wave_plan`), and
        busy time accrues in the order the event path accrues it — at
        the arrival (:meth:`_start_batch`), at the end of the whole
        waves (:meth:`_cross` or :meth:`_release`) and at the end of a
        partial last wave (:meth:`_release`).  Inside the window
        nothing can observe the device before the last launch would
        have completed, so settling the chain now is indistinguishable.
        The chain's timing depends only on the launch sizes, so it is
        planned once per size (:meth:`_solo_plan`) and only summed here.
        """
        total = descriptor.num_blocks
        if per is None:
            per = total
        plans = self._solo_plans
        overhead = self.spec.kernel_launch_overhead
        seconds = self._busy_thread_seconds
        last = self._last_change
        done = start
        left = total
        planned = launches = 0
        while left:
            blocks = per if left > per else left
            if blocks != planned:
                key = (descriptor, blocks, self._threads_free,
                       self._slots_free)
                try:
                    plan = plans[key]
                except KeyError:
                    plan = self._solo_plan(key)
                span, duration, tail, busy, wave_busy, tail_busy = plan
                planned = blocks
            arrived = done + overhead
            end = arrived + span
            done = end + duration if tail else end
            # _account(arrived), _account(end) and _account(done),
            # inline; the threads the launch takes return by ``done``
            if arrived != last:
                if busy:
                    seconds += busy * (arrived - last)
                last = arrived
            if end != last:
                seconds += wave_busy * (end - last)
                last = end
            if done != last:
                if tail_busy:
                    seconds += tail_busy * (done - last)
                last = done
            if ends is not None:
                ends.append(done)
            left -= blocks
            launches += 1
        bound, inclusive = window
        if done > bound or (done == bound and not inclusive):
            if ends:
                ends.clear()
            return None
        self._busy_thread_seconds = seconds
        self._last_change = last
        self.launches_completed += launches
        return done

    def _solo_plan(self, key: tuple) -> tuple:
        """Plan and cache :meth:`run_solo`'s launch of ``blocks`` blocks
        for ``key = (descriptor, blocks, threads free, slots free)``:
        ``(span, duration, tail, busy, wave_busy, tail_busy)`` — the
        length of the whole waves, a wave's duration, the partial
        wave's size, and the busy threads before the launch, during its
        whole waves and during its partial wave.  The plans depend on
        the speed factor too, so :meth:`set_speed_factor` drops them."""
        descriptor, blocks, threads_free, slots_free = key
        tpb = descriptor.threads_per_block
        count = min(threads_free // tpb, slots_free, blocks)
        duration = descriptor.block_duration
        if self._speed_factor != 1.0:
            duration *= self._speed_factor
        span, tail = self._wave_plan(0.0, duration, count, blocks)
        busy = self._total_threads - threads_free
        plan = (span, duration, tail, busy, busy + count * tpb,
                busy + tail * tpb)
        self._cache_plan(self._solo_plans, key, plan)
        return plan

    @staticmethod
    def _cache_plan(plans: dict, key: tuple, plan: tuple | None) -> None:
        """Store a solo plan, starting over once the cache is full (a
        bound, far above the distinct launches of any workload)."""
        if len(plans) >= _SOLO_PLANS_MAX:
            plans.clear()
        plans[key] = plan

    def run_solo_ptb(self, descriptor: KernelDescriptor, start: float,
                     window: tuple[float, bool],
                     workers: int) -> float | None:
        """The PTB form of :meth:`run_solo`: a launch of ``workers``
        persistent blocks over ``descriptor``'s whole grid.

        It runs inline only if every worker fits on the idle device at
        once: then :meth:`_start_ptb_batch` settles all iterations in
        one batch, priced by the same :meth:`_ptb_iteration`; workers
        placed in groups advance one iteration per event instead.
        Busy time accrues at the arrival and at the completion, as
        :meth:`_start_batch` and :meth:`_release` accrue it.
        """
        key = (descriptor, workers, self._threads_free, self._slots_free)
        try:
            plan = self._ptb_plans[key]
        except KeyError:
            plan = self._ptb_plan(key)
        if plan is None:
            return None
        span, busy, workers_busy = plan
        arrived = start + self.spec.kernel_launch_overhead
        done = arrived + span
        bound, inclusive = window
        if done > bound or (done == bound and not inclusive):
            return None
        # _account(arrived) and _account(done), inline
        seconds = self._busy_thread_seconds
        last = self._last_change
        if arrived != last:
            if busy:
                seconds += busy * (arrived - last)
            last = arrived
        if done != last:
            seconds += workers_busy * (done - last)
            last = done
        self._busy_thread_seconds = seconds
        self._last_change = last
        self.launches_completed += 1
        return done

    def _ptb_plan(self, key: tuple) -> tuple | None:
        """Plan and cache :meth:`run_solo_ptb`'s launch for ``key =
        (descriptor, workers, threads free, slots free)``: ``(span,
        busy, workers_busy)`` — its length, and the busy threads before
        and during it — or None if its workers do not all fit."""
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
            plan = (self._ptb_iteration(descriptor, base)
                    * -(-blocks // count), busy, busy + count * tpb)
        self._cache_plan(self._ptb_plans, key, plan)
        return plan

    def _solo_chain(self, launch: DeviceLaunch, count: int) -> int:
        """How many of ``launch``'s blocks still to start run in the
        wave chain of its just-started ``count``-block wave: all of
        them, partial last wave included, when that wave is all the
        launch has in flight and the launch is alone on the device
        (see :meth:`_alone_on_device`); none otherwise."""
        if launch.blocks_inflight == count and self._alone_on_device(launch):
            return launch.blocks_to_start
        return 0

    def _alone_on_device(self, launch: DeviceLaunch) -> bool:
        """Whether ``launch`` holds every claimed resource on the device
        and no other resident launch could start blocks before it
        finishes (the precondition for chaining its remaining waves)."""
        if (self._threads_free + launch.blocks_inflight
                * launch.descriptor.threads_per_block != self._total_threads):
            return False
        if self._slots_free + launch.blocks_inflight \
                != self.spec.total_block_slots:
            return False
        for other in self._waiting:
            if other is not launch:
                return False
        return True

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

    # ------------------------------------------------------------------
    # PTB iteration batching
    # ------------------------------------------------------------------
    def _ptb_iteration_duration(self, launch: DeviceLaunch) -> float:
        return self._ptb_iteration(launch.descriptor,
                                   self._block_duration(launch))

    @staticmethod
    def _ptb_iteration(descriptor: KernelDescriptor, base: float) -> float:
        """One PTB iteration of ``descriptor`` whose blocks take ``base``
        (the event path and :meth:`run_solo_ptb` price it here)."""
        return (base * (1.0 + descriptor.ptb_overhead_fraction)
                + PTB_ITERATION_OVERHEAD)

    def _start_ptb_batch(self, launch: DeviceLaunch, count: int,
                         threads: int) -> None:
        """Schedule a run segment for ``count`` freshly placed workers.

        When this batch is the launch's *only* worker group (the common
        case — all workers placed at once), every remaining iteration is
        scheduled as one settlement event; otherwise concurrent worker
        groups consume tasks interleaved, so the batch advances one
        iteration at a time (exactly the pre-batching behaviour).
        """
        duration = self._ptb_iteration_duration(launch)
        if (launch.blocks_to_start == 0
                and launch.blocks_inflight == count
                and not launch.preempt_requested):
            remaining = launch.total_blocks - launch.tasks_done
            iters = -(-remaining // count)  # ceil
        else:
            iters = 1
        batch = _Batch(launch, count, threads, self.engine.now,
                       duration, iters, None)  # type: ignore[arg-type]
        batch.event = self.engine.schedule(
            duration * iters, lambda: self._ptb_batch_done(batch))
        launch.batches.append(batch)
        if iters > 1:
            self._chains.append(batch)

    def _start_wave_chain(self, launch: DeviceLaunch, count: int,
                          threads: int, duration: float,
                          blocks: int) -> None:
        """Chain the waves of a solo ORIGINAL launch's next ``blocks``
        blocks behind its ``count``-block wave in flight.

        The launch holds the whole device, so every subsequent wave
        starts the instant the previous one completes, with the same
        price — ``1 + blocks // count`` full waves collapse into one
        event at their end ``T``.  A partial last wave of the remaining
        ``blocks % count`` blocks is *folded* in: ``T`` becomes a
        virtual boundary, and the one event settles the whole launch at
        ``T + duration`` under the key ``(T + duration, T, seq)`` its own
        wave event would have had, ``seq`` reserved now (see
        :meth:`_unfold`).  Bookkeeping for the not-yet-started waves
        stays in ``blocks_to_start`` until settlement, so block
        conservation holds at every observable point.
        """
        now = self.engine.now
        end, tail = self._wave_plan(now, duration, count, count + blocks)
        batch = _Batch(launch, count, threads, now, duration,
                       1 + blocks // count, None)  # type: ignore[arg-type]
        if tail:
            seq = self.engine.reserve(2)
            batch.tail = (end, now, seq, tail)
            batch.event = self.engine.schedule_as(
                end + duration, end, seq + 1, lambda: self._fold_done(batch))
            self._fold = batch
        else:
            batch.event = self.engine.schedule_at(
                end, lambda: self._wave_chain_done(batch))
        launch.batches.append(batch)
        self._chains.append(batch)

    def _settle(self, batch: _Batch, completed: int) -> None:
        """Credit ``completed`` fully elapsed intervals of ``batch`` and
        re-anchor it so repeated settlement never double-credits."""
        if completed <= 0:
            return
        launch = batch.launch
        if launch.is_ptb:
            remaining = launch.total_blocks - launch.tasks_done
            consumed = min(completed * batch.count, remaining)
            launch.tasks_done += consumed
            launch.blocks_done = launch.tasks_done
        else:
            # Completed waves moved blocks straight from blocks_to_start
            # to blocks_done (the chain's in-flight wave stays the only
            # contribution to blocks_inflight throughout).
            launch.blocks_done += completed * batch.count
            launch.blocks_to_start -= completed * batch.count
            self._update_waiting(launch)
        batch.started += completed * batch.iter_duration
        batch.iters -= completed

    def _settle_batch_progress(self, batch: _Batch) -> None:
        """Credit intervals of ``batch`` that have fully completed,
        for a batch ending early on a kill: the interval in flight is
        lost, but intervals whose boundary has passed were real work —
        per-interval events would have credited them as they fired.
        """
        elapsed = self.engine.now - batch.started
        if elapsed <= 0 or batch.iter_duration <= 0:
            return
        completed = int(elapsed / batch.iter_duration + 1e-9)
        cap = batch.iters if batch.launch.is_ptb else batch.iters - 1
        self._settle(batch, min(completed, cap))

    def _truncate_batch(self, batch: _Batch) -> None:
        """Shrink ``batch`` to settle at the next interval boundary.

        Fully elapsed intervals are credited immediately (so the
        launch's counters are exact from this point on — the world is
        about to change, and dispatch may consult them).  If the batch
        sits exactly on an interval boundary, it settles *now* — the
        per-interval event chain had an event at this very timestamp —
        otherwise the interval in flight runs out at the duration it
        started with.  Either way the settlement handler re-evaluates
        the world (preemption flag, co-location pricing, free
        resources) when it fires, exactly as per-interval events did at
        every boundary.
        """
        if batch.tail is not None and self._unfold(batch):
            return
        if batch.iters <= 1:
            return
        q = (self.engine.now - batch.started) / batch.iter_duration
        completed = int(q + 1e-9)
        if completed >= batch.iters:
            return  # the settlement event is due at this very instant
        # Exactly on a boundary (and not at the batch's own start): the
        # per-interval chain had an event at this very timestamp.
        at_boundary = completed >= 1 and q - completed <= 1e-9
        self._settle(batch, completed)
        batch.event.cancel()
        fn = (self._ptb_batch_done if batch.launch.is_ptb
              else self._wave_chain_done)
        if at_boundary:
            batch.iters = 0
            when = self.engine.now
        else:
            batch.iters = 1
            when = batch.started + batch.iter_duration
            if when < self.engine.now:
                when = self.engine.now
        batch.event = self.engine.schedule_at(when, lambda: fn(batch))

    def _reprice_batches(self, changed_client: str) -> None:
        """A client's residency flipped: other clients' batched
        intervals may now be priced wrong — truncate them so the next
        boundary re-evaluates the co-location factor."""
        for batch in list(self._chains):
            if batch.launch.client_id != changed_client:
                self._truncate_batch(batch)

    def _truncate_chains(self) -> None:
        """A new launch reached the device: every batched schedule may
        now face competition for resources (and re-pricing), so all of
        them settle at their next interval boundary."""
        for batch in list(self._chains):
            self._truncate_batch(batch)

    # ------------------------------------------------------------------
    # The settle loop: co-resident waves in a device-private heap
    # ------------------------------------------------------------------
    def _push_wave(self, record: tuple) -> None:
        """Add an ``(end, born, seq, launch, blocks)`` wave record; the
        proxy event moves to it if it is the new earliest (the settle
        loop re-arms the proxy itself when it returns)."""
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

        Each boundary runs :meth:`_finish_batch` as its own event would
        have, at its own ``now`` and ``current`` — the *full body*.  A
        pure self-refill (:meth:`_pure_refill`) only accrues busy time,
        as :meth:`_account` does at every boundary, moves its blocks to
        ``blocks_done`` and pushes the refill's record under the next
        sequence number; it changes nothing the event heap or the limit
        depend on, nor the free pool, so the busy threads are read only
        after a full body.  Every boundary after the first is credited
        (:meth:`EventLoop.credit`).  Checked and traced runs take the
        full body at every boundary.  Meanwhile ``engine.settling``
        shows the records left, which :meth:`EventLoop.quiet_until`
        counts as events, and the proxy is re-armed when the loop stops.

        A launch's True verdict, with its block duration, holds until
        the next full body: a pure refill leaves the pool, the prices,
        ``_chains`` and every flag as they were and only lowers
        ``blocks_to_start`` of a launch that keeps its wave in flight.
        That can stop a launch waiting, which only lifts
        :meth:`_pure_refill`'s refusals, never adds one.  So
        ``_pure_refill`` runs at most once per launch between full
        bodies; ``blocks_to_start >= count``, the one clause a refill
        can break, is tested at every boundary.
        """
        engine = self.engine
        waves = self._waves
        record = heappop(waves)
        self._proxy = None
        outer = engine.settling
        engine.settling = waves
        walk = not (self.check.enabled or self.tracer.enabled)
        #: block duration of each launch found a pure refill since the
        #: last full body
        pure: dict[DeviceLaunch, float] = {}
        busy = self._total_threads - self._threads_free
        settled = 0
        limit = None
        try:
            while True:
                launch = record[3]
                count = record[4]
                duration = None
                if walk and launch.blocks_to_start >= count:
                    if launch in pure:
                        duration = pure[launch]
                    elif self._pure_refill(launch, count):
                        duration = pure[launch] = self._block_duration(launch)
                if duration is not None:
                    end = record[0]
                    last = self._last_change
                    if end != last:  # _account(end), inline
                        self._busy_thread_seconds += busy * (end - last)
                        self._last_change = end
                    launch.blocks_done += count
                    left = launch.blocks_to_start - count
                    launch.blocks_to_start = left
                    if not left:
                        self._unwait(launch)
                    # engine.reserve(1), inline; end + duration is
                    # _wave_plan's end for one wave
                    seq = engine._seq
                    engine._seq = seq + 1
                    heappush(waves, (end + duration, end, seq, launch, count))
                else:
                    self._finish_batch(
                        launch, count,
                        count * launch.descriptor.threads_per_block)
                    if pure:
                        pure = {}
                    busy = self._total_threads - self._threads_free
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
                engine.current = record
                settled += 1
        finally:
            engine.settling = outer
            if settled:
                engine.credit(settled)
        if waves:
            record = waves[0]
            self._proxy = engine.schedule_as(
                record[0], record[1], record[2], self._settle_waves)

    def _pure_refill(self, launch: DeviceLaunch, count: int) -> bool:
        """Whether the boundary of ``launch``'s ``count``-block wave
        would only start the same ``count`` blocks of it again.

        Then :meth:`_finish_batch` would release the wave and
        :meth:`_dispatch` give the freed slots straight back through
        :meth:`_dispatch_single` — with nothing waiting above
        ``launch`` or beside it at its priority, the refill not growing
        past ``count`` (the launch fits no extra block now), not falling
        under the coalescing minimum and not turning into a solo wave
        chain — and leave the free pool, every co-location count and the
        wave's price as they were.  Launches below saw that pool at the
        last dispatch and did not start; a level there with two of them
        waiting would rotate the round-robin cursor, unless no slot is
        free to reach it.  A client whose last blocks this wave holds
        would flip its residency and re-price batches in ``_chains``.

        The coalescing minimum needs no test.  While ``blocks_to_start``
        exceeds ``count``, more than ``count`` blocks were left when the
        wave started, so the minimum its dispatch applied, and the wave
        met, was ``capacity // 8``; the minimum now is no larger.

        A True verdict stays true until the next full body (see
        :meth:`_settle_waves`) for any of the launch's waves that
        ``blocks_to_start`` still covers: each clause but the first
        reads only what a pure refill leaves alone, or the waiting
        launches, which a refill can only thin out; and a launch with
        two waves in flight has ``blocks_inflight`` and its client's
        count above either wave's size.
        """
        left = launch.blocks_to_start
        if left < count or launch.preempt_requested or launch.killed:
            return False
        if left > count:
            if (self._slots_free and self._threads_free
                    >= launch.descriptor.threads_per_block):
                return False
            if (launch.blocks_inflight == count
                    and self._alone_on_device(launch)):
                return False
        if self._chains and self._client_inflight[launch.client_id] == count:
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
    # Folded partial waves: the virtual boundary of a solo wave chain
    # ------------------------------------------------------------------
    def _crossed(self, batch: _Batch) -> bool:
        """Whether the per-wave model has already run the virtual
        boundary of folded chain ``batch`` — its chain event, keyed
        ``batch.tail[:3]`` — before the event now running."""
        return self.engine.current[:3] > batch.tail[:3]

    def _cross(self, batch: _Batch) -> int:
        """Run folded chain ``batch``'s virtual boundary ``T`` as the
        chain event and the dispatch after it would have: account busy
        time to ``T`` with the full wave's threads, release the full
        wave, start the partial wave.  Returns its blocks."""
        boundary, _born, _seq, tail = batch.tail
        batch.tail = None
        self._fold = None
        self._chains.remove(batch)
        launch = batch.launch
        launch.batches.remove(batch)
        self._account(boundary)
        count = batch.count
        launch.blocks_done += batch.iters * count
        launch.blocks_to_start = 0
        self._update_waiting(launch)
        tpb = launch.descriptor.threads_per_block
        self._threads_free += count * tpb
        self._slots_free += count
        if self.check.enabled:
            self.check.verify_dispatch(self, launch)
        self._threads_free -= tail * tpb
        self._slots_free -= tail
        launch.blocks_inflight = tail
        self._client_inflight[launch.client_id] -= count - tail
        return tail

    def _cross_now(self, batch: _Batch) -> None:
        """Run ``batch``'s virtual boundary now, late; its partial wave
        becomes the wave record its settlement stood for."""
        batch.event.cancel()
        boundary, _born, seq, _tail = batch.tail
        tail = self._cross(batch)
        self._push_wave((boundary + batch.iter_duration, boundary, seq + 1,
                         batch.launch, tail))

    def _catch_up(self) -> None:
        """Something is about to read the device: if the per-wave model
        has passed the folded chain's boundary, run it."""
        if self._crossed(self._fold):
            self._cross_now(self._fold)

    def _unfold(self, batch: _Batch) -> bool:
        """The world is about to change under folded chain ``batch``.

        Past its virtual boundary, the boundary runs now (returns
        True).  Otherwise the settlement turns back into the event the
        chain had without the fold — under that event's key ``(T, born,
        seq)`` — so the caller's truncation proceeds exactly as before:
        a chain event, or for a single full wave its wave record
        (returns True: no chain is left).
        """
        if self._crossed(batch):
            self._cross_now(batch)
            return True
        batch.event.cancel()
        boundary, born, seq, _tail = batch.tail
        batch.tail = None
        self._fold = None
        if batch.iters == 1:
            self._chains.remove(batch)
            batch.launch.batches.remove(batch)
            self._push_wave((boundary, born, seq, batch.launch, batch.count))
            return True
        batch.event = self.engine.schedule_as(
            boundary, born, seq, lambda: self._wave_chain_done(batch))
        return False

    def _fold_done(self, batch: _Batch) -> None:
        """Undisturbed to the end: cross the boundary, then run the
        partial wave's own boundary."""
        launch = batch.launch
        tail = self._cross(batch)
        self._finish_batch(launch, tail,
                           tail * launch.descriptor.threads_per_block)

    def _wave_chain_done(self, batch: _Batch) -> None:
        launch = batch.launch
        if batch in self._chains:
            self._chains.remove(batch)
        if launch.killed:
            return  # resources already reclaimed by kill()
        if batch in launch.batches:
            launch.batches.remove(batch)
        count = batch.count
        launch.blocks_done += batch.iters * count
        launch.blocks_to_start -= (batch.iters - 1) * count
        self._update_waiting(launch)
        self._release(launch, count, batch.threads)
        finished = (launch.blocks_inflight == 0
                    and (launch.blocks_to_start == 0
                         or launch.preempt_requested))
        if finished:
            self._finalize(launch)
        else:
            self._dispatch()
        if self.check.enabled:
            self.check.verify(self)

    def _ptb_batch_done(self, batch: _Batch) -> None:
        launch = batch.launch
        if batch in self._chains:
            self._chains.remove(batch)
        if launch.killed:
            return  # resources already reclaimed by kill()
        if batch in launch.batches:
            launch.batches.remove(batch)
        workers = batch.count
        remaining = launch.total_blocks - launch.tasks_done
        consumed = min(batch.iters * workers, remaining)
        launch.tasks_done += consumed
        launch.blocks_done = launch.tasks_done
        stop = (launch.preempt_requested
                or launch.tasks_done >= launch.total_blocks)
        if stop:
            self._release(launch, workers, batch.threads)
            if launch.blocks_inflight == 0:
                self._finalize(launch)
            else:
                self._dispatch()
        else:
            # Workers hold their slots and start the next run segment
            # under the current co-location pricing.
            self._start_ptb_batch(launch, workers, batch.threads)
        if self.check.enabled:
            self.check.verify(self)

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
