"""Discrete-event GPU device model.

The device is a pool of resident-block slots and threads (per
:class:`~repro.gpu.specs.GPUSpec`).  Submitted launches dispatch thread
blocks into free slots in (priority, submission) order — exactly the
mechanism by which a long-running best-effort kernel delays a
high-priority kernel on real hardware: the high-priority blocks must
wait for resident blocks to drain.

Two launch kinds are modelled:

* ``ORIGINAL`` — every grid block is dispatched once; blocks that start
  together complete together (one event per wave-batch), which keeps
  the event count proportional to waves, not blocks.  Waves are
  batched further: a launch alone on the device runs all its waves,
  the partial last wave folded in, as one *wave chain*, and a launch
  sharing the device whose chunks each just restart themselves runs
  them as one *staggered chain*.  Both settle in one event and are cut
  short, exactly, whenever anything else changes (see
  ``docs/performance.md``).
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
from bisect import insort
from typing import Callable

from ..check.invariants import InvariantChecker, NULL_CHECKER
from ..errors import GPUSimError
from ..faults.injector import FaultInjector, NULL_INJECTOR
from ..trace import (
    KernelComplete,
    KernelStart,
    KernelSubmit,
    NULL_TRACER,
    PreemptAck,
    PreemptLost,
    PreemptRequest,
    Tracer,
)
from .engine import Event, EventLoop
from .kernel import (
    KernelDescriptor,
    LaunchConfig,
    LaunchKind,
    PTB_ITERATION_OVERHEAD,
)
from .specs import GPUSpec

__all__ = ["LaunchStatus", "DeviceLaunch", "GPUDevice"]

#: a staggered chain whose break lies more full cycles ahead than this
#: plans a checkpoint instead of summing its way there
_PLAN_CYCLES = 16
#: twice the unit roundoff of a double: the checkpoint's safety margin
#: per summed wave
_ULP = 2.0 ** -52


class LaunchStatus(enum.Enum):
    """Lifecycle of a device launch."""

    PENDING = "pending"  # submitted, not yet dispatched
    RUNNING = "running"
    COMPLETED = "completed"
    PREEMPTED = "preempted"  # stopped early; progress recorded


class _Batch:
    """A run of identical work intervals settled by one simulation event.

    Three flavours share this record and the truncation machinery:

    * a **PTB batch** — ``count`` persistent workers executing ``iters``
      iterations of ``iter_duration`` each;
    * an **ORIGINAL wave chain** — ``iters`` back-to-back full waves of
      ``count`` blocks each, only formed while the launch has the
      device to itself (so nothing can change a wave's size or price).
      A chain that runs through the launch's partial last wave holds
      ``tail = (T, born, seq, blocks)``: the key of the event that ends
      its full waves at the *virtual boundary* ``T``, and the partial
      wave's size; its ``event`` settles the whole launch at ``T +
      iter_duration`` (see :meth:`GPUDevice._start_wave_chain`);
    * a **staggered chain** — every chained chunk of one ORIGINAL launch
      that shares the device.  ``chunks`` holds one
      ``(end, born, seq, blocks)`` record per chunk: the event key the
      per-wave model would give the chunk's wave in flight, sorted by
      that key.  Each chunk refills itself with ``blocks`` blocks every
      ``iter_duration``; ``count`` totals the chained blocks, ``iters``
      is the sequence number the next wave it starts takes, and
      ``event`` fires at the first wave boundary where
      ``blocks_to_start`` can no longer refill the chunk in turn.

    For the first two the settlement event sits at ``started + iters *
    iter_duration`` (one wave later for a chain with a ``tail``).  A
    preemption request, a kill, a new arrival, or a co-location change
    truncates any batch at the next interval boundary (the interval in
    flight keeps the duration it started with, exactly as per-interval
    events would have priced it); a staggered chain turns back into one
    per-wave event per chunk instead.
    """

    __slots__ = ("launch", "count", "threads", "started", "iter_duration",
                 "iters", "event", "chunks", "tail")

    def __init__(self, launch: "DeviceLaunch", count: int, threads: int,
                 started: float, iter_duration: float, iters: int,
                 event: Event, chunks: list | None = None) -> None:
        self.launch = launch
        self.count = count
        self.threads = threads
        self.started = started
        self.iter_duration = iter_duration
        self.iters = iters
        self.event = event
        self.chunks = chunks
        self.tail: tuple | None = None


class DeviceLaunch:
    """One kernel launch resident on (or queued for) the device."""

    __slots__ = (
        "descriptor", "config", "client_id", "priority", "on_complete",
        "total_blocks", "block_offset", "blocks_to_start", "blocks_inflight",
        "blocks_done", "tasks_done", "preempt_requested", "killed",
        "blocks_killed", "status", "submitted_at", "arrived_at",
        "started_at", "finished_at", "seq", "batches", "waves", "is_ptb",
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
        #: in-flight :class:`_Batch` records (PTB iteration batches,
        #: ORIGINAL wave chains or a staggered chain)
        self.batches: list[_Batch] = []
        #: completion event -> ``(blocks, born)`` of each ORIGINAL chunk
        #: whose wave in flight has its own event (is not chained)
        self.waves: dict[Event, tuple[int, float]] = {}

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
        #: multi-interval batches currently in flight — PTB iteration
        #: batches and ORIGINAL wave chains — truncated on arrivals and
        #: co-location transitions
        self._chains: list[_Batch] = []
        #: the staggered chains among ``_chains`` (at most one per launch)
        self._staggered: list[_Batch] = []
        #: the wave chain among ``_chains`` that runs through its
        #: launch's partial last wave, if any (it holds the device alone,
        #: so there is at most one)
        self._fold: _Batch | None = None
        #: batches started and group dispatches run so far, and the last
        #: per-wave ORIGINAL batch a single-launch dispatch started —
        #: together they tell a pure self-refill in O(1)
        self._starts = 0
        self._groups = 0
        self._refill: tuple | None = None
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
            self.tracer.emit(KernelSubmit(
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
            self.tracer.emit(PreemptRequest(
                ts=self.engine.now, client_id=launch.client_id,
                kernel=launch.descriptor.name, launch_seq=launch.seq,
                mechanism="ptb-flag" if launch.is_ptb else "drain",
            ))
        if (self.faults.enabled and launch.is_ptb
                and launch.blocks_inflight > 0
                and not launch.preempt_requested
                and self.faults.lost_preempt_ack()):
            if self.tracer.enabled:
                self.tracer.emit(PreemptLost(
                    ts=self.engine.now, client_id=launch.client_id,
                    kernel=launch.descriptor.name, launch_seq=launch.seq,
                    mechanism="ptb-flag",
                ))
            return False
        launch.preempt_requested = True
        # Batched PTB iterations settle at the next boundary: the flag
        # write lands mid-iteration, workers exit when it completes.
        # No launch's chunks may keep refilling past this point either.
        if self._staggered:
            self._truncate_staggered()
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
            self.tracer.emit(PreemptRequest(
                ts=self.engine.now, client_id=launch.client_id,
                kernel=launch.descriptor.name, launch_seq=launch.seq,
                mechanism="kill",
            ))
        # Freed slots change every staggered chain's next boundary.
        if self._staggered:
            self._truncate_staggered()
        if self._fold is not None and self._fold.launch is launch:
            self._unfold(self._fold)
        launch.preempt_requested = True
        launch.killed = True
        # Credit iterations that fully completed inside in-flight PTB
        # batches before discarding them (the iteration in flight is
        # lost, matching per-iteration accounting).
        for batch in launch.batches:
            self._settle_batch_progress(batch)
            batch.event.cancel()
            if batch in self._chains:
                self._chains.remove(batch)
        launch.batches.clear()
        launch.waves.clear()
        if launch.blocks_inflight > 0:
            # The batch completion events still fire, but the resources
            # are returned now and the events become no-ops.
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
        interleave their blocks rather than strictly serializing)."""
        resident = self._resident
        if not resident or self._slots_free <= 0:
            return
        i = 0
        n = len(resident)
        while i < n and self._slots_free > 0:
            priority = resident[i].priority
            j = i
            first: DeviceLaunch | None = None
            group: list[DeviceLaunch] | None = None
            while j < n and resident[j].priority == priority:
                launch = resident[j]
                if launch.blocks_to_start > 0 and not launch.preempt_requested:
                    if first is None:
                        first = launch
                    elif group is None:
                        group = [first, launch]
                    else:
                        group.append(launch)
                j += 1
            if group is not None:
                self._dispatch_group(group)
            elif first is not None:
                self._dispatch_single(first)
            i = j

    def _dispatch_single(self, launch: DeviceLaunch) -> None:
        """Fast path: one launch wants blocks at this priority level."""
        descriptor = launch.descriptor
        tpb = descriptor.threads_per_block
        fit = self._threads_free // tpb
        if fit > self._slots_free:
            fit = self._slots_free
        if fit > launch.blocks_to_start:
            fit = launch.blocks_to_start
        if fit <= 0:
            return
        # Coalesce: avoid shredding big grids into slivers (each batch
        # is one simulation event).  Small remainders and small kernels
        # always go through.
        capacity = self._capacity(tpb, descriptor.shared_mem_per_block)
        min_chunk = capacity // 8
        if min_chunk > launch.blocks_to_start:
            min_chunk = launch.blocks_to_start
        if fit < min_chunk:
            return
        self._start_batch(launch, fit, solo=True)

    def _dispatch_group(self, group: list[DeviceLaunch]) -> None:
        self._groups += 1  # rotating ``_rr`` rules out a pure self-refill
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
        self._starts += 1
        self._account()
        tpb = launch.descriptor.threads_per_block
        threads = count * tpb
        self._threads_free -= threads
        self._slots_free -= count
        launch.blocks_to_start -= count
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
            launch.started_at = self.engine.now
            if self.tracer.enabled:
                self.tracer.emit(KernelStart(
                    ts=self.engine.now, client_id=launch.client_id,
                    kernel=launch.descriptor.name, launch_seq=launch.seq,
                    blocks=launch.total_blocks,
                ))

        if launch.is_ptb:
            self._start_ptb_batch(launch, count, threads)
        else:
            duration = self._block_duration(launch)
            chained = (self._solo_chain(launch, count)
                       if solo and launch.blocks_to_start else 0)
            if chained:
                self._start_wave_chain(launch, count, threads, duration,
                                       chained)
            else:
                event = self.engine.schedule_at(
                    self._wave_plan(self.engine.now, duration, count,
                                    count)[0],
                    lambda: self._finish_batch(launch, count, threads),
                )
                launch.waves[event] = (count, self.engine.now)
                if solo:
                    self._refill = (launch, count, duration)

    @staticmethod
    def _wave_plan(start: float, duration: float, count: int,
                   blocks: int) -> tuple[float, int]:
        """The timing of ``blocks`` blocks run back to back, ``count``
        at a time, from ``start`` at ``duration`` per wave: the end ``T
        = start + duration * W`` of the ``W`` whole waves, and the size
        of the partial last wave after them (0 if none), which ends at
        ``T + duration``.  The one timing model of solo ORIGINAL work:
        a per-wave event (``W = 1``), a wave chain, a folded partial
        wave and :meth:`run_solo` all take their times from here."""
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
                 window: tuple[float, bool],
                 blocks: int | None = None) -> float | None:
        """Run an ORIGINAL launch of ``descriptor`` — of its first
        ``blocks`` blocks (default: all), as a slice is launched —
        submitted at ``start`` to this idle device, inline: return the
        time its completion would fire, or None (and change nothing)
        if that lies outside ``window`` (from :meth:`solo_window`).

        The launch arrives after the launch overhead and starts the
        wave :meth:`_dispatch_single` starts on an idle device; its
        waves run as the solo wave chain does (:meth:`_wave_plan`), and
        busy time accrues in the order the event path accrues it — at
        the arrival (:meth:`_start_batch`), at the end of the whole
        waves (:meth:`_cross` or :meth:`_release`) and at the end of a
        partial last wave (:meth:`_release`).  Inside the window
        nothing can observe the device before the launch would have
        completed, so settling it now is indistinguishable.
        """
        if blocks is None:
            blocks = descriptor.num_blocks
        plan = self._solo_plan(descriptor, start, window, blocks)
        if plan is None:
            return None
        count, arrived, end, tail, done = plan
        tpb = descriptor.threads_per_block
        self._account(arrived)
        self._threads_free -= count * tpb
        self._account(end)
        self._threads_free += (count - tail) * tpb
        self._account(done)
        self._threads_free += tail * tpb
        self.launches_completed += 1
        return done

    def solo_done(self, descriptor: KernelDescriptor, start: float,
                  window: tuple[float, bool], blocks: int) -> float | None:
        """What :meth:`run_solo` would return, changing nothing: lets a
        caller check that a chain of launches ends inside ``window``
        before it runs the first."""
        plan = self._solo_plan(descriptor, start, window, blocks)
        return None if plan is None else plan[4]

    def _solo_plan(self, descriptor: KernelDescriptor, start: float,
                   window: tuple[float, bool], blocks: int) -> tuple | None:
        """The timing of :meth:`run_solo`'s launch — ``(count, arrived,
        end, tail, done)``: wave size, arrival, end of the whole waves,
        partial wave size and completion — or None outside
        ``window``."""
        count = min(self._threads_free // descriptor.threads_per_block,
                    self._slots_free, blocks)
        duration = descriptor.block_duration
        if self._speed_factor != 1.0:
            duration *= self._speed_factor
        arrived = start + self.spec.kernel_launch_overhead
        end, tail = self._wave_plan(arrived, duration, count, blocks)
        done = end + duration if tail else end
        if not self._in_window(done, window):
            return None
        return count, arrived, end, tail, done

    @staticmethod
    def _in_window(done: float, window: tuple[float, bool]) -> bool:
        """Whether a completion at ``done`` lies inside ``window``."""
        bound, inclusive = window
        return done < bound or (done == bound and inclusive)

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
        tpb = descriptor.threads_per_block
        blocks = descriptor.num_blocks
        count = min(workers, blocks)
        if count > self._threads_free // tpb or count > self._slots_free:
            return None
        base = descriptor.block_duration
        if self._speed_factor != 1.0:
            base *= self._speed_factor
        arrived = start + self.spec.kernel_launch_overhead
        done = arrived + (self._ptb_iteration(descriptor, base)
                          * -(-blocks // count))
        if not self._in_window(done, window):
            return None
        self._account(arrived)
        self._threads_free -= count * tpb
        self._account(done)
        self._threads_free += count * tpb
        self.launches_completed += 1
        return done

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
        for other in self._resident:
            if (other is not launch and other.blocks_to_start > 0
                    and not other.preempt_requested):
                return False
        return True

    def _release(self, launch: DeviceLaunch, count: int, threads: int) -> None:
        self._account()
        self._threads_free += threads
        self._slots_free += count
        launch.blocks_inflight -= count
        self._sub_inflight(launch.client_id, count)

    def _finish_batch(self, launch: DeviceLaunch, count: int,
                      threads: int) -> None:
        if launch.killed:
            return  # resources already reclaimed by kill()
        if launch.waves:
            launch.waves.pop(self.engine.current[3], None)
        staggered = self._staggered
        if staggered:
            # dispatch reads blocks_to_start: bring chains up to now
            for chain in staggered:
                self._advance(chain)
        self._release(launch, count, threads)
        launch.blocks_done += count
        finished = (launch.blocks_inflight == 0
                    and (launch.blocks_to_start == 0
                         or launch.preempt_requested))
        groups = self._groups
        starts = self._starts
        if finished:
            self._finalize(launch)
            if staggered:
                self._recheck_staggered(starts, groups)
        else:
            self._refill = None
            self._dispatch()
            refill = self._refill
            if (self._starts == starts + 1 and self._groups == groups
                    and refill is not None and refill[0] is launch
                    and refill[1] == count):
                # A pure self-refill: the chunk restarted alone, through
                # the single-launch path, and nothing else changed.
                self._chain_wave(launch, count, refill[2])
            elif staggered:
                self._recheck_staggered(starts, groups)
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
        if batch.chunks is not None:
            self._advance(batch)
            batch.event.cancel()
            self._dissolve(batch)
            return
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
                if batch.chunks is not None:
                    self._reprice_staggered(batch)
                else:
                    self._truncate_batch(batch)

    def _truncate_chains(self) -> None:
        """A new launch reached the device: every batched schedule may
        now face competition for resources (and re-pricing), so all of
        them settle at their next interval boundary."""
        for batch in list(self._chains):
            self._truncate_batch(batch)

    # ------------------------------------------------------------------
    # Staggered chains: per-chunk wave batching for shared ORIGINAL grids
    # ------------------------------------------------------------------
    def _chainable(self, launch: DeviceLaunch, count: int) -> bool:
        """Whether every chunk of ``launch`` keeps refilling itself.

        Called after a pure self-refill of a ``count``-block chunk.  The
        free pool is back where it was, so every later wave boundary of
        any chunk replays this one — as long as nothing else changes —
        when ``launch`` cannot fit one more block (each chunk refills to
        exactly its own size), no launch above it waits for blocks
        (whatever a chunk frees would go there), and the launch still
        has a full refill left.  Launches below it saw the same free
        pool and did not start.
        """
        if launch.blocks_to_start < count:
            return False
        if (self._slots_free > 0 and self._threads_free
                >= launch.descriptor.threads_per_block):
            return False
        for other in self._resident:
            if other is launch:
                return True
            if other.blocks_to_start > 0 and not other.preempt_requested:
                return False
        return False  # pragma: no cover - a dispatched launch is resident

    def _chain_wave(self, launch: DeviceLaunch, count: int,
                    duration: float) -> None:
        """After a pure self-refill of a ``count``-block chunk, fold the
        launch's per-wave chunks — the refill among them — into its
        staggered chain (forming it on first use) when
        :meth:`_chainable` allows."""
        chain = None
        for batch in launch.batches:
            if batch.chunks is not None:
                chain = batch
                break
        join = self._chainable(launch, count)
        if chain is None:
            if not join:
                return
            chain = _Batch(launch, 0, 0, self.engine.now, duration, 0,
                           None, [])  # type: ignore[arg-type]
            launch.batches.append(chain)
            self._chains.append(chain)
            self._staggered.append(chain)
        else:
            # The refill drew on the chain's blocks_to_start either way.
            chain.event.cancel()
            if not join or chain.iter_duration != duration:
                self._plan(chain)
                return
        # Chunks join behind the chain's earliest record (a new chain's
        # is its earliest chunk) while they fit in its cycle.
        records = chain.chunks
        if records:
            front = records[0][:3]
        else:
            front = None
            for event, (_blocks, born) in launch.waves.items():
                key = (event.time, born, event.seq)
                if front is None or key < front:
                    front = key
        kept = {}
        for event, wave in launch.waves.items():
            key = (event.time, wave[1], event.seq)
            if key >= front and self._in_cycle(key[0], key[1], front[0],
                                               duration):
                event.cancel()
                records.append(key + (wave[0],))
                chain.count += wave[0]
            else:
                kept[event] = wave
        launch.waves = kept
        records.sort()
        self._plan(chain)

    @staticmethod
    def _in_cycle(end: float, born: float, first: float,
                  duration: float) -> bool:
        """Whether a chunk whose wave in flight has key ``(end, born)``
        comes before the next boundary ``(first + duration, first)`` of
        the chain's earliest chunk.  When every chunk does, rounded
        addition being monotone keeps all later boundaries in the same
        cyclic order (see :meth:`_plan`)."""
        limit = first + duration
        return end < limit or (end == limit and born <= first)

    def _plan(self, chain: _Batch) -> None:
        """Schedule ``chain``'s one event at its first boundary whose
        chunk ``blocks_to_start`` can no longer refill.

        Boundaries come in the cyclic order of the chunks' records:
        every later boundary of a chunk comes one ``iter_duration``
        after its previous one, rounded addition is monotone, and so
        the order of ``t + d`` never differs from the order of ``t``.
        Full cycles are counted, not walked.  The break's time is the
        repeated sum the per-wave events would have computed; when it
        lies several cycles ahead, the event is a checkpoint at a lower
        bound of it instead, which plans again from there (most chains
        are cut by an arrival or a pricing change long before).  The
        sequence numbers of the waves the chain will start are reserved
        now, in boundary order, so their keys stay comparable with
        every other event.
        """
        chunks = chain.chunks
        k = len(chunks)
        left = chain.launch.blocks_to_start
        cycles = left // chain.count
        left -= cycles * chain.count
        index = 0
        while left >= chunks[index][3]:
            left -= chunks[index][3]
            index += 1
        base = self.engine.reserve(cycles * k + index)
        chain.iters = base  # rank of the next wave the chain starts
        end, born, seq, _count = chunks[index]
        d = chain.iter_duration
        if cycles > _PLAN_CYCLES:
            # the repeated sum strays from end + cycles * d by less than
            # (cycles + 2) rounding errors of at most _ULP / 2 each
            approx = end + cycles * d
            chain.event = self.engine.schedule_at(
                approx - (cycles + 4) * _ULP * approx,
                lambda: self._replan(chain))
            return
        if cycles:
            for _ in range(cycles - 1):
                end += d
            born = end
            end += d
            seq = base + (cycles - 1) * k + index
        chain.event = self.engine.schedule_as(
            end, born, seq, lambda: self._staggered_done(chain))

    def _replan(self, chain: _Batch) -> None:
        """A checkpoint short of the break: catch up and plan again."""
        self._advance(chain)
        self._plan(chain)

    def _advance(self, chain: _Batch) -> None:
        """Run ``chain``'s wave boundaries that the per-wave model would
        have run before the current event: each one retires a chunk's
        wave and starts the next in its place.

        Boundaries run in cyclic order (see :meth:`_plan`) — round ``c``
        of the chunk at position ``p`` is boundary ``c * k + p`` — so
        each chunk is advanced on its own, and the chunks that ran one
        more round rotate to the back.
        """
        chunks = chain.chunks
        now, born_now, seq_now, _ = self.engine.current
        if chunks[0][0] > now:
            return
        d = chain.iter_duration
        k = len(chunks)
        base = chain.iters
        moved = []
        blocks = 0
        runs = 0
        for p, (end, born, seq, count) in enumerate(chunks):
            c = 0
            while end < now or (end == now and (
                    born < born_now or (born == born_now
                                        and seq < seq_now))):
                born = end
                end += d
                seq = base + c * k + p
                c += 1
            moved.append((end, born, seq, count))
            blocks += c * count
            runs += c
        if not runs:
            return
        q = runs % k
        chain.chunks = moved[q:] + moved[:q]
        chain.iters = base + runs
        launch = chain.launch
        launch.blocks_done += blocks
        launch.blocks_to_start -= blocks

    def _reprice_staggered(self, chain: _Batch) -> None:
        """Another client's residency flipped: the chain's next waves
        start at the new price.  Waves in flight keep theirs; a chunk
        whose wave now ends beyond the earliest chunk's next boundary
        leaves the chain as a per-wave event (it rejoins on refill)."""
        self._advance(chain)
        duration = self._block_duration(chain.launch)
        if duration == chain.iter_duration:
            return
        chain.iter_duration = duration
        chunks = chain.chunks
        first = chunks[0][0]
        keep = [r for r in chunks
                if self._in_cycle(r[0], r[1], first, duration)]
        if len(keep) < len(chunks):
            self._rearm([r for r in chunks if r not in keep], chain.launch)
            chain.chunks = keep
            chain.count = sum(r[3] for r in keep)
        chain.event.cancel()
        self._plan(chain)

    def _rearm(self, records: list, launch: DeviceLaunch) -> None:
        """Give each ``(end, born, seq, blocks)`` record back its own
        per-wave event, under the key the per-wave model gave it."""
        tpb = launch.descriptor.threads_per_block
        schedule_as = self.engine.schedule_as
        finish = self._finish_batch
        waves = launch.waves
        for end, born, seq, count in records:
            event = schedule_as(end, born, seq,
                                lambda c=count: finish(launch, c, c * tpb))
            waves[event] = (count, born)

    def _dissolve(self, chain: _Batch) -> None:
        """Turn ``chain`` (advanced to now) back into one per-wave event
        per chunk.  The caller has cancelled the chain's event, or is
        running it."""
        self._chains.remove(chain)
        self._staggered.remove(chain)
        chain.launch.batches.remove(chain)
        self._rearm(chain.chunks, chain.launch)

    def _recheck_staggered(self, starts: int, groups: int) -> None:
        """A completion changed more than its own chunk: keep each
        staggered chain whose launch still refills every chunk (see
        :meth:`_chainable`), dissolve the others.  Launches below a kept
        chain saw this dispatch's final free pool and did not start, so
        they will not at its boundaries either; a group dispatch (which
        rotates the round-robin cursor) dissolves every chain.  A batch
        started since ``starts`` may have drawn on a kept chain's
        blocks, so its break is planned again."""
        for chain in list(self._staggered):
            if self._groups == groups and self._chainable(chain.launch, 0):
                if self._starts != starts:
                    chain.event.cancel()
                    self._plan(chain)
            else:
                chain.event.cancel()
                self._dissolve(chain)

    def _truncate_staggered(self) -> None:
        """The world is about to change: dissolve every staggered chain."""
        for chain in list(self._staggered):
            self._advance(chain)
            chain.event.cancel()
            self._dissolve(chain)

    def _staggered_done(self, chain: _Batch) -> None:
        """The boundary where ``chain``'s cycle breaks: run it as the
        per-wave event it stands for, with the other chunks per-wave."""
        self._advance(chain)
        _end, _born, _seq, count = chain.chunks.pop(0)
        self._dissolve(chain)
        self._finish_batch(chain.launch, count,
                           count * chain.launch.descriptor.threads_per_block)

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
        gets the per-wave event its settlement stood for."""
        batch.event.cancel()
        boundary, _born, seq, _tail = batch.tail
        tail = self._cross(batch)
        self._rearm([(boundary + batch.iter_duration, boundary, seq + 1,
                      tail)], batch.launch)

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
        a chain event, or for a single full wave its per-wave event
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
            self._rearm([(boundary, born, seq, batch.count)], batch.launch)
            return True
        batch.event = self.engine.schedule_as(
            boundary, born, seq, lambda: self._wave_chain_done(batch))
        return False

    def _fold_done(self, batch: _Batch) -> None:
        """Undisturbed to the end: cross the boundary, then settle the
        partial wave as its per-wave event."""
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
        if self._staggered:
            self._truncate_staggered()
        if batch in launch.batches:
            launch.batches.remove(batch)
        count = batch.count
        launch.blocks_done += batch.iters * count
        launch.blocks_to_start -= (batch.iters - 1) * count
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
            if self._staggered:
                self._truncate_staggered()
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
            self.tracer.emit(KernelComplete(
                ts=self.engine.now, client_id=launch.client_id,
                kernel=launch.descriptor.name, launch_seq=launch.seq,
                status=launch.status.value, blocks_done=launch.blocks_done,
                started_at=started,
                duration=(None if started is None
                          else self.engine.now - started),
            ))
            if launch.status is LaunchStatus.PREEMPTED:
                self.tracer.emit(PreemptAck(
                    ts=self.engine.now, client_id=launch.client_id,
                    kernel=launch.descriptor.name, launch_seq=launch.seq,
                    blocks_done=launch.blocks_done,
                    blocks_lost=launch.blocks_killed,
                ))
        try:
            self._resident.remove(launch)
        except ValueError:
            pass
        self.launches_completed += 1
        self._dispatch()
        if self.check.enabled:
            self.check.verify(self)
        if launch.on_complete is not None:
            launch.on_complete(launch)
