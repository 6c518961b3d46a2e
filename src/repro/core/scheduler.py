"""Tally's priority-aware scheduler (paper §4.2, Figure 3).

The scheduling policy is opportunistic and strictly priority-enforced:

* kernels from the high-priority client dispatch **immediately** at
  device priority 0, and every active best-effort execution is
  preempted (PTB launches via their flag; sliced launches by not
  starting the next slice);
* best-effort kernels execute only while the high-priority client is
  inactive, under the launch configuration selected by the transparent
  profiler (slicing degree or PTB worker count meeting the turnaround
  bound);
* preempted best-effort work resumes exactly where it stopped — the
  next slice offset, or the PTB task counter.

With ``use_transformations=False`` best-effort kernels launch whole and
unpreemptible, reproducing the paper's "scheduling w/o transformation"
ablation (Fig. 6b).

A high-priority client runs ahead (:meth:`Tally.run_ahead`) while the
device is idle: its kernels then run alone and every best-effort
execution is held, so the driver settles them inline and the scheduler
only counts them.  The stretch holds best-effort work from its first
kernel to its resume event, which finishes the last kernel as
:meth:`Tally._high_priority_done` would (see ``docs/performance.md``,
"Tally's high-priority stream").  A best-effort client runs ahead while
no high-priority kernel is outstanding and no other best-effort kernel
is in flight: each kernel's whole execution — its chain of slices, its
PTB launch or its whole launch — then runs alone and undisturbed, so it
settles inline under the configuration the profiler picks and is
measured and counted as :meth:`Tally._slice_done`, :meth:`Tally._ptb_done`
and :meth:`Tally._original_done` do ("Tally's best-effort stream").
The pick stands: a descriptor's *standing decision* (:meth:`Tally._decide`)
holds the configuration, its launches' device plans and the measurement
each run updates, and the device's trace walk settles kernel after
kernel under it, folding each run into the measurement
(:meth:`Tally._fold`), until a sample drops the profiler's verdict or
the device's free pool or speed changes.  Only the event path builds a
:class:`_BEExecution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..baselines.base import ClientInfo, Priority, SharingPolicy
from ..errors import PreemptTimeout, SchedulerError
from ..gpu.device import DeviceLaunch, GPUDevice, LaunchStatus
from ..gpu.engine import EventLoop
from ..gpu.kernel import KernelDescriptor, LaunchConfig, LaunchKind
from .. import trace
from .candidates import ORIGINAL_CONFIG, SchedConfig, SchedKind, generate_candidates
from .config import TallyConfig
from .profiler import TransparentProfiler

__all__ = ["Tally", "TallyStats"]

#: device priority of best-effort launches (high-priority launches use
#: 0, which the device serves first)
BEST_EFFORT_PRIORITY = 1


@dataclass
class TallyStats:
    """Scheduler activity counters."""

    hp_kernels: int = 0
    be_kernels: int = 0
    preemptions: int = 0
    slices_launched: int = 0
    ptb_launches: int = 0
    resumes: int = 0
    #: preemption-watchdog escalations to a forced reset
    watchdog_resets: int = 0
    #: degradation-ladder steps after failed transformations
    transform_fallbacks: int = 0


@dataclass
class _BEExecution:
    """One best-effort kernel making its way through the scheduler."""

    descriptor: KernelDescriptor
    on_done: Callable[[], None]
    config: SchedConfig | None = None
    profiling: bool = False
    launch: DeviceLaunch | None = None  # in-flight device launch
    #: sliced: the in-flight slice is already held at its boundary, so
    #: further high-priority arrivals must not re-announce the hold
    hold_noted: bool = False
    #: this launch has been asked to preempt (counted & watchdog armed
    #: once, even when the flag delivery is lost and re-attempted)
    preempt_pending: bool = False
    next_block: int = 0  # sliced: first block of the next slice
    tasks_remaining: int = 0  # ptb: logical blocks still to run
    active_time: float = 0.0  # accumulated execution time
    slice_times: list[float] = field(default_factory=list)
    segments: int = 0  # ptb: launch segments (resume count)


class Tally(SharingPolicy):
    """The Tally server's scheduling policy over the timing simulator."""

    name = "Tally"

    def __init__(self, device: GPUDevice, engine: EventLoop,
                 config: TallyConfig | None = None) -> None:
        super().__init__(device, engine)
        self.config = config if config is not None else TallyConfig()
        self.profiler = TransparentProfiler(device.spec, self.config)
        self.stats = TallyStats()
        self._hp_outstanding = 0
        self._executions: dict[str, _BEExecution] = {}  # client -> active exec
        #: high-priority clients in a run-ahead stretch; each holds one
        #: count in ``_hp_outstanding`` until its resume event
        self._stretches: set[str] = set()

    # ------------------------------------------------------------------
    # Submission entry point
    # ------------------------------------------------------------------
    def _submit(self, info: ClientInfo, descriptor: KernelDescriptor,
                on_done: Callable[[], None]) -> None:
        if info.priority is Priority.HIGH:
            self._submit_high_priority(info, descriptor, on_done)
        else:
            self._submit_best_effort(info, descriptor, on_done)

    def _submit_high_priority(self, info: ClientInfo,
                              descriptor: KernelDescriptor,
                              on_done: Callable[[], None]) -> None:
        self.stats.hp_kernels += 1
        self._hp_outstanding += 1
        self._preempt_best_effort()
        self._launch_high_priority(info, descriptor, on_done,
                                   blocks=descriptor.num_blocks,
                                   block_offset=0)

    def _launch_high_priority(self, info: ClientInfo,
                              descriptor: KernelDescriptor,
                              on_done: Callable[[], None], *,
                              blocks: int, block_offset: int) -> None:
        launch = DeviceLaunch(
            descriptor,
            client_id=info.client_id,
            priority=0,
            blocks=blocks,
            block_offset=block_offset,
            on_complete=lambda l: self._high_priority_done(
                info, descriptor, on_done, l),
        )
        self.device.submit(launch)

    def _high_priority_done(self, info: ClientInfo,
                            descriptor: KernelDescriptor,
                            on_done: Callable[[], None],
                            launch: DeviceLaunch) -> None:
        remaining = launch.total_blocks - launch.blocks_done
        if launch.status is LaunchStatus.PREEMPTED and remaining > 0:
            # Only a device slot fault can stop a high-priority launch
            # (the scheduler never preempts them); relaunch the
            # destroyed remainder so the client still gets its result.
            self._launch_high_priority(
                info, descriptor, on_done, blocks=remaining,
                block_offset=launch.block_offset + launch.blocks_done)
            return
        self._hp_outstanding -= 1
        on_done()  # the client may submit its next kernel synchronously
        if self._hp_outstanding == 0:
            self._resume_best_effort()

    def _submit_best_effort(self, info: ClientInfo,
                            descriptor: KernelDescriptor,
                            on_done: Callable[[], None]) -> None:
        if info.client_id in self._executions:
            raise SchedulerError(
                f"client {info.client_id!r} submitted a kernel while one "
                "is still executing (clients are stream-ordered)"
            )
        self.stats.be_kernels += 1
        execution = _BEExecution(descriptor, on_done)
        execution.tasks_remaining = descriptor.num_blocks
        self._executions[info.client_id] = execution
        self._advance(info.client_id, execution)

    # ------------------------------------------------------------------
    # Run-ahead
    # ------------------------------------------------------------------
    def run_ahead(self, client_id: str) -> tuple[float, bool] | None:
        """Run a client ahead on an idle device (see
        :meth:`~repro.gpu.device.GPUDevice.solo_window`).

        Idle means no best-effort launch is resident or in its
        submission delay, so a high-priority kernel finds nothing for
        :meth:`_preempt_best_effort` to stop and runs alone, as
        :meth:`_launch_high_priority` would run it.  A best-effort
        client is granted only while no high-priority kernel is
        outstanding (a stretch holds its count) and no best-effort
        execution exists: its execution then starts at once in
        :meth:`_advance`, and the window ensures no arrival preempts or
        joins it before it ends."""
        info = self.clients.get(client_id)
        if info is None:
            return None
        if info.priority is not Priority.HIGH and (self._hp_outstanding
                                                   or self._executions):
            return None
        return self.device.solo_window()

    def run_ahead_crosses_gaps(self, client_id: str) -> bool:
        """A high-priority stretch stops before a host gap: at the gap's
        start the event path resumes held best-effort work.  Nothing
        happens when a best-effort client's stream pauses."""
        return self.clients[client_id].priority is not Priority.HIGH

    def inline_decisions(self, client_id: str) -> tuple | None:
        """A high-priority kernel runs alone, as on a passthrough
        policy; a best-effort kernel runs its whole execution under its
        standing decision (:meth:`_decide`, :meth:`_fold`)."""
        if self.clients[client_id].priority is Priority.HIGH:
            return None
        return self.profiler._profiles, self._decide, self._fold

    def count_inline(self, client_id: str, kernels: int) -> None:
        super().count_inline(client_id, kernels)
        if self.clients[client_id].priority is not Priority.HIGH:
            self.stats.be_kernels += kernels
        elif kernels:
            self.stats.hp_kernels += kernels
            if client_id not in self._stretches:
                # the event path keeps a count outstanding from the
                # first kernel's submission to the last one's completion
                self._stretches.add(client_id)
                self._hp_outstanding += 1

    def _decide(self, descriptor: KernelDescriptor, pool) -> tuple:
        """The decision a best-effort kernel of ``descriptor`` settles
        inline under on the device's free ``pool`` (see
        :meth:`~repro.gpu.device.GPUDevice.run_trace`): the
        configuration :meth:`_advance` would pick, the plans of its
        launches and ``measure = (descriptor, config, profile,
        measurement, profiling, divisor, launches)`` for :meth:`_fold`.

        Each launch is submitted when the previous one completes and
        starts on arrival, one launch overhead later, so its elapsed
        time (what :meth:`_elapsed` reads off a device launch) is its
        completion minus its arrival.  A slice adds its launch overhead
        to the kernel's active time, and a PTB launch's turnaround is
        its active time over its ``divisor`` of iterations, as on the
        event path.  The decision stands on the descriptor's profile
        until the verdict is dropped (:meth:`_Profile.revise`) or the
        pool changes; a pick whose configuration has no measurement
        yet (a profiling run, or a first whole launch without
        transformations) serves one kernel."""
        config, profiling = self._pick(descriptor)
        device = self.device
        kind = config.kind
        plans = device.launch_plans(descriptor, config.blocks_per_slice,
                                    config.workers)
        divisor = max(1, math.ceil(descriptor.num_blocks / config.workers)
                      ) if kind is SchedKind.PTB else 1
        gap = (device.spec.kernel_launch_overhead
               if kind is SchedKind.SLICED else 0.0)
        profile = self.profiler._profiles.get(descriptor)
        measurement = profile.by_config.get(config) if profile else None
        decision = (pool, plans, gap, (
            descriptor, config, profile, measurement, profiling, divisor,
            len(plans) if kind is SchedKind.SLICED else 0))
        if measurement is not None:
            profile.decision = decision
        return decision

    def _fold(self, measure: tuple, longest: float, active: float) -> None:
        """Measure and count a best-effort kernel that settled inline
        under the decision holding ``measure``: its longest launch ran
        ``longest`` and it was active ``active``.  It is recorded as
        :meth:`_ptb_done`, :meth:`_slice_done` and
        :meth:`_original_done` record it, and counted as a pick."""
        (descriptor, config, profile, measurement, profiling, divisor,
         launches) = measure
        turnaround = longest / divisor
        if measurement is None:
            self.profiler.record(descriptor, config, turnaround, active)
            self._count_pick(profiling)
        else:
            profile.fold(measurement, turnaround, active,
                         self.config.turnaround_latency_bound)
            if self.config.use_transformations:
                self.profiler.decisions += 1
        if config.kind is SchedKind.PTB:
            self.stats.ptb_launches += 1
        else:
            self.stats.slices_launched += launches

    def run_ahead_resume(self, client_id: str,
                         resume: Callable[[], None]) -> Callable[[], None]:
        def finish() -> None:
            # _high_priority_done's tail; nothing is owed for a stretch
            # that _on_disconnect already ended
            owed = client_id in self._stretches
            if owed:
                self._stretches.discard(client_id)
                self._hp_outstanding -= 1
            resume()
            if owed and self._hp_outstanding == 0:
                self._resume_best_effort()
        return finish

    # ------------------------------------------------------------------
    # Priority enforcement
    # ------------------------------------------------------------------
    @property
    def high_priority_active(self) -> bool:
        return self._hp_outstanding > 0

    def _preempt_best_effort(self) -> None:
        """Stop every best-effort execution at block granularity.

        Idempotent per launch: a burst of high-priority submissions
        while one best-effort launch is still draining preempts (and
        counts, and traces) that launch exactly once.
        """
        for client_id, execution in self._executions.items():
            launch = execution.launch
            if launch is None or launch.done:
                continue
            if launch.config.kind is LaunchKind.PTB:
                if not launch.preempt_requested:
                    # preempt() returns False when fault injection loses
                    # the flag write; the scheduler cannot observe that
                    # (only the missing ack), so it counts and arms the
                    # watchdog on the FIRST attempt either way, and a
                    # later high-priority arrival retries the write.
                    self.device.preempt(launch)
                    if not execution.preempt_pending:
                        execution.preempt_pending = True
                        self.stats.preemptions += 1
                        self._arm_watchdog(client_id, launch)
            elif (execution.config is not None
                  and execution.config.kind is SchedKind.SLICED
                  and not execution.hold_noted):
                # Held at the next slice boundary: the slice in flight
                # completes normally, so the device never acks this.
                execution.hold_noted = True
                if self.tracer.enabled:
                    self.tracer.emit(trace.PreemptRequest(
                        ts=self.engine.now, client_id=launch.client_id,
                        kernel=launch.descriptor.name, launch_seq=launch.seq,
                        mechanism="slice-boundary",
                    ))
            # Sliced executions stop by not launching the next slice;
            # the slice in flight completes (bounded by the profiled
            # turnaround).  ORIGINAL launches cannot be stopped — that
            # is exactly the no-transformation ablation's weakness.

    def _arm_watchdog(self, client_id: str, launch: DeviceLaunch) -> None:
        """Escalate to a forced reset if the ack misses its deadline.

        Disabled unless ``preempt_deadline`` is configured, so fault-
        free runs behave exactly as before the watchdog existed.
        """
        deadline = self.config.preempt_deadline
        if deadline is None:
            return
        requested_at = self.engine.now
        self.engine.schedule(
            deadline,
            lambda: self._watchdog_fire(client_id, launch, requested_at))

    def _watchdog_fire(self, client_id: str, launch: DeviceLaunch,
                       requested_at: float) -> None:
        if launch.done:
            return  # the ack arrived in time; nothing to do
        waited = self.engine.now - requested_at
        if not self.config.watchdog_escalate:
            raise PreemptTimeout(
                f"launch {launch.seq} of {launch.descriptor.name!r} "
                f"(client {client_id!r}) missed its preemption deadline "
                f"({waited * 1e3:.3f} ms > {self.config.preempt_deadline * 1e3:.3f} ms)"
            )
        self.stats.watchdog_resets += 1
        if self.tracer.enabled:
            self.tracer.emit(trace.WatchdogReset(
                ts=self.engine.now, client_id=client_id,
                kernel=launch.descriptor.name, launch_seq=launch.seq,
                deadline=self.config.preempt_deadline, waited=waited,
            ))
        # REEF-style reset: in-flight blocks are discarded; _ptb_done
        # sees a PREEMPTED retirement and resumes from the task counter
        # once the high-priority burst ends.
        self.device.kill(launch)

    def _resume_best_effort(self) -> None:
        for client_id in list(self._executions):
            execution = self._executions.get(client_id)
            if execution is not None and execution.launch is None:
                self.stats.resumes += 1
                if self.tracer.enabled:
                    self.tracer.emit(trace.Resume(
                        ts=self.engine.now, client_id=client_id,
                        kernel=execution.descriptor.name,
                        next_block=execution.next_block,
                        tasks_remaining=execution.tasks_remaining,
                        transform=(execution.config.describe()
                                   if execution.config is not None
                                   else "undecided"),
                    ))
                self._advance(client_id, execution)

    # ------------------------------------------------------------------
    # Best-effort execution state machine
    # ------------------------------------------------------------------
    def _advance(self, client_id: str, execution: _BEExecution) -> None:
        """Start or continue a best-effort execution if allowed."""
        if self.high_priority_active or execution.launch is not None:
            return

        if execution.config is None:
            execution.config, execution.profiling = self._pick(
                execution.descriptor)
            self._count_pick(execution.profiling)
            if not self.config.use_transformations:
                reason = "transformations disabled"
            elif execution.profiling:
                reason = "profiling unmeasured candidate"
            else:
                reason = "best measured config under turnaround bound"
            if self.device.faults.enabled:
                degraded = self._degrade(client_id, execution)
                if degraded:
                    reason = f"{reason}; degraded after transform fault"
                    execution.profiling = False
            if self.tracer.enabled:
                self.tracer.emit(trace.SchedDecision(
                    ts=self.engine.now, client_id=client_id,
                    kernel=execution.descriptor.name,
                    transform=execution.config.describe(),
                    reason=reason, profiling=execution.profiling,
                ))

        kind = execution.config.kind
        if kind is SchedKind.SLICED:
            self._launch_slice(client_id, execution)
        elif kind is SchedKind.PTB:
            self._launch_ptb(client_id, execution)
        else:
            self._launch_original(client_id, execution)

    def _pick(self, descriptor: KernelDescriptor) -> tuple[SchedConfig, bool]:
        """``(config, profiling)`` of a new best-effort execution of
        ``descriptor``; no counter moves until :meth:`_count_pick`."""
        if self.config.use_transformations:
            return self.profiler.pick(descriptor)
        return ORIGINAL_CONFIG, False

    def _count_pick(self, profiling: bool) -> None:
        if self.config.use_transformations:
            self.profiler.count(profiling)

    def _degrade(self, client_id: str, execution: _BEExecution) -> bool:
        """Walk the degradation ladder past faulted transformations.

        PTB falls to the smallest sliced candidate; sliced falls to the
        original kernel, which needs no transformation and so always
        works — at that rung the kernel is still *priority-aware*
        time-sliced (best-effort launches only reach the device while
        the high-priority client is idle), it merely loses intra-kernel
        preemptibility.  Injected transform faults are memoized per
        (kernel, mode), so the ladder settles to a stable rung.
        """
        assert execution.config is not None
        faults = self.device.faults
        descriptor = execution.descriptor
        degraded = False
        config = execution.config
        if (config.kind is SchedKind.PTB
                and faults.transform_fault(descriptor.name, "ptb")):
            fallback = next(
                (c for c in generate_candidates(descriptor, self.device.spec,
                                                self.config)
                 if c.kind is SchedKind.SLICED), ORIGINAL_CONFIG)
            self._note_degrade(client_id, descriptor, config, fallback,
                               "ptb transformation failed")
            config, degraded = fallback, True
        if (config.kind is SchedKind.SLICED
                and faults.transform_fault(descriptor.name, "sliced")):
            self._note_degrade(client_id, descriptor, config, ORIGINAL_CONFIG,
                               "sliced transformation failed")
            config, degraded = ORIGINAL_CONFIG, True
        execution.config = config
        return degraded

    def _note_degrade(self, client_id: str, descriptor: KernelDescriptor,
                      from_config: SchedConfig,
                      to_config: SchedConfig, reason: str) -> None:
        self.stats.transform_fallbacks += 1
        if self.tracer.enabled:
            self.tracer.emit(trace.TransformDegrade(
                ts=self.engine.now, client_id=client_id,
                kernel=descriptor.name,
                from_transform=from_config.describe(),
                to_transform=to_config.describe(), reason=reason,
            ))

    def _launch_original(self, client_id: str,
                         execution: _BEExecution) -> None:
        # ``next_block`` is 0 on the first launch (the whole grid); it
        # advances only when a device fault destroys a launch partway,
        # in which case the relaunch covers just the remainder.
        remaining = execution.descriptor.num_blocks - execution.next_block
        launch = DeviceLaunch(
            execution.descriptor,
            client_id=client_id,
            priority=BEST_EFFORT_PRIORITY,
            blocks=remaining,
            block_offset=execution.next_block,
            on_complete=lambda l: self._original_done(client_id, execution, l),
        )
        execution.launch = launch
        self.device.submit(launch)

    def _original_done(self, client_id: str, execution: _BEExecution,
                       launch: DeviceLaunch) -> None:
        execution.launch = None
        execution.preempt_pending = False
        execution.active_time += self._elapsed(launch)
        execution.next_block += launch.blocks_done
        execution.tasks_remaining = (
            execution.descriptor.num_blocks - execution.next_block
        )
        if execution.tasks_remaining <= 0:
            # a whole launch releases the device only when it ends
            self.profiler.record(execution.descriptor, execution.config,
                                 execution.active_time, execution.active_time)
            self._finish(client_id, execution)
        elif not self.high_priority_active:
            # A slot fault reset the launch mid-grid; re-run the rest.
            self._launch_original(client_id, execution)
        # else: paused; _resume_best_effort continues from next_block.

    def _launch_slice(self, client_id: str, execution: _BEExecution) -> None:
        assert execution.config is not None
        execution.hold_noted = False  # a new slice starts a new episode
        remaining = execution.descriptor.num_blocks - execution.next_block
        blocks = min(execution.config.blocks_per_slice, remaining)
        launch = DeviceLaunch(
            execution.descriptor,
            client_id=client_id,
            priority=BEST_EFFORT_PRIORITY,
            blocks=blocks,
            block_offset=execution.next_block,
            on_complete=lambda l: self._slice_done(client_id, execution, l),
        )
        execution.launch = launch
        self.stats.slices_launched += 1
        if self.tracer.enabled:
            self.tracer.emit(trace.SliceDispatch(
                ts=self.engine.now, client_id=client_id,
                kernel=execution.descriptor.name, launch_seq=launch.seq,
                slice_index=len(execution.slice_times), blocks=blocks,
                block_offset=execution.next_block,
            ))
        self.device.submit(launch)

    def _slice_done(self, client_id: str, execution: _BEExecution,
                    launch: DeviceLaunch) -> None:
        execution.launch = None
        execution.preempt_pending = False
        elapsed = self._elapsed(launch)
        execution.active_time += elapsed + self.device.spec.kernel_launch_overhead
        execution.slice_times.append(elapsed)
        # blocks_done, not total_blocks: a fault-killed slice completes
        # only part of its range, and the next slice must re-cover the
        # destroyed blocks
        execution.next_block += launch.blocks_done
        execution.tasks_remaining = (
            execution.descriptor.num_blocks - execution.next_block
        )
        if execution.tasks_remaining <= 0:
            self.profiler.record(execution.descriptor, execution.config,
                                 max(execution.slice_times),
                                 execution.active_time)
            self._finish(client_id, execution)
        elif not self.high_priority_active:
            self._launch_slice(client_id, execution)
        # else: paused; _resume_best_effort continues from next_block.

    def _launch_ptb(self, client_id: str, execution: _BEExecution) -> None:
        assert execution.config is not None
        launch = DeviceLaunch(
            execution.descriptor,
            LaunchConfig(LaunchKind.PTB, workers=execution.config.workers),
            client_id=client_id,
            priority=BEST_EFFORT_PRIORITY,
            blocks=execution.tasks_remaining,
            block_offset=(execution.descriptor.num_blocks
                          - execution.tasks_remaining),
            on_complete=lambda l: self._ptb_done(client_id, execution, l),
        )
        execution.launch = launch
        execution.segments += 1
        self.stats.ptb_launches += 1
        if self.tracer.enabled:
            self.tracer.emit(trace.PtbDispatch(
                ts=self.engine.now, client_id=client_id,
                kernel=execution.descriptor.name, launch_seq=launch.seq,
                workers=execution.config.workers,
                tasks_remaining=execution.tasks_remaining,
                segment=execution.segments,
            ))
        self.device.submit(launch)

    def _ptb_done(self, client_id: str, execution: _BEExecution,
                  launch: DeviceLaunch) -> None:
        execution.launch = None
        execution.preempt_pending = False
        execution.active_time += self._elapsed(launch)
        execution.tasks_remaining -= launch.tasks_done
        if launch.status is LaunchStatus.COMPLETED:
            # The paper's heuristic: turnaround = kernel latency divided
            # by blocks per worker, i.e. the per-iteration time.
            iterations = max(1, math.ceil(execution.descriptor.num_blocks
                                          / execution.config.workers))
            self.profiler.record(execution.descriptor, execution.config,
                                 execution.active_time / iterations,
                                 execution.active_time)
            self._finish(client_id, execution)
        elif not self.high_priority_active:
            # Preempted, but the high-priority burst already ended.
            self._launch_ptb(client_id, execution)
        # else: resumed by _resume_best_effort from the task counter.

    # ------------------------------------------------------------------
    def _on_disconnect(self, info: ClientInfo) -> int:
        """Drop a crashed client's execution and kill its launch.

        A crashed high-priority client simply stops submitting (its
        launches have no scheduler-side state beyond the completion
        chain, which dies with the driver); a best-effort client may
        have an execution in flight whose launch must be killed so the
        device's slots return to the pool.
        """
        execution = self._executions.pop(info.client_id, None)
        cancelled = 0
        stretched = info.client_id in self._stretches
        if stretched:
            # the stretch's resume event may never come (a checkpoint
            # cancels it), so it no longer owes its count
            self._stretches.discard(info.client_id)
            self._hp_outstanding -= 1
        launch = execution.launch if execution is not None else None
        if launch is not None and not launch.done:
            # nobody is left to take the completion; sever it before the
            # kill so _ptb_done/_slice_done don't touch dead state
            launch.on_complete = None
            self.device.kill(launch)
            cancelled += 1
        for stray in self.device.resident_for(info.client_id):
            stray.on_complete = None
            self.device.kill(stray)
            cancelled += 1
            if info.priority is Priority.HIGH and self._hp_outstanding > 0:
                # its completion chain is severed, so account for it now
                self._hp_outstanding -= 1
        if (info.priority is Priority.HIGH and (cancelled or stretched)
                and self._hp_outstanding == 0):
            self._resume_best_effort()
        return cancelled

    # ------------------------------------------------------------------
    def _finish(self, client_id: str, execution: _BEExecution) -> None:
        del self._executions[client_id]
        execution.on_done()

    @staticmethod
    def _elapsed(launch: DeviceLaunch) -> float:
        if math.isnan(launch.started_at):
            return 0.0
        return launch.finished_at - launch.started_at
