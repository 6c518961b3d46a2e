"""Tally's transparent profiler (paper §4.2).

Tally cannot require offline profiling (its criticism of Orion), so it
measures candidate launch configurations *on the fly*: the first
executions of a best-effort kernel each try one candidate and record
two quantities —

* **turnaround latency**: how quickly the configuration releases the
  GPU on preemption (a slice's completion time, or a PTB launch's
  per-iteration time via the paper's ``kernel_latency /
  (total_blocks / worker_blocks)`` heuristic);
* **duration**: the kernel's total execution time under the
  configuration (the best-effort throughput cost).

Once every candidate has a measurement, :meth:`TransparentProfiler.
choose` returns the fastest configuration whose turnaround meets the
bound, falling back to the fastest within 2x of the lowest turnaround
if none qualifies.  Repeat measurements update an exponential moving
average, so the profile adapts if co-location conditions shift.

``choose`` runs once per best-effort kernel execution, so the profiler
keeps one record per descriptor (:class:`_Profile`): the candidate
list, the measurements in candidate order, the count still unmeasured
and the standing verdict.  A decision hashes the descriptor once and
returns the verdict; it ranks the candidates again only after a
:meth:`TransparentProfiler.record` that may have changed the ranking,
which the winner's own samples rarely do (:meth:`_Profile.revise`).
The record also keeps the scheduler's *standing decision* for the
descriptor's kernels that settle inline (:attr:`_Profile.decision`):
the device's trace walk finds it there and folds each run into its
measurement (:meth:`_Profile.fold`) without asking for a pick, until
the verdict is dropped.

What a record starts from — the candidate list and the analytic cost
model's estimate of each candidate (the prewarm seeds) — depends only on
the descriptor, the GPU and the Tally configuration, so it is computed
once per process (:func:`_setup`, memoized like the transform JIT's
artifacts) and shared, read-only, by every profiler: each cluster
device, each standalone baseline and each co-location run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SchedulerError
from ..gpu.kernel import KernelDescriptor
from ..gpu.specs import GPUSpec
from ..transform.memo import TransformMemo
from .candidates import SchedConfig, SchedKind, generate_candidates
from .config import TallyConfig

__all__ = ["Measurement", "TransparentProfiler"]

#: EWMA weight of a new sample.
_ALPHA = 0.3

#: bound on memoized profiler set-ups (a cluster run profiles a few
#: hundred distinct best-effort kernels)
SETUP_MEMO_CAPACITY = 1024

#: a descriptor's candidates and each one's ``(turnaround, duration)``
_Setup = tuple[tuple[SchedConfig, ...], tuple[tuple[float, float], ...]]

#: ``(descriptor, spec, config) -> _Setup``, shared by every profiler in
#: the process
_SETUPS = TransformMemo(SETUP_MEMO_CAPACITY)


def _setup(descriptor: KernelDescriptor, spec: GPUSpec,
           config: TallyConfig) -> _Setup:
    """The candidates of ``descriptor`` and the analytic cost model's
    ``(turnaround, duration)`` of each, built once per process."""
    key = (descriptor, spec, config)
    setup = _SETUPS.get(key)
    if setup is None:
        setup = _build_setup(descriptor, spec, config)
        _SETUPS.put(key, setup)
    return setup


def _build_setup(descriptor: KernelDescriptor, spec: GPUSpec,
                 config: TallyConfig) -> _Setup:
    candidates = tuple(generate_candidates(descriptor, spec, config))
    estimates = []
    for candidate in candidates:
        if candidate.kind is SchedKind.SLICED:
            turnaround = descriptor.slice_duration(
                spec, candidate.blocks_per_slice)
            duration = descriptor.sliced_duration(
                spec, candidate.blocks_per_slice)
        elif candidate.kind is SchedKind.PTB:
            turnaround = descriptor.ptb_iteration_duration()
            duration = descriptor.ptb_duration(candidate.workers)
        else:
            turnaround = descriptor.duration(spec)
            duration = turnaround
        estimates.append((turnaround, duration))
    return candidates, tuple(estimates)


@dataclass
class Measurement:
    """Running measurement of one (kernel, configuration) pair."""

    turnaround: float
    duration: float
    samples: int = 1

    def update(self, turnaround: float, duration: float) -> None:
        """Fold in one more sample (exponential moving average)."""
        self.turnaround += _ALPHA * (turnaround - self.turnaround)
        self.duration += _ALPHA * (duration - self.duration)
        self.samples += 1


class _Profile:
    """Everything the profiler knows about one kernel descriptor.

    ``candidates`` and their prewarm ``estimates`` are the shared,
    read-only :func:`_setup`; everything else belongs to one profiler.
    ``measured`` holds the :class:`Measurement` of each candidate in
    candidate order (None while unmeasured) and ``unmeasured`` counts
    the Nones, so :meth:`TransparentProfiler.pick` scans a list
    instead of hashing a ``(descriptor, config)`` pair per candidate.
    ``by_config`` maps every recorded configuration to its measurement,
    including configurations outside the candidate list (a degraded
    execution records the rung it actually ran).

    ``decision`` is the scheduler's standing decision for kernels of
    the descriptor that settle inline, or None: a tuple ``(pool, plans,
    gap, measure)`` that :meth:`~repro.gpu.device.GPUDevice.run_trace`
    reads (see there), where ``measure`` holds the chosen configuration
    and the :class:`Measurement` each run updates (see
    :meth:`repro.core.scheduler.Tally._decide`).  It is dropped with the
    verdict, whenever ``winner`` is reset.

    The rest is the standing verdict of
    :meth:`TransparentProfiler._select` (``winner`` None while there is
    none).  A candidate's *rank* is ``((duration, turnaround), index)``:
    its key, ties broken by candidate order.  The verdict is the
    winner's index, the runner-up's rank (None if none), the ``bound``
    the candidates qualified under, and for a ``relaxed`` verdict
    (nothing met the turnaround bound, so ``bound`` is twice the least
    turnaround) the least turnaround of the other candidates.
    :meth:`revise` keeps it across a
    :meth:`TransparentProfiler.record` that cannot change it.
    """

    __slots__ = ("candidates", "estimates", "measured", "unmeasured",
                 "by_config", "winner", "runner", "bound", "relaxed",
                 "others_least", "decision")

    def __init__(self, candidates: tuple[SchedConfig, ...],
                 estimates: tuple[tuple[float, float], ...]) -> None:
        self.candidates = candidates
        self.estimates = estimates
        self.measured: list[Measurement | None] = [None] * len(candidates)
        self.unmeasured = len(candidates)
        self.by_config: dict[SchedConfig, Measurement] = {}
        self.winner: int | None = None
        self.runner: tuple | None = None
        self.bound = 0.0
        self.relaxed = False
        self.others_least = math.inf
        self.decision: tuple | None = None

    def add(self, config: SchedConfig, measurement: Measurement) -> None:
        """Store the first measurement of ``config``."""
        self.by_config[config] = measurement
        try:
            index = self.candidates.index(config)
        except ValueError:
            return
        self.measured[index] = measurement
        self.unmeasured -= 1
        self.winner = self.decision = None

    def fold(self, measurement: Measurement, turnaround: float,
             duration: float, strict: float) -> None:
        """Fold one more sample into ``measurement``, one of this
        record's, and keep or drop the verdict (:meth:`revise`);
        ``strict`` is the turnaround bound."""
        measurement.update(turnaround, duration)
        if self.winner is not None:
            self.revise(measurement, strict)

    def revise(self, updated: Measurement, strict: float) -> None:
        """Keep the standing verdict after ``updated`` took a new
        sample if the ranking that made it still holds, else drop it.
        ``strict`` is the turnaround bound.

        The winner stays ahead when it still qualifies under an unmoved
        bound (a relaxed verdict's bound moves with the least
        turnaround) and still outranks the runner-up.  The runner-up
        stays runner-up when it improves without passing the winner.
        Any other measurement — a candidate's, or a configuration's
        outside the list — leaves the two ahead when it does not
        qualify or its key is behind the runner-up's.  Everything else
        may change the verdict, so it is dropped and the next pick
        ranks the candidates again."""
        winner = self.winner
        measured = self.measured
        turnaround = updated.turnaround
        key = (updated.duration, turnaround)
        runner = self.runner
        if updated is measured[winner]:
            if self.relaxed:
                bound_holds = turnaround > strict and min(
                    self.others_least, turnaround) * 2.0 == self.bound
            else:
                bound_holds = True
            if (bound_holds and turnaround <= self.bound
                    and (runner is None or (key, winner) < runner)):
                return
        elif not self.relaxed:
            if runner is not None and updated is measured[runner[1]]:
                best = measured[winner]
                rank = (key, runner[1])
                if (turnaround <= strict and rank <= runner and rank > (
                        (best.duration, best.turnaround), winner)):
                    self.runner = rank
                    return
            elif turnaround > strict or (runner is not None
                                         and key > runner[0]):
                return
        self.winner = self.decision = None


class TransparentProfiler:
    """Runtime measurement cache for best-effort launch configurations."""

    def __init__(self, spec: GPUSpec, config: TallyConfig) -> None:
        self.spec = spec
        self.config = config
        # Keyed on the full (frozen, hashable) descriptor, never the
        # bare name: two kernels sharing a name with different launch
        # geometry (blocks, threads, shared memory) have different
        # candidate sets and must not inherit each other's profile.
        self._profiles: dict[KernelDescriptor, _Profile] = {}
        self.profiling_runs = 0
        self.decisions = 0

    def _profile(self, descriptor: KernelDescriptor) -> _Profile:
        profile = self._profiles.get(descriptor)
        if profile is None:
            profile = _Profile(*_setup(descriptor, self.spec, self.config))
            self._profiles[descriptor] = profile
        return profile

    # ------------------------------------------------------------------
    def prewarm(self, descriptor: KernelDescriptor) -> None:
        """Seed every unmeasured candidate with the analytic cost
        model's estimate.

        Models a server whose profile cache is already warm; runtime
        measurements keep refining the entries.
        """
        self._prewarm(self._profile(descriptor))

    @staticmethod
    def _prewarm(profile: _Profile) -> None:
        for candidate, measured, estimate in zip(
                profile.candidates, profile.measured, profile.estimates):
            if measured is None:
                profile.add(candidate, Measurement(*estimate))

    # ------------------------------------------------------------------
    def candidates(self, descriptor: KernelDescriptor) -> list[SchedConfig]:
        """Candidate configurations for ``descriptor`` (built once per
        process, see :func:`_setup`)."""
        return list(self._profile(descriptor).candidates)

    def lookup(self, descriptor: KernelDescriptor,
               config: SchedConfig) -> Measurement | None:
        """The stored measurement, or None if never profiled."""
        profile = self._profiles.get(descriptor)
        return None if profile is None else profile.by_config.get(config)

    def record(self, descriptor: KernelDescriptor, config: SchedConfig,
               turnaround: float, duration: float) -> None:
        """Store one measurement sample."""
        if not (turnaround >= 0 and duration >= 0):  # also rejects NaN
            raise SchedulerError(
                "measurements must be non-negative numbers, got "
                f"turnaround={turnaround!r} duration={duration!r}")
        profile = self._profiles.get(descriptor)
        if profile is None:
            profile = self._profile(descriptor)
        existing = profile.by_config.get(config)
        if existing is None:
            profile.add(config, Measurement(turnaround, duration))
        else:
            profile.fold(existing, turnaround, duration,
                         self.config.turnaround_latency_bound)

    # ------------------------------------------------------------------
    def choose(self, descriptor: KernelDescriptor) -> tuple[SchedConfig, bool]:
        """Pick the launch configuration for one best-effort execution
        and count the pick (:meth:`pick`, then :meth:`count`).

        Returns ``(config, is_profiling_run)``.  While unmeasured
        candidates remain, each execution profiles the next one; after
        that, the best measured configuration is used (paper Fig. 3,
        ``launch_and_profile``).
        """
        config, profiling = self.pick(descriptor)
        self.count(profiling)
        return config, profiling

    def pick(self, descriptor: KernelDescriptor) -> tuple[SchedConfig, bool]:
        """What :meth:`choose` returns, without counting it: neither
        ``profiling_runs`` nor ``decisions`` moves.  It may create or
        prewarm the descriptor's record, as the first :meth:`choose`
        for it would."""
        profile = self._profiles.get(descriptor)
        if profile is None:
            profile = self._profile(descriptor)
        if profile.unmeasured:
            if self.config.prewarm_profiles:
                self._prewarm(profile)
            else:
                for candidate, m in zip(profile.candidates,
                                        profile.measured):
                    if m is None:
                        return candidate, True
        return self._select(profile), False

    def count(self, profiling: bool) -> None:
        """Count one pick of :meth:`pick` as a profiling run or a
        decision."""
        if profiling:
            self.profiling_runs += 1
        else:
            self.decisions += 1

    def best_known(self, descriptor: KernelDescriptor) -> SchedConfig:
        """The configuration :meth:`choose` would settle on (no profiling)."""
        profile = self._profile(descriptor)
        if profile.unmeasured == len(profile.candidates):
            return profile.candidates[0]
        return self._select(profile)

    def _select(self, profile: _Profile) -> SchedConfig:
        """The fastest measured candidate whose turnaround meets the
        bound (ties go to the lower turnaround, then to candidate order).

        When nothing meets the bound, chasing the absolute minimum
        turnaround can be ruinous (a sub-capacity slice releases the GPU
        marginally sooner than a PTB launch but serializes partial
        waves, multiplying the kernel's duration), so any candidate
        within 2x of the best turnaround qualifies instead.

        The verdict stands on the profile until a :meth:`record` may
        change it (:meth:`_Profile.revise`); only then does the next
        call rank the candidates again (:meth:`_fastest`).
        """
        if profile.winner is None:
            self._fastest(profile, self.config.turnaround_latency_bound)
        return profile.candidates[profile.winner]

    @staticmethod
    def _fastest(profile: _Profile, strict: float) -> None:
        """Rank ``profile``'s measured candidates and store the verdict
        of :meth:`_select` on it: the winner and the runner-up among the
        candidates within ``strict``, or, if none is, within twice the
        least turnaround."""
        measured = profile.measured
        bound = strict
        relaxed = False
        while True:
            best = runner = None
            for index, m in enumerate(measured):
                if m is not None and m.turnaround <= bound:
                    rank = ((m.duration, m.turnaround), index)
                    if best is None or rank < best:
                        best, runner = rank, best
                    elif runner is None or rank < runner:
                        runner = rank
            if best is not None:
                break
            bound = 2.0 * min([m.turnaround for m in measured
                               if m is not None])
            relaxed = True
        winner = best[1]
        if relaxed:
            profile.others_least = min(
                [m.turnaround for index, m in enumerate(measured)
                 if m is not None and index != winner], default=math.inf)
        profile.winner = winner
        profile.runner = runner
        profile.bound = bound
        profile.relaxed = relaxed
