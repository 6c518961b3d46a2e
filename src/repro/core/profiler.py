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
list, the measurements in candidate order and the count still
unmeasured.  A decision hashes the descriptor once and scans a short
list; it never hashes a ``(descriptor, config)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulerError
from ..gpu.kernel import KernelDescriptor
from ..gpu.specs import GPUSpec
from .candidates import SchedConfig, SchedKind, generate_candidates
from .config import TallyConfig

__all__ = ["Measurement", "TransparentProfiler"]

#: EWMA weight of a new sample.
_ALPHA = 0.3


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

    ``measured`` holds the :class:`Measurement` of each candidate in
    candidate order (None while unmeasured) and ``unmeasured`` counts
    the Nones, so :meth:`TransparentProfiler.choose` scans a list
    instead of hashing a ``(descriptor, config)`` pair per candidate.
    ``by_config`` maps every recorded configuration to its measurement,
    including configurations outside the candidate list (a degraded
    execution records the rung it actually ran).
    """

    __slots__ = ("candidates", "measured", "unmeasured", "by_config")

    def __init__(self, candidates: list[SchedConfig]) -> None:
        self.candidates = candidates
        self.measured: list[Measurement | None] = [None] * len(candidates)
        self.unmeasured = len(candidates)
        self.by_config: dict[SchedConfig, Measurement] = {}

    def add(self, config: SchedConfig, measurement: Measurement) -> None:
        """Store the first measurement of ``config``."""
        self.by_config[config] = measurement
        try:
            index = self.candidates.index(config)
        except ValueError:
            return
        self.measured[index] = measurement
        self.unmeasured -= 1


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
            profile = _Profile(
                generate_candidates(descriptor, self.spec, self.config))
            self._profiles[descriptor] = profile
        return profile

    # ------------------------------------------------------------------
    def prewarm(self, descriptor: KernelDescriptor) -> None:
        """Seed every unmeasured candidate with the analytic cost
        model's estimate.

        Models a server whose profile cache is already warm; runtime
        measurements keep refining the entries.
        """
        self._prewarm(descriptor, self._profile(descriptor))

    def _prewarm(self, descriptor: KernelDescriptor,
                 profile: _Profile) -> None:
        for candidate, measured in zip(profile.candidates,
                                       profile.measured):
            if measured is not None:
                continue
            if candidate.kind is SchedKind.SLICED:
                turnaround = descriptor.slice_duration(
                    self.spec, candidate.blocks_per_slice)
                duration = descriptor.sliced_duration(
                    self.spec, candidate.blocks_per_slice)
            elif candidate.kind is SchedKind.PTB:
                turnaround = descriptor.ptb_iteration_duration()
                duration = descriptor.ptb_duration(candidate.workers)
            else:
                turnaround = descriptor.duration(self.spec)
                duration = turnaround
            profile.add(candidate, Measurement(turnaround, duration))

    # ------------------------------------------------------------------
    def candidates(self, descriptor: KernelDescriptor) -> list[SchedConfig]:
        """Candidate configurations for ``descriptor`` (cached per descriptor)."""
        return self._profile(descriptor).candidates

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
            existing.update(turnaround, duration)

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
                self._prewarm(descriptor, profile)
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
        """
        best = self._fastest(profile, self.config.turnaround_latency_bound)
        if best is None:
            least = min([m.turnaround for m in profile.measured
                         if m is not None])
            best = self._fastest(profile, 2.0 * least)
        return best

    @staticmethod
    def _fastest(profile: _Profile, bound: float) -> SchedConfig | None:
        best = None
        best_key = None
        for candidate, m in zip(profile.candidates, profile.measured):
            if m is not None and m.turnaround <= bound:
                key = (m.duration, m.turnaround)
                if best_key is None or key < best_key:
                    best, best_key = candidate, key
        return best
