"""Tally configuration.

The single tunable the paper highlights is the **turnaround latency
threshold**: the maximum time a scheduled best-effort kernel may take
to release the GPU once a high-priority kernel arrives.  The paper's
sweep (Fig. 6c) selects 0.0316 ms as the default.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulerError

__all__ = ["TallyConfig", "DEFAULT_TURNAROUND_BOUND"]

#: The paper's default turnaround-latency threshold (seconds).
DEFAULT_TURNAROUND_BOUND = 0.0316e-3


@dataclass(frozen=True)
class TallyConfig:
    """Knobs of the Tally server."""

    #: max acceptable turnaround latency of best-effort kernels (s)
    turnaround_latency_bound: float = DEFAULT_TURNAROUND_BOUND
    #: apply slicing/PTB transformations to best-effort kernels; turning
    #: this off yields the paper's "scheduling w/o transformation"
    #: ablation (priority-aware kernel-level scheduling only)
    use_transformations: bool = True
    #: candidate slice sizes, as fractions of the kernel's total blocks
    slice_fractions: tuple[float, ...] = (0.02, 0.05, 0.10, 0.25, 0.50)
    #: candidate PTB worker counts are these multiples of the SM count
    worker_sm_multiples: tuple[int, ...] = (1, 2, 4, 6, 8)
    #: seed the profiler with analytic estimates so short simulations
    #: behave like a long-running server with a warm profile cache;
    #: runtime measurements still refine the estimates (EWMA).  Set
    #: False for pure on-the-fly profiling from a cold cache.
    prewarm_profiles: bool = True
    #: preemption-ack deadline (seconds) for the watchdog; None (the
    #: default) disables it, keeping fault-free runs byte-identical to
    #: the pre-watchdog scheduler.  Fault-injected runs should set it
    #: to a few turnaround bounds.
    preempt_deadline: float | None = None
    #: when the deadline passes: True forces a REEF-style reset of the
    #: stuck launch; False raises PreemptTimeout (strict debugging mode)
    watchdog_escalate: bool = True

    def __post_init__(self) -> None:
        if self.turnaround_latency_bound <= 0:
            raise SchedulerError("turnaround_latency_bound must be > 0")
        if self.preempt_deadline is not None and self.preempt_deadline <= 0:
            raise SchedulerError("preempt_deadline must be > 0 (or None)")
        if not self.slice_fractions and not self.worker_sm_multiples:
            raise SchedulerError("need at least one candidate family")
        for fraction in self.slice_fractions:
            if not 0 < fraction <= 1:
                raise SchedulerError(
                    f"slice fraction {fraction} outside (0, 1]"
                )
        for multiple in self.worker_sm_multiples:
            if multiple < 1:
                raise SchedulerError(f"worker multiple {multiple} < 1")

    def with_bound(self, bound: float) -> "TallyConfig":
        """A copy with a different turnaround bound (for sweeps)."""
        from dataclasses import replace

        return replace(self, turnaround_latency_bound=bound)
