"""Tally core: transformation service, profiler, and scheduler.

Two halves share the transformation machinery:

* the **functional path** (:class:`TallyServer`, :func:`connect_runtime`)
  proves non-intrusiveness — unmodified applications execute through
  the virtualization layer with transformed kernels and identical
  results;
* the **timing path** (:class:`Tally`) runs the paper's priority-aware
  block-level scheduling algorithm over the discrete-event GPU and
  produces the evaluation numbers.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".candidates": ("SchedConfig", "SchedKind", "generate_candidates"),
    ".client": ("connect_runtime",),
    ".config": ("DEFAULT_TURNAROUND_BOUND", "TallyConfig"),
    ".profiler": ("Measurement", "TransparentProfiler"),
    ".scheduler": ("Tally", "TallyStats"),
    ".server": ("ClientCheckpoint", "TallyServer", "migrate_client"),
    ".transformer": ("ExecMode", "ExecPlan", "KernelTransformer"),
})
