"""Tally's kernel transformations (paper §4.1).

Three passes over mini-PTX kernels:

* :func:`make_sliced` — slicing: partition a launch into sub-launches;
* :func:`make_unified_sync` — unified synchronization: funnel all syncs
  and returns through a single barrier (a prepositional safety pass);
* :func:`make_preemptible` — preemption: persistent-thread-block worker
  loop with a global task counter and preemption flag.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("RESERVED_PREFIX", "TransformMeta", "check_transformable"),
    ".dce": ("DCEStats", "eliminate_dead_code"),
    ".memo": ("TransformMemo", "load_snapshot", "transform_memo",
              "warm_snapshot"),
    ".peephole": ("PeepholeStats", "peephole_optimize"),
    ".pipeline": ("TransformPipeline", "TransformStats"),
    ".ptb": ("PreemptibleKernel", "PTBControl", "make_preemptible"),
    ".slicing": ("SlicedKernel", "SliceLaunch", "make_sliced", "plan_slices"),
    ".unified_sync": ("UnifiedSyncKernel", "make_unified_sync"),
})
