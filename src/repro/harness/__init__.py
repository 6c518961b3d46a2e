"""Experiment harness: co-location runner and per-figure drivers."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".colocate": ("JobResult", "JobSpec", "POLICY_NAMES", "RunConfig",
                  "RunResult", "clear_standalone_cache", "make_policy",
                  "run_colocation", "standalone"),
    ".regression": ("Drift", "compare_results"),
    ".serialize": ("cluster_result_to_dict", "load_result",
                   "result_to_dict", "save_result"),
    ".sweep": ("SweepCase", "run_sweep", "seed_sweep"),
})
