"""Reproduction of *Tally: Non-Intrusive Performance Isolation for
Concurrent Deep Learning Workloads* (ASPLOS 2025).

The package is layered bottom-up:

* :mod:`repro.ptx` — mini-PTX IR, builder, validator, and a functional
  interpreter with CUDA-faithful block/barrier semantics;
* :mod:`repro.transform` — the paper's kernel transformations (slicing,
  unified synchronization, preemption/persistent thread blocks);
* :mod:`repro.gpu` — discrete-event GPU timing simulator (SM slots,
  occupancy, wave execution, PTB worker loops);
* :mod:`repro.runtime` / :mod:`repro.virt` — CUDA-like runtime API and
  the client/server virtualization layer Tally interposes on;
* :mod:`repro.core` — Tally itself: transformer, transparent profiler,
  priority-aware scheduler, and the functional server;
* :mod:`repro.baselines` — Time-Slicing, MPS, MPS-Priority, TGS, Ideal;
* :mod:`repro.workloads` / :mod:`repro.traffic` — the Table 2 workload
  suite and MAF2-style traffic;
* :mod:`repro.harness` — co-location runner and per-figure experiment
  drivers;
* :mod:`repro.trace` — event tracing and observability (ring-buffer
  tracer, JSONL/Chrome-trace sinks, derived counters);
* :mod:`repro.check` — opt-in runtime invariant checker and
  property-based differential validation of the simulator.

Quick start::

    from repro.harness import JobSpec, RunConfig, run_colocation

    result = run_colocation(
        "Tally",
        [JobSpec.inference("bert_infer", load=0.5),
         JobSpec.training("whisper_train")],
        RunConfig(duration=10.0),
    )
    print(result.job("bert_infer#0").latency.p99)

Every package re-exports its public names lazily (PEP 562, through
:func:`repro._lazy.lazy_exports`): ``import repro.harness`` runs no
submodule, and ``from repro.harness import JobSpec`` loads
:mod:`repro.harness.colocate` and what it imports, nothing else.  A run
therefore loads only the modules it executes, and all of them while its
inputs are built, before the first simulated event.
"""

from ._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".errors": ("ReproError",),
}, submodules=(
    "baselines", "check", "cluster", "core", "gpu", "harness", "metrics",
    "ptx", "runtime", "trace", "traffic", "transform", "virt", "workloads",
))
__all__ += ["__version__"]

__version__ = "1.0.0"
