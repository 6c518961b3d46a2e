"""Parallel sweep runner: fan co-location runs out over processes.

A sweep is a list of :class:`SweepCase` — fully described, picklable
run requests (policy × jobs × config × seeds × faults).  Each case is
an **independent** simulation with its own event loop and seeded RNGs,
so cases can run in any order, in any process, and produce the same
:class:`~repro.harness.colocate.RunResult` — :func:`run_sweep` with
``jobs=N`` is guaranteed bit-identical to ``jobs=1`` (a property the
test suite asserts, including under invariant checking and fault
injection).

Two things make that guarantee hold:

* workers receive the :class:`~repro.faults.FaultConfig`, never a live
  injector — each child builds its own, so fault schedules depend only
  on the config's seed, not on which process runs the case;
* results come back with ``drivers`` stripped (simulation objects are
  neither picklable nor part of the sweep contract), and the serial
  path strips them too, so the two paths return the same object graph.

Worker processes additionally start with the parent's transform-memo
warm snapshot (:func:`repro.transform.warm_snapshot`): kernels the
parent already transformed are reused instead of recompiled.  The memo
is content-addressed, so warm workers stay bit-identical to cold ones.

Tracing is per-process mutable state and is deliberately not supported
here: trace a single :func:`~repro.harness.colocate.run_colocation`
instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from ..faults import FaultConfig
from ..transform.memo import load_snapshot, warm_snapshot
from .colocate import JobSpec, RunConfig, RunResult, run_colocation

__all__ = ["SweepCase", "run_sweep", "seed_sweep"]


def _init_worker(snapshot: object | None) -> None:
    """Pool-worker initializer: pre-load the transform memo.

    Workers start with a cold process-wide memo; shipping the parent's
    snapshot means any PTX variant the parent already compiled is reused
    instead of re-transformed.  Purely a warm-start: memo entries are
    content-addressed, so a warm and a cold worker produce bit-identical
    results (the sweep's jobs=N == jobs=1 guarantee is unaffected).
    """
    load_snapshot(snapshot)


@dataclass(frozen=True)
class SweepCase:
    """One fully described co-location run in a sweep."""

    policy: str
    jobs: tuple[JobSpec, ...]
    config: RunConfig
    #: free-form tag carried through to the report (e.g. "seed 3")
    label: str = ""
    #: audit device accounting after every event (raises on violation)
    check: bool = False
    #: fault-injection config; the injector is built inside the worker
    faults: FaultConfig | None = None


def _run_case(case: SweepCase) -> RunResult:
    result = run_colocation(case.policy, list(case.jobs), case.config,
                            check=case.check, faults=case.faults)
    # Drivers are live simulation objects: not picklable and not part
    # of the sweep contract.  The serial path drops them too, so both
    # paths return identical results.
    result.drivers = {}
    return result


def pool_map(fn: Callable, items: Iterable, *, jobs: int = 1) -> list:
    """``[fn(item) for item in items]``, over up to ``jobs`` processes.

    Each item must be an independent simulation, so the results are
    bit-identical whichever process runs which item; they come back in
    item order.  Workers start with the parent's transform-memo warm
    snapshot.  ``jobs=1`` (or a single item) runs in-process and never
    loads the process machinery.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(items), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_init_worker,
                             initargs=(warm_snapshot(),)) as pool:
        # map() preserves input order regardless of completion order.
        return list(pool.map(fn, items))


def run_sweep(cases: Iterable[SweepCase], *, jobs: int = 1) -> list[RunResult]:
    """Run every case and return results in case order.

    ``jobs`` bounds the number of worker processes; ``jobs=1`` runs
    everything in-process.  Results are bit-identical either way.
    """
    return pool_map(_run_case, cases, jobs=jobs)


def seed_sweep(policy: str, jobs: Sequence[JobSpec], config: RunConfig,
               seeds: Sequence[int], *, check: bool = False,
               faults: FaultConfig | None = None) -> list[SweepCase]:
    """Replicate one experiment across traffic/trace/fault seeds.

    Case ``k`` re-seeds every randomness source from ``seeds[k]``: the
    per-job traffic seeds (offset by job index so co-located services
    stay decorrelated), the kernel-trace seed, and — when fault
    injection is on — the injector seed.
    """
    cases: list[SweepCase] = []
    for seed in seeds:
        seeded_jobs = tuple(
            replace(job, traffic_seed=seed * 1000 + index)
            for index, job in enumerate(jobs)
        )
        seeded_config = replace(config, trace_seed=seed)
        seeded_faults = (None if faults is None
                         else replace(faults, seed=faults.seed + seed))
        cases.append(SweepCase(
            policy=policy, jobs=seeded_jobs, config=seeded_config,
            label=f"seed {seed}", check=check, faults=seeded_faults,
        ))
    return cases
