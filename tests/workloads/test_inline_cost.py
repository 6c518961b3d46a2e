"""Deterministic counters of the inline path's cost.

Most best-effort and baseline kernels settle inline (run-ahead), so
their cost is the Python work per kernel.  Three caches keep it small,
and these counters, unlike wall time, do not move with host noise:

* ``GPUDevice._solo_plan`` / ``_ptb_plan`` compute each launch shape's
  plan once per device and speed factor, and ``_trace_plan`` builds
  each trace's plan list once per device, free pool and speed factor
  (a best-effort trace's list plans no launch: it only marks gaps);
* ``TransparentProfiler._fastest`` ranks a kernel's candidates again
  only after a ``record`` that moved the ranking — the winner, the
  runner-up or the bound they qualify under;
* a best-effort kernel settles under its descriptor's standing
  decision (``Tally._decide``), which the trace walk reads and folds
  into without a pick, a scheduler execution or a record.
"""

import importlib.util
import pathlib
import sys
from collections import Counter

from repro.core import SchedKind, TallyConfig
from repro.core.profiler import TransparentProfiler, _Profile
from repro.core.scheduler import Tally
from repro.gpu import GPUDevice
from repro.harness import JobSpec, RunConfig, run_colocation, standalone

#: a service with idle gaps and a trainer whose kernels fill them
JOBS = [JobSpec.inference("bert_infer", load=0.3),
        JobSpec.training("pointnet_train")]
CONFIG = RunConfig(duration=1.0, warmup=0.2)


def test_each_solo_plan_is_computed_once_per_device(monkeypatch):
    computed: Counter = Counter()
    fitting = Counter()
    ptb_folds = Counter()
    plans = {"_solo_plan": GPUDevice._solo_plan,
             "_ptb_plan": GPUDevice._ptb_plan}
    fold = Tally._fold

    def counted(name):
        def plan(self, key):
            computed[(self, name, key, self.speed_factor)] += 1
            result = plans[name](self, key)
            fitting[name] += result is not None
            return result
        return plan

    def counted_fold(self, measure, longest, active):
        ptb_folds["kernels"] += measure[1].kind is SchedKind.PTB
        return fold(self, measure, longest, active)

    for name in plans:
        monkeypatch.setattr(GPUDevice, name, counted(name))
    monkeypatch.setattr(Tally, "_fold", counted_fold)
    run_colocation("Tally", JOBS, CONFIG)
    assert computed and set(computed.values()) == {1}
    # the trainer's PTB launches are planned, their workers fit, and
    # its PTB kernels settle inline under those plans
    assert fitting["_ptb_plan"] > 0, fitting
    assert ptb_folds["kernels"] > 0, ptb_folds


def test_each_trace_plan_is_built_once_per_device_pool_and_speed(
        monkeypatch):
    """Solo kernels settle in :meth:`GPUDevice.run_trace`'s walk, whose
    plan list is built once per (device, trace, free pool, speed
    factor) and then serves far more kernels than lists were built."""
    built: Counter = Counter()
    walked = Counter()
    trace_plan, run_trace = GPUDevice._trace_plan, GPUDevice.run_trace

    def counted_plan(self, trace, key):
        built[(self, trace, key, self.speed_factor)] += 1
        return trace_plan(self, trace, key)

    def counted_walk(self, *args):
        result = run_trace(self, *args)
        if args[-1] is None:  # no per-kernel decisions: the plan walk
            walked["kernels"] += result[2]
        return result

    monkeypatch.setattr(GPUDevice, "_trace_plan", counted_plan)
    monkeypatch.setattr(GPUDevice, "run_trace", counted_walk)
    run_colocation("Tally", JOBS, CONFIG)
    assert built and set(built.values()) == {1}
    assert walked["kernels"] > 100 * len(built), (walked, len(built))


def _ranking(profile, strict):
    """What a fresh ranking decides: the bound the candidates qualify
    under, and the winner and runner-up positions (None until every
    candidate is measured)."""
    measured = profile.measured
    if profile.unmeasured:
        return None
    bound = strict
    ranked = sorted((m.duration, m.turnaround, i)
                    for i, m in enumerate(measured) if m.turnaround <= bound)
    if not ranked:
        bound = 2.0 * min(m.turnaround for m in measured)
        ranked = sorted((m.duration, m.turnaround, i)
                        for i, m in enumerate(measured)
                        if m.turnaround <= bound)
    return bound, [i for *_, i in ranked[:2]]


def test_candidates_are_ranked_once_per_record_that_moves_them(monkeypatch):
    """Every sample lands in ``_Profile.add`` (a first measurement) or
    ``_Profile.fold`` (a further one, from ``record`` or from the trace
    walk's standing decision); ``_fastest`` ranks a profile at most
    once more than the samples that moved its ranking."""
    ranked: Counter = Counter()
    moves: Counter = Counter()
    counts = Counter()
    fastest = TransparentProfiler._fastest
    strict = TallyConfig().turnaround_latency_bound

    def counted_fastest(profile, strict):
        ranked[profile] += 1
        return fastest(profile, strict)

    def watched(name):
        method = getattr(_Profile, name)

        def sample(profile, *args):
            counts[name] += 1
            before = _ranking(profile, strict)
            method(profile, *args)
            moves[profile] += before is not None and before != _ranking(
                profile, strict)
        return sample

    monkeypatch.setattr(TransparentProfiler, "_fastest",
                        staticmethod(counted_fastest))
    for name in ("add", "fold"):
        monkeypatch.setattr(_Profile, name, watched(name))
    run_colocation("Tally", JOBS, CONFIG)
    assert counts["fold"] > 100, counts
    for profile, calls in ranked.items():
        assert calls <= 1 + moves[profile], (calls, moves[profile])
    assert sum(ranked.values()) * 4 < counts["fold"], (ranked, counts)


#: calls per best-effort inline kernel once verdicts stand, counted as
#: below, before kernels settled under standing decisions: a pick
#: (``_pick`` -> ``pick`` -> ``_select``), a ``_BEExecution``, a
#: ``run_solo``/``run_solo_ptb`` call with its nested walk, then
#: ``_*_ran`` -> ``_record_*`` -> ``record`` and ``_count_pick``
CALLS_PER_BEST_EFFORT_KERNEL_BEFORE = 29.88


def test_a_best_effort_kernel_settles_in_a_quarter_of_the_calls(
        monkeypatch):
    """Python and C calls (``sys.setprofile``'s ``call`` and ``c_call``
    events) per best-effort kernel that a run-ahead stretch settles,
    counting the stretches after the trainer's first iteration, by
    which every descriptor has a verdict, in a second run of the mix
    (the profiler set-up memo is warm).  A kernel now takes one
    profile lookup and one fold (``Tally._fold`` ->
    ``_Profile.fold`` -> ``Measurement.update``, ``revise``): 7.02
    calls, against 29.88 before."""
    counts = Counter()
    run_trace = GPUDevice.run_trace

    def hook(_frame, event, _arg):
        if event in ("call", "c_call"):
            counts["calls"] += 1

    def counted_walk(self, *args):
        completions, decisions = args[4], args[-1]
        if decisions is None or not completions:
            return run_trace(self, *args)
        sys.setprofile(hook)
        try:
            result = run_trace(self, *args)
        finally:
            sys.setprofile(None)
        counts["kernels"] += result[2]
        return result

    run_colocation("Tally", JOBS, CONFIG)
    monkeypatch.setattr(GPUDevice, "run_trace", counted_walk)
    run_colocation("Tally", JOBS, CONFIG)
    assert counts["kernels"] > 1000, counts
    per_kernel = counts["calls"] / counts["kernels"]
    assert per_kernel <= CALLS_PER_BEST_EFFORT_KERNEL_BEFORE / 4, per_kernel


def _benchmark_child():
    path = (pathlib.Path(__file__).resolve().parents[2] / "tallybench"
            / "child.py")
    spec = importlib.util.spec_from_file_location("tallybench_child", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_a_best_effort_trace_plans_no_launch(monkeypatch):
    """cluster_failover's control plane at seed 0 (after its standalone
    baselines): a best-effort stretch walks its trace's gap markers and
    plans only the launches its decisions make, so ``_solo_plan`` runs
    at most as often as before best-effort traces had plan lists (526);
    planning every kernel of those traces took 1,336."""
    from repro.cluster import run_controlplane

    child = _benchmark_child()
    inputs = child.build_inputs("cluster_failover", 0)
    for spec in inputs.baseline_specs:
        standalone(spec, inputs.config)
    calls = Counter()
    solo_plan = GPUDevice._solo_plan

    def counted(self, key):
        calls["_solo_plan"] += 1
        return solo_plan(self, key)

    monkeypatch.setattr(GPUDevice, "_solo_plan", counted)
    run_controlplane(jobs=inputs.jobs, devices=child.CLUSTER_DEVICES,
                     config=inputs.config,
                     arrival_rate=child.CLUSTER_ARRIVALS,
                     fail_device=child.CLUSTER_FAILURE, engine=inputs.engine,
                     workers=inputs.workers)
    assert 0 < calls["_solo_plan"] <= 526, calls
