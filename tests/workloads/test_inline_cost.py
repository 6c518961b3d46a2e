"""Deterministic counters of the inline path's cost.

Most best-effort and baseline kernels settle inline (run-ahead), so
their cost is the Python work per kernel.  Two caches keep it small,
and these counters, unlike wall time, do not move with host noise:

* ``GPUDevice._solo_plan`` / ``_ptb_plan`` compute each launch shape's
  plan once per device and speed factor, and ``_trace_plan`` builds
  each trace's plan list once per device, free pool and speed factor;
* ``TransparentProfiler._fastest`` ranks a kernel's candidates again
  only after a ``record`` that moved the ranking — the winner, the
  runner-up or the bound they qualify under.
"""

from collections import Counter

from repro.core.profiler import TransparentProfiler
from repro.gpu import GPUDevice
from repro.harness import JobSpec, RunConfig, run_colocation

#: a service with idle gaps and a trainer whose kernels fill them
JOBS = [JobSpec.inference("bert_infer", load=0.3),
        JobSpec.training("pointnet_train")]
CONFIG = RunConfig(duration=1.0, warmup=0.2)


def test_each_solo_plan_is_computed_once_per_device(monkeypatch):
    computed: Counter = Counter()
    runs = Counter()
    plans = {"_solo_plan": GPUDevice._solo_plan,
             "_ptb_plan": GPUDevice._ptb_plan}
    run_ptb = GPUDevice.run_solo_ptb

    def counted(name):
        def plan(self, key):
            computed[(self, name, key, self.speed_factor)] += 1
            return plans[name](self, key)
        return plan

    def ptb(self, *args):
        runs["ptb"] += 1
        return run_ptb(self, *args)

    for name in plans:
        monkeypatch.setattr(GPUDevice, name, counted(name))
    monkeypatch.setattr(GPUDevice, "run_solo_ptb", ptb)
    run_colocation("Tally", JOBS, CONFIG)
    assert computed and set(computed.values()) == {1}
    assert runs["ptb"] > 0


def test_each_trace_plan_is_built_once_per_device_pool_and_speed(
        monkeypatch):
    """Solo kernels settle in :meth:`GPUDevice.run_trace`'s walk, whose
    plan list is built once per (device, trace, free pool, speed
    factor) and then serves far more kernels than lists were built."""
    built: Counter = Counter()
    walked = Counter()
    trace_plan, run_trace = GPUDevice._trace_plan, GPUDevice.run_trace

    def counted_plan(self, trace):
        built[(self, trace, self.threads_free, self.slots_free,
               self.speed_factor)] += 1
        return trace_plan(self, trace)

    def counted_walk(self, *args):
        result = run_trace(self, *args)
        if args[-1] is None:  # no per-kernel runner: the plan walk
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
    ranked: Counter = Counter()
    moves: Counter = Counter()
    counts = Counter()
    fastest, record = TransparentProfiler._fastest, TransparentProfiler.record
    pick = TransparentProfiler.pick

    def counted_fastest(profile, strict):
        ranked[profile] += 1
        return fastest(profile, strict)

    def counted_record(self, descriptor, config, turnaround, duration):
        counts["records"] += 1
        profile = self._profiles.get(descriptor)
        strict = self.config.turnaround_latency_bound
        before = None if profile is None else _ranking(profile, strict)
        record(self, descriptor, config, turnaround, duration)
        profile = self._profiles[descriptor]
        moves[profile] += before is not None and before != _ranking(
            profile, strict)

    def counted_pick(self, descriptor):
        counts["picks"] += 1
        return pick(self, descriptor)

    monkeypatch.setattr(TransparentProfiler, "_fastest",
                        staticmethod(counted_fastest))
    monkeypatch.setattr(TransparentProfiler, "record", counted_record)
    monkeypatch.setattr(TransparentProfiler, "pick", counted_pick)
    run_colocation("Tally", JOBS, CONFIG)
    assert counts["records"] > 100, counts
    for profile, calls in ranked.items():
        assert calls <= 1 + moves[profile], (calls, moves[profile])
    assert sum(ranked.values()) * 4 < counts["picks"], (ranked, counts)
