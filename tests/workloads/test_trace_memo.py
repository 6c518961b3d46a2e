"""Memoized traces: ``WorkloadModel.build_trace`` builds each
(model, spec, seed) once.

Traces are frozen, so every caller of the same inputs can share one
object: the standalone baselines, the co-location run and every device
of a cluster.  The store is the transform JIT's LRU-bounded
``TransformMemo``, keyed on the three inputs by value.
"""

from dataclasses import replace

import pytest

from repro.cluster import ClusterJob, run_controlplane
from repro.gpu import A100_SXM4_40GB, V100_SXM2_16GB
from repro.harness import JobSpec, RunConfig, clear_standalone_cache, standalone
from repro.transform import TransformMemo
from repro.workloads import models
from repro.workloads.models import WorkloadModel, get_model

SPEC = A100_SXM4_40GB


@pytest.fixture
def memo(monkeypatch):
    """A fresh, private trace store for the test."""
    store = TransformMemo(models.TRACE_MEMO_CAPACITY)
    monkeypatch.setattr(models, "_TRACES", store)
    return store


def test_the_process_wide_store_is_bounded():
    assert models._TRACES.capacity == models.TRACE_MEMO_CAPACITY


def test_same_inputs_return_the_same_trace(memo):
    model = get_model("bert_infer")
    first = model.build_trace(SPEC, seed=3)
    assert model.build_trace(SPEC, seed=3) is first
    # equal by value is enough: a rebuilt model is the same key
    assert replace(model).build_trace(SPEC, seed=3) is first
    assert (memo.hits, memo.misses) == (2, 1)


def test_a_different_seed_spec_or_model_misses(memo):
    model = get_model("bert_infer")
    base = model.build_trace(SPEC, seed=0)
    others = [model.build_trace(SPEC, seed=1),
              model.build_trace(V100_SXM2_16GB, seed=0),
              get_model("resnet50_infer").build_trace(SPEC, seed=0),
              replace(model, num_kernels=12).build_trace(SPEC, seed=0)]
    assert memo.misses == 5 and memo.hits == 0
    assert all(other != base for other in others)


def test_evictions_are_bounded_and_counted(monkeypatch):
    store = TransformMemo(2)
    monkeypatch.setattr(models, "_TRACES", store)
    model = get_model("resnet50_infer")
    traces = [model.build_trace(SPEC, seed=seed) for seed in range(5)]
    assert len(store) == 2 and store.evictions == 3
    # the oldest were evicted: rebuilding one misses, yet equals it
    assert model.build_trace(SPEC, seed=0) == traces[0]
    assert store.misses == 6 and store.evictions == 4
    assert model.build_trace(SPEC, seed=4) is traces[4]


def test_a_cluster_run_builds_each_distinct_trace_once(memo, monkeypatch):
    """Baselines first, then a cluster with repeated models and a
    device failure, as the cluster benchmark runs them: every distinct
    trace is built once however many jobs and devices use it."""
    built: dict = {}
    calls = []
    build, raw = WorkloadModel.build_trace, WorkloadModel._build_trace

    def counted_build(self, spec, seed=0):
        calls.append((self.name, seed))
        return build(self, spec, seed)

    def counted_raw(self, spec, seed):
        key = (self.name, spec.name, seed)
        built[key] = built.get(key, 0) + 1
        return raw(self, spec, seed)

    monkeypatch.setattr(WorkloadModel, "build_trace", counted_build)
    monkeypatch.setattr(WorkloadModel, "_build_trace", counted_raw)
    config = RunConfig(duration=1.0, warmup=0.2)
    services = [("resnet50_infer", 0.10), ("bert_infer", 0.12),
                ("resnet50_infer", 0.08)]
    jobs = [ClusterJob(model, load=load, traffic_seed=i)
            for i, (model, load) in enumerate(services)]
    jobs.append(ClusterJob("pointnet_train", traffic_seed=3))
    clear_standalone_cache()
    try:
        for i, (model, load) in enumerate(services):
            standalone(JobSpec.inference(model, load=load, traffic_seed=i),
                       config)
        standalone(JobSpec.training("pointnet_train", traffic_seed=3),
                   config)
        run_controlplane(jobs=jobs, devices=3, config=config,
                         arrival_rate=8.0, fail_device=((0, 0.5),))
    finally:
        clear_standalone_cache()
    assert built and set(built.values()) == {1}
    assert len(calls) > len(built)
