"""Tests for the co-location experiment runner."""

import pytest

from repro.baselines import Priority
from repro.errors import HarnessError
from repro.harness import (
    JobSpec,
    POLICY_NAMES,
    RunConfig,
    clear_standalone_cache,
    make_policy,
    run_colocation,
    standalone,
)
from repro.gpu import A100_SXM4_40GB, EventLoop, GPUDevice

CFG = RunConfig(duration=3.0, warmup=0.5)


class TestMakePolicy:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_all_names_resolve(self, name):
        engine = EventLoop()
        device = GPUDevice(A100_SXM4_40GB, engine)
        policy = make_policy(name, device, engine)
        assert policy.name == name or name == "Ideal"

    def test_unknown_policy(self):
        engine = EventLoop()
        device = GPUDevice(A100_SXM4_40GB, engine)
        with pytest.raises(HarnessError):
            make_policy("Orion", device, engine)


class TestRunConfig:
    @pytest.mark.parametrize("duration, warmup", [
        (1.0, -1.0),                  # would widen the rate window
        (1.0, float("nan")),
        (float("nan"), 0.5),          # used to fail late, in the engine
        (float("inf"), 0.5),          # a trainer would never finish
        (float("-inf"), -float("inf")),
        (1.0, 1.0),
        (0.5, 1.0),
    ])
    def test_rejects_invalid_windows(self, duration, warmup):
        with pytest.raises(HarnessError, match="0 <= warmup < duration"):
            RunConfig(duration=duration, warmup=warmup)

    def test_accepts_a_window_from_zero(self):
        assert RunConfig(duration=1.0, warmup=0.0).window == (0.0, 1.0)


class TestJobSpec:
    def test_role_default_priorities(self):
        assert JobSpec.inference("bert_infer").effective_priority \
            is Priority.HIGH
        assert JobSpec.training("bert_train").effective_priority \
            is Priority.BEST_EFFORT

    def test_priority_override(self):
        spec = JobSpec.inference("bert_infer",
                                 priority=Priority.BEST_EFFORT)
        assert spec.effective_priority is Priority.BEST_EFFORT

    def test_role_mismatch_rejected(self):
        with pytest.raises(HarnessError, match="training workload"):
            run_colocation("MPS", [JobSpec.inference("bert_train")], CFG)


class TestRunColocation:
    def test_empty_jobs_rejected(self):
        with pytest.raises(HarnessError):
            run_colocation("MPS", [], CFG)

    def test_single_inference_run(self):
        result = run_colocation(
            "Ideal", [JobSpec.inference("resnet50_infer", load=0.3)], CFG)
        job = result.job("resnet50_infer#0")
        assert job.latency is not None
        assert job.completed > 50
        assert job.rate > 0

    def test_pair_run_produces_both_results(self):
        result = run_colocation(
            "Tally",
            [JobSpec.inference("resnet50_infer", load=0.3),
             JobSpec.training("pointnet_train")],
            CFG)
        assert len(result.inference_results()) == 1
        assert len(result.training_results()) == 1
        assert result.utilization > 0

    def test_utilization_is_a_python_float(self):
        # NumPy scalars in a trace would reach every time derived from
        # a trainer's host gaps, and the reported utilization
        result = run_colocation(
            "TGS",
            [JobSpec.inference("bert_infer", load=0.5),
             JobSpec.training("whisper_train")],
            RunConfig(duration=0.5, warmup=0.1))
        assert type(result.utilization) is float

    def test_duplicate_models_get_distinct_ids(self):
        result = run_colocation(
            "Tally",
            [JobSpec.inference("resnet50_infer", load=0.1),
             JobSpec.inference("resnet50_infer", load=0.1,
                               priority=Priority.BEST_EFFORT,
                               traffic_seed=1)],
            CFG)
        assert set(result.jobs) == {"resnet50_infer#0", "resnet50_infer#1"}

    def test_unknown_job_lookup(self):
        result = run_colocation(
            "Ideal", [JobSpec.inference("resnet50_infer", load=0.2)], CFG)
        with pytest.raises(HarnessError):
            result.job("nope")

    def test_warmup_must_precede_duration(self):
        with pytest.raises(HarnessError):
            RunConfig(duration=1.0, warmup=2.0)

    @pytest.mark.slow
    def test_deterministic_given_seeds(self):
        jobs = [JobSpec.inference("resnet50_infer", load=0.3),
                JobSpec.training("pointnet_train")]
        a = run_colocation("Tally", jobs, CFG)
        b = run_colocation("Tally", jobs, CFG)
        ja, jb = a.job("resnet50_infer#0"), b.job("resnet50_infer#0")
        assert ja.completed == jb.completed
        assert ja.latency.p99 == jb.latency.p99


class TestStandalone:
    def test_cached_by_configuration(self):
        clear_standalone_cache()
        job = JobSpec.inference("resnet50_infer", load=0.2)
        first = standalone(job, CFG)
        second = standalone(job, CFG)
        assert first is second
        clear_standalone_cache()
        third = standalone(job, CFG)
        assert third is not first
        assert third.completed == first.completed

    def test_different_loads_not_conflated(self):
        clear_standalone_cache()
        low = standalone(JobSpec.inference("resnet50_infer", load=0.1), CFG)
        high = standalone(JobSpec.inference("resnet50_infer", load=0.4), CFG)
        assert high.completed > low.completed

    def test_training_standalone(self):
        result = standalone(JobSpec.training("pointnet_train"), CFG)
        assert result.latency is None
        assert result.rate > 10
