"""End-to-end LLM serving colocation through the harness."""

import pytest

from repro.baselines import Priority
from repro.faults import FaultConfig
from repro.harness import (
    JobSpec,
    RunConfig,
    clear_standalone_cache,
    run_colocation,
    standalone,
)
from repro.harness.experiments import llm_colocation
from repro.harness.serialize import dict_to_result, result_to_dict
from repro.metrics import ServingSLO
from repro.workloads.llm import LLMServingJob

LLM = "llama7b_serve"
TRAIN = "resnet50_train"


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_standalone_cache()
    yield
    clear_standalone_cache()


def _config(**overrides):
    params = dict(duration=6.0, warmup=1.0)
    params.update(overrides)
    return RunConfig(**params)


def _jobs():
    return [JobSpec.llm(LLM, load=0.5), JobSpec.training(TRAIN)]


class TestColocationRun:
    def test_llm_role_produces_serving_metrics(self):
        result = run_colocation("Tally", _jobs(), _config())
        job = result.job(f"{LLM}#0")
        assert job.role == "llm"
        assert job.serving is not None
        assert job.serving.ttft is not None
        assert job.serving.inter_token is not None
        assert job.serving.completed > 0
        assert job.queueing is not None
        assert job.latency is None  # serving metrics replace request p99

    def test_tally_keeps_isolation_envelope_with_be_throughput(self):
        """The acceptance criterion: HP inter-token p99 within a small
        factor of isolated while best-effort training makes progress."""
        cfg = _config()
        base = standalone(JobSpec.llm(LLM, load=0.5), cfg)
        assert base.serving is not None
        result = run_colocation("Tally", _jobs(), cfg)
        llm = result.job(f"{LLM}#0")
        train = result.job(f"{TRAIN}#0")
        assert llm.serving is not None
        itl_ratio = (llm.serving.inter_token.p99
                     / base.serving.inter_token.p99)
        ttft_ratio = llm.serving.ttft.p99 / base.serving.ttft.p99
        assert itl_ratio < 1.5
        assert ttft_ratio < 1.5
        assert train.rate > 0

    @pytest.mark.slow
    def test_non_isolating_policy_degrades_the_tail(self):
        cfg = _config()
        base = standalone(JobSpec.llm(LLM, load=0.5), cfg)
        result = run_colocation("MPS", _jobs(), cfg)
        llm = result.job(f"{LLM}#0")
        mps_ratio = (llm.serving.inter_token.p99
                     / base.serving.inter_token.p99)
        assert mps_ratio > 1.5  # indiscriminate sharing hurts decode

    @pytest.mark.slow
    def test_invariant_checker_clean(self):
        result = run_colocation("Tally", _jobs(), _config(), check=True)
        assert result.invariant_checks > 0

    @pytest.mark.slow
    def test_bit_identical_across_repeats(self):
        cfg = _config()
        a = run_colocation("Tally", _jobs(), cfg)
        b = run_colocation("Tally", _jobs(), cfg)
        da = a.drivers[f"{LLM}#0"]
        db = b.drivers[f"{LLM}#0"]
        assert isinstance(da, LLMServingJob)
        assert da.token_timeline() == db.token_timeline()
        assert da.token_timeline()

    def test_slo_goodput_accounting(self):
        cfg = _config()
        base = standalone(JobSpec.llm(LLM, load=0.5), cfg)
        slo = ServingSLO.scaled_to_ideal(base.serving.ttft.p99,
                                         base.serving.inter_token.p99,
                                         slack=2.0)
        result = run_colocation("Tally", _jobs(), _config(slo=slo))
        llm = result.job(f"{LLM}#0")
        assert llm.serving.good > 0
        assert llm.serving.good <= llm.serving.completed
        assert llm.serving.goodput <= llm.serving.requests_per_s

    @pytest.mark.slow
    def test_trainer_crash_leaves_server_standing(self):
        jobs = [JobSpec.llm(LLM, load=0.5),
                JobSpec.training(TRAIN, crash_at=3.0)]
        result = run_colocation(
            "Tally", jobs, _config(),
            faults=FaultConfig(seed=1),
        )
        assert result.fault_counts.get("client_crash") == 1
        llm = result.job(f"{LLM}#0")
        assert llm.serving.completed > 0

    def test_standalone_caches_llm_baseline(self):
        cfg = _config()
        a = standalone(JobSpec.llm(LLM, load=0.5), cfg)
        b = standalone(JobSpec.llm(LLM, load=0.5), cfg)
        assert a is b

    def test_best_effort_llm_priority_override(self):
        spec = JobSpec.llm(LLM, load=0.3, priority=Priority.BEST_EFFORT)
        assert spec.effective_priority is Priority.BEST_EFFORT
        assert JobSpec.llm(LLM).effective_priority is Priority.HIGH


class TestSerialization:
    @pytest.mark.slow
    def test_roundtrip_preserves_serving_metrics(self):
        result = run_colocation("Tally", _jobs(), _config())
        restored = dict_to_result(result_to_dict(result))
        a = result.job(f"{LLM}#0")
        b = restored.job(f"{LLM}#0")
        assert b.serving is not None
        assert b.serving.ttft.p99 == a.serving.ttft.p99
        assert b.serving.inter_token.p99 == a.serving.inter_token.p99
        assert b.serving.good == a.serving.good
        assert b.evicted == a.evicted
        assert b.queueing.p99 == a.queueing.p99
        inf = restored.job(f"{TRAIN}#0")
        assert inf.serving is None


class TestInferenceQueueingRegression:
    """Submission-time queueing must be observable, not folded silently
    into end-to-end latency (the PR 2 ``busy_for_client`` blind-spot
    class)."""

    def test_bursty_arrivals_expose_queue_delay(self):
        cfg = _config(traffic_kind="bursty", burst_ratio=30.0,
                      duration=8.0)
        result = run_colocation(
            "Ideal", [JobSpec.inference("bert_infer", load=0.6)], cfg)
        job = result.job("bert_infer#0")
        assert job.queueing is not None
        # Bursts pile requests behind a serial server: the queueing
        # tail must be visible and bounded by total latency.
        assert job.queueing.p99 > 0
        assert job.latency is not None
        assert job.queueing.p99 <= job.latency.p99
        assert job.queueing.mean <= job.latency.mean

    def test_queueing_dominates_under_overload_spike(self):
        from repro.gpu import A100_SXM4_40GB, EventLoop, GPUDevice
        from repro.baselines import Ideal
        from repro.traffic import TrafficTrace
        from repro.workloads import InferenceJob, get_model
        import numpy as np

        engine = EventLoop()
        device = GPUDevice(A100_SXM4_40GB, engine)
        policy = Ideal(device, engine)
        trace = get_model("bert_infer").build_trace(A100_SXM4_40GB)
        # 20 simultaneous arrivals: the tail request queues ~19 service
        # times, dwarfing its own execution.
        arrivals = TrafficTrace(np.zeros(20) + 1e-6, 1.0)
        job = InferenceJob(trace, arrivals, policy, "inf")
        job.start()
        engine.run_until(5.0)
        q = job.queueing_summary()
        lat = job.latency_summary()
        assert q is not None
        assert q.p99 > 10 * trace.duration
        assert q.p99 < lat.p99


class TestExperiment:
    @pytest.mark.slow
    def test_llm_colocation_experiment_shape(self):
        result = llm_colocation("quick", policies=("Ideal", "Tally"))
        assert {c.policy for c in result.cells} == {"Ideal", "Tally"}
        tally = result.for_policy("Tally")
        assert tally.inter_token_ratio < 1.5
        assert tally.training_norm > 0
        assert 0.0 <= tally.slo_attainment <= 1.0
        report = result.report()
        assert "Tally" in report and "ttft p99" in report
