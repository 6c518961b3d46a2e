"""LLM serving workload: determinism, conservation, KV pressure."""

import numpy as np
import pytest

from repro.baselines import Ideal, Priority
from repro.errors import WorkloadError
from repro.gpu import A100_SXM4_40GB, EventLoop, GPUDevice
from repro.runtime.memory import MemoryManager
from repro.traffic import TrafficTrace, maf_trace, poisson_trace
from repro.workloads import (
    KVCache,
    LLM_MODELS,
    LLMServingJob,
    LLMServingModel,
    TokenLengths,
    get_llm_model,
)


def _tiny_model(**overrides) -> LLMServingModel:
    """A small serving model for fast, controllable tests."""
    params = dict(
        name="tiny_serve",
        params=1e9,
        prompt_tokens=TokenLengths(mean=32, sigma=0.5, minimum=8,
                                   maximum=64),
        output_tokens=TokenLengths(mean=16, sigma=0.5, minimum=4,
                                   maximum=32),
        prefill_token_time=10e-6,
        decode_step_time=0.5e-3,
        decode_seq_time=30e-6,
        host_gap=50e-6,
        kv_bytes_per_token=1024,
        kv_capacity_bytes=1024 * (64 + 32) * 4,  # four max-size requests
        max_batch=4,
        prefill_chunk=32,
        kv_block_tokens=8,
    )
    params.update(overrides)
    return LLMServingModel(**params)


def _run(model, traffic, duration, *, seed=0, policy_cls=Ideal):
    engine = EventLoop()
    device = GPUDevice(A100_SXM4_40GB, engine)
    policy = policy_cls(device, engine)
    job = LLMServingJob(model, traffic, policy, "llm#0", seed=seed)
    job.start()
    engine.run_until(duration)
    return job


# ---------------------------------------------------------------------------
# Model and distribution basics
# ---------------------------------------------------------------------------

def test_token_lengths_bounded():
    dist = TokenLengths(mean=100, sigma=1.0, minimum=10, maximum=200)
    rng = np.random.default_rng(0)
    samples = dist.sample(2000, rng)
    assert samples.min() >= 10
    assert samples.max() <= 200
    assert samples.dtype.kind == "i"


def test_token_lengths_validation():
    with pytest.raises(WorkloadError):
        TokenLengths(mean=0, sigma=0.5, minimum=1, maximum=10)
    with pytest.raises(WorkloadError):
        TokenLengths(mean=5, sigma=0.5, minimum=10, maximum=5)


def test_registry_lookup():
    for name in LLM_MODELS:
        assert get_llm_model(name).name == name
    with pytest.raises(WorkloadError, match="unknown LLM serving model"):
        get_llm_model("nope_serve")


def test_kernel_names_stable_per_bucket():
    """Same bucket => identical kernel (Tally's profiler cache relies
    on names implying timing)."""
    model = get_llm_model("llama7b_serve")
    spec = A100_SXM4_40GB
    a = model.decode_kernel(3, spec)
    b = model.decode_kernel(4, spec)  # both bucket to 4
    assert a.name == b.name
    assert a.block_duration == b.block_duration
    assert model.decode_kernel(5, spec).name != a.name
    p1 = model.prefill_kernel(100, spec)
    p2 = model.prefill_kernel(128, spec)
    assert p1.name == p2.name


def test_model_validation_rejects_undersized_kv_pool():
    with pytest.raises(WorkloadError, match="KV pool"):
        _tiny_model(kv_capacity_bytes=1024 * 10)


# ---------------------------------------------------------------------------
# KV cache accounting
# ---------------------------------------------------------------------------

def test_kv_cache_paged_accounting():
    model = _tiny_model()
    kv = KVCache(model)
    kv.admit(0, 9)  # 9 tokens -> two 8-token blocks
    assert kv.used_tokens == 16
    assert kv.grow(0, 16)  # fits the reserved blocks
    assert kv.used_tokens == 16
    assert kv.grow(0, 17)  # one more block
    assert kv.used_tokens == 24
    kv.release(0)
    assert kv.used_tokens == 0
    assert kv.block_allocs == kv.block_frees == 3


def test_kv_cache_rejects_double_admit_and_unknown_grow():
    kv = KVCache(_tiny_model())
    kv.admit(0, 8)
    with pytest.raises(WorkloadError):
        kv.admit(0, 8)
    with pytest.raises(WorkloadError):
        kv.grow(7, 10)


def test_kv_cache_exhaustion_reported():
    model = _tiny_model()
    kv = KVCache(model)
    cap = kv.capacity_tokens
    kv.admit(0, cap)  # fill the pool exactly
    assert not kv.grow(0, cap + 1)
    assert not kv.can_hold(1)


# ---------------------------------------------------------------------------
# Driver: determinism
# ---------------------------------------------------------------------------

def test_same_seed_bit_identical_token_timeline():
    model = _tiny_model()
    traffic = maf_trace(0.5, model.mean_request_time(), 6.0, seed=2)
    a = _run(model, traffic, 6.0, seed=5)
    b = _run(model, traffic, 6.0, seed=5)
    assert a.token_timeline() == b.token_timeline()
    assert a.token_timeline()  # nonempty


def test_different_seed_differs():
    model = _tiny_model()
    traffic = maf_trace(0.5, model.mean_request_time(), 6.0, seed=2)
    a = _run(model, traffic, 6.0, seed=5)
    b = _run(model, traffic, 6.0, seed=6)
    assert a.token_timeline() != b.token_timeline()


# ---------------------------------------------------------------------------
# Driver: conservation
# ---------------------------------------------------------------------------

def test_every_request_completes_or_is_evicted_exactly_once():
    model = _tiny_model()
    traffic = poisson_trace(8.0, 8.0, seed=3)
    job = _run(model, traffic, 12.0)  # run past the horizon: drain
    assert job.pending_requests == 0
    assert len(job.requests) == traffic.count
    for r in job.requests:
        assert r.finished is not None
        assert r.completed != r.evicted  # exactly one outcome
    assert job.completed_requests + job.evictions == traffic.count


def test_kv_bytes_allocated_equal_freed_at_drain():
    model = _tiny_model()
    traffic = poisson_trace(8.0, 8.0, seed=3)
    job = _run(model, traffic, 12.0)
    assert job.kv.block_allocs > 0
    assert job.kv.block_allocs == job.kv.block_frees
    assert job.kv.used_tokens == 0


def test_token_counts_match_request_outputs():
    model = _tiny_model()
    traffic = poisson_trace(6.0, 6.0, seed=1)
    job = _run(model, traffic, 10.0)
    for r in job.requests:
        if r.completed:
            assert r.generated == r.output_tokens
            assert r.token_times[0] == r.first_token
            assert all(b >= a for a, b in zip(r.token_times,
                                              r.token_times[1:]))


# ---------------------------------------------------------------------------
# Driver: KV pressure and eviction
# ---------------------------------------------------------------------------

def test_eviction_under_kv_pressure():
    # Pool holds barely more than one max request: concurrent decodes
    # must shed someone.
    model = _tiny_model(
        kv_capacity_bytes=1024 * 112,  # ~1.2x one max-size request
        max_batch=4,
    )
    traffic = poisson_trace(30.0, 4.0, seed=0)
    job = _run(model, traffic, 8.0)
    assert job.evictions > 0
    evicted = [r for r in job.requests if r.evicted]
    assert len(evicted) == job.evictions
    # Evicted requests are terminal and their KV is freed.
    assert job.kv.block_allocs == job.kv.block_frees
    assert job.kv.used_tokens == 0
    # Non-evicted admitted requests still completed.
    assert job.completed_requests > 0


def test_eviction_prefers_youngest():
    model = _tiny_model(kv_capacity_bytes=1024 * 112, max_batch=4)
    traffic = poisson_trace(30.0, 4.0, seed=0)
    job = _run(model, traffic, 8.0)
    evicted = [r for r in job.requests if r.evicted]
    assert evicted
    for victim in evicted:
        # At the victim's eviction instant, no *younger* admitted
        # request survived to completion having been admitted earlier.
        survivors = [r for r in job.requests
                     if r.completed and r.admitted is not None
                     and r.admitted <= victim.admitted
                     and r.finished > victim.finished]
        # Survivors may exist (they are older); the heuristic only
        # guarantees the victim was the youngest *running* at the time.
        for s in survivors:
            assert s.admitted <= victim.admitted


# ---------------------------------------------------------------------------
# Driver: crash semantics
# ---------------------------------------------------------------------------

def test_crash_sheds_state_and_frees_kv():
    model = _tiny_model()
    traffic = poisson_trace(8.0, 8.0, seed=3)
    engine = EventLoop()
    device = GPUDevice(A100_SXM4_40GB, engine)
    policy = Ideal(device, engine)
    job = LLMServingJob(model, traffic, policy, "llm#0",
                        priority=Priority.HIGH, seed=0)
    job.start()
    engine.schedule_at(2.0, lambda: (job.crash(),
                                     policy.disconnect("llm#0")))
    engine.run_until(8.0)
    assert job.crashed
    assert job.pending_requests == 0
    assert job.kv.block_allocs == job.kv.block_frees
    assert job.kv.used_tokens == 0
    # Completions before the crash are retained.
    assert all(r.finished is None or r.finished <= 2.0
               for r in job.requests if r.completed)


# ---------------------------------------------------------------------------
# Serving summary accessors
# ---------------------------------------------------------------------------

def test_serving_summary_windows():
    model = _tiny_model()
    traffic = poisson_trace(8.0, 8.0, seed=3)
    job = _run(model, traffic, 10.0)
    s = job.serving_summary(since=1.0, until=8.0)
    assert s.completed > 0
    assert s.ttft is not None and s.inter_token is not None
    assert s.span == pytest.approx(7.0)
    with pytest.raises(WorkloadError):
        job.serving_summary(since=20.0, until=30.0)


def test_queueing_summary_reports_admission_delay():
    model = _tiny_model(max_batch=1)  # force queueing
    traffic = poisson_trace(12.0, 6.0, seed=4)
    job = _run(model, traffic, 9.0)
    q = job.queueing_summary()
    assert q is not None
    assert q.p99 > 0


def test_double_start_rejected():
    model = _tiny_model()
    traffic = poisson_trace(4.0, 2.0, seed=0)
    engine = EventLoop()
    device = GPUDevice(A100_SXM4_40GB, engine)
    policy = Ideal(device, engine)
    job = LLMServingJob(model, traffic, policy, "llm#0")
    job.start()
    with pytest.raises(WorkloadError):
        job.start()


def test_traffic_trace_type_accepted():
    model = _tiny_model()
    arrivals = np.array([0.1, 0.2, 0.3])
    traffic = TrafficTrace(arrivals, 1.0)
    job = _run(model, traffic, 3.0)
    assert len(job.requests) == 3
