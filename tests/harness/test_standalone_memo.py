"""The standalone-baseline memo keys on every input a solo run reads.

Regression: the key left out ``RunConfig.slo`` and named the GPU only by
``spec.name``, so a baseline computed under one SLO (or on one GPU) was
served for another.
"""

from dataclasses import replace

import pytest

from repro.harness import JobSpec, RunConfig, clear_standalone_cache, standalone
from repro.metrics.serving import ServingSLO

CFG = RunConfig(duration=1.0, warmup=0.25)


@pytest.fixture(autouse=True)
def cold_cache():
    clear_standalone_cache()
    yield
    clear_standalone_cache()


def _goodput(result):
    return result.serving.goodput


def test_slo_is_part_of_the_key():
    job = JobSpec.llm("llama7b_serve")
    tight = replace(CFG, slo=ServingSLO(1e-6, 1e-6))
    loose = standalone(job, CFG)
    cached_tight = standalone(job, tight)
    clear_standalone_cache()
    fresh_tight = standalone(job, tight)
    assert _goodput(loose) > 0
    assert _goodput(fresh_tight) == 0.0
    assert cached_tight == fresh_tight


def test_gpu_spec_is_part_of_the_key():
    job = JobSpec.inference("bert_infer", load=0.5)
    # same name, ten times the launch overhead: a different device
    slow = replace(CFG, spec=replace(CFG.spec, kernel_launch_overhead=5e-5))
    fast = standalone(job, CFG)
    cached_slow = standalone(job, slow)
    clear_standalone_cache()
    fresh_slow = standalone(job, slow)
    assert fresh_slow.latency.mean > fast.latency.mean
    assert cached_slow == fresh_slow
    assert standalone(job, slow) is fresh_slow
