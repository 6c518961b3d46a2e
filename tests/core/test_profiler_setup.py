"""Profilers share each descriptor's set-up, and only that.

The candidate list and the analytic prewarm estimates of a (descriptor,
GPU, Tally configuration) are built once per process and shared by
every :class:`TransparentProfiler`; measurements, counts and the
standing verdict stay per profiler.
"""

import pytest

from repro.core import TallyConfig
from repro.core import profiler as profiler_module
from repro.core.profiler import TransparentProfiler
from repro.gpu import A100_SXM4_40GB, KernelDescriptor
from repro.harness import JobSpec, RunConfig, run_colocation
from repro.transform.memo import TransformMemo

SPEC = A100_SXM4_40GB
KERNEL = KernelDescriptor("k", num_blocks=4000, threads_per_block=256,
                          block_duration=20e-6)


@pytest.fixture
def builds(monkeypatch):
    """A private set-up store; returns the list of set-ups built."""
    built = []
    build = profiler_module._build_setup

    def counting(*args):
        built.append(args[0])
        return build(*args)

    monkeypatch.setattr(profiler_module, "_SETUPS", TransformMemo())
    monkeypatch.setattr(profiler_module, "_build_setup", counting)
    return built


def test_profilers_share_one_set_up_per_descriptor_and_config(builds):
    config = TallyConfig()
    first = TransparentProfiler(SPEC, config)
    second = TransparentProfiler(SPEC, TallyConfig())  # equal by value
    first.prewarm(KERNEL)
    second.prewarm(KERNEL)
    assert builds == [KERNEL]
    assert (first._profiles[KERNEL].candidates
            is second._profiles[KERNEL].candidates)
    assert isinstance(first._profiles[KERNEL].candidates, tuple)
    other = TransparentProfiler(SPEC, TallyConfig(slice_fractions=(0.5,)))
    assert other.candidates(KERNEL) != first.candidates(KERNEL)
    assert builds == [KERNEL, KERNEL]


def test_measurements_stay_per_profiler(builds):
    first = TransparentProfiler(SPEC, TallyConfig())
    second = TransparentProfiler(SPEC, TallyConfig())
    first.prewarm(KERNEL)
    config = first.candidates(KERNEL)[0]
    seeded = first.lookup(KERNEL, config)
    estimate = (seeded.turnaround, seeded.duration)
    first.record(KERNEL, config, 1.0, 2.0)
    second.prewarm(KERNEL)
    fresh = second.lookup(KERNEL, config)
    assert fresh is not seeded
    assert (fresh.turnaround, fresh.duration, fresh.samples) == (
        *estimate, 1)
    assert seeded.samples == 2


def test_repeated_runs_build_each_set_up_once(builds):
    """A seed sweep's Tally instances profile the same trainer kernels:
    the second run builds no set-up the first did not."""
    jobs = [JobSpec.inference("resnet50_infer", load=0.2),
            JobSpec.training("pointnet_train")]
    config = RunConfig(duration=0.6, warmup=0.1)
    run_colocation("Tally", jobs, config)
    first = list(builds)
    assert first and len(set(first)) == len(first)
    reseeded = [JobSpec.inference("resnet50_infer", load=0.2,
                                  traffic_seed=1),
                JobSpec.training("pointnet_train", traffic_seed=1)]
    run_colocation("Tally", reseeded, config)
    assert builds == first
