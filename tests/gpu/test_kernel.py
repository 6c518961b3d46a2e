"""Unit tests for kernel descriptors and the analytic timing model."""

import pickle
from dataclasses import fields, replace

import pytest

from repro.errors import GPUSimError
from repro.gpu import A100_SXM4_40GB, KernelDescriptor, LaunchConfig, LaunchKind
from repro.gpu.kernel import PTB_ITERATION_OVERHEAD

SPEC = A100_SXM4_40GB


def desc(**kw):
    defaults = dict(name="k", num_blocks=1000, threads_per_block=256,
                    block_duration=50e-6)
    defaults.update(kw)
    return KernelDescriptor(**defaults)


class TestDescriptorValidation:
    def test_rejects_zero_blocks(self):
        with pytest.raises(GPUSimError):
            desc(num_blocks=0)

    def test_rejects_zero_duration(self):
        with pytest.raises(GPUSimError):
            desc(block_duration=0.0)

    def test_rejects_negative_overhead(self):
        with pytest.raises(GPUSimError):
            desc(ptb_overhead_fraction=-0.1)


class TestDescriptorHash:
    """The hash is computed once; it must still behave as the
    generated field hash did."""

    def make(self, **changes):
        fields = dict(name="k", num_blocks=300, threads_per_block=256,
                      block_duration=2e-5, shared_mem_per_block=1024,
                      ptb_overhead_fraction=0.04)
        fields.update(changes)
        return KernelDescriptor(**fields)

    def test_equal_descriptors_hash_and_look_up_alike(self):
        a, b = self.make(), self.make()
        assert a is not b and a == b and hash(a) == hash(b)
        table = {a: "profile"}
        assert table[b] == "profile"

    def test_replaced_descriptor_gets_its_own_entry(self):
        a = self.make()
        table = {a: "a"}
        for changed in (replace(a, num_blocks=301), replace(a, name="k2"),
                        replace(a, block_duration=3e-5),
                        replace(a, shared_mem_per_block=0)):
            assert changed != a and changed not in table
            table[changed] = "changed"
        assert table[a] == "a" and len(table) == 5
        same = replace(a)
        assert same == a and hash(same) == hash(a) and table[same] == "a"

    def test_repr_and_fields_unchanged(self):
        a = self.make()
        assert [f.name for f in fields(a)] == [
            "name", "num_blocks", "threads_per_block", "block_duration",
            "shared_mem_per_block", "ptb_overhead_fraction"]
        assert "_hash" not in repr(a)

    def test_pickle_rebuilds_the_hash(self):
        # a string hashes differently in another process, so the cached
        # hash must not travel with the pickle
        a = self.make()
        data = pickle.dumps(a)
        assert b"_hash" not in data
        b = pickle.loads(data)
        assert b == a and hash(b) == hash(a) and {a: 1}[b] == 1


class TestTimingModel:
    def test_duration_is_waves_times_block_time(self):
        k = desc()
        capacity = k.capacity(SPEC)
        assert capacity == 864
        assert k.waves(SPEC) == 2
        assert k.duration(SPEC) == pytest.approx(2 * 50e-6)

    def test_single_wave_kernel(self):
        k = desc(num_blocks=100)
        assert k.waves(SPEC) == 1
        assert k.duration(SPEC) == pytest.approx(50e-6)

    def test_slice_duration(self):
        k = desc()
        assert k.slice_duration(SPEC, 100) == pytest.approx(50e-6)
        assert k.slice_duration(SPEC, 900) == pytest.approx(100e-6)

    def test_num_slices(self):
        assert desc().num_slices(100) == 10
        assert desc().num_slices(999) == 2
        assert desc().num_slices(5000) == 1

    def test_sliced_duration_includes_launch_overheads(self):
        k = desc()
        n = k.num_slices(100)
        expected = n * (SPEC.kernel_launch_overhead + 50e-6)
        assert k.sliced_duration(SPEC, 100) == pytest.approx(expected)

    def test_ptb_iteration_duration_includes_overheads(self):
        k = desc(ptb_overhead_fraction=0.05)
        expected = 50e-6 * 1.05 + PTB_ITERATION_OVERHEAD
        assert k.ptb_iteration_duration() == pytest.approx(expected)

    def test_ptb_duration_scales_with_workers(self):
        k = desc()
        assert k.ptb_duration(100) == pytest.approx(
            10 * k.ptb_iteration_duration())
        assert k.ptb_duration(1000) == pytest.approx(
            k.ptb_iteration_duration())

    def test_ptb_turnaround_is_per_iteration_time(self):
        k = desc()
        estimate = k.ptb_turnaround_estimate(SPEC, 100)
        assert estimate == pytest.approx(k.ptb_iteration_duration())

    def test_from_duration_roundtrip(self):
        k = KernelDescriptor.from_duration("k", 1e-3, 2000, 256, SPEC)
        assert k.duration(SPEC) == pytest.approx(1e-3)

    def test_scaled(self):
        k = desc()
        assert k.scaled(2.0).block_duration == pytest.approx(100e-6)
        with pytest.raises(GPUSimError):
            k.scaled(0.0)


class TestLaunchConfig:
    def test_default_is_original(self):
        cfg = LaunchConfig()
        assert cfg.kind is LaunchKind.ORIGINAL

    def test_ptb_requires_workers(self):
        with pytest.raises(GPUSimError):
            LaunchConfig(LaunchKind.PTB)

    def test_original_takes_no_workers(self):
        with pytest.raises(GPUSimError):
            LaunchConfig(LaunchKind.ORIGINAL, workers=4)
