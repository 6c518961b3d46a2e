"""Wave records on the device hot path.

Every ORIGINAL wave and PTB iteration is a record in the device's
settle loop, and a chunk whose boundaries only restart it runs them in
one step (see ``docs/performance.md``, "Wave records").  These tests pin
down the two guarantees that must keep: **far fewer executed events**
for solo launches, with ``events`` still the per-wave count, and
**identical results** to the naive reference device
(:class:`~repro.check.reference.ReferenceDevice`, one event per wave or
iteration) — for the device as runs use it and for the device with the
invariant checker auditing every boundary.

Also here: the regression test for the occupancy-cache bug where
``_capacity`` was keyed on ``threads_per_block`` alone, so two kernels
with equal block width but different shared-memory footprints aliased
to one (wrong) capacity.
"""

import math

import pytest

from repro.check import InvariantChecker
from repro.check.reference import ReferenceDevice
from repro.gpu import (
    A100_SXM4_40GB,
    DeviceLaunch,
    EventLoop,
    GPUDevice,
    KernelDescriptor,
    LaunchConfig,
    LaunchKind,
    LaunchStatus,
)

SPEC = A100_SXM4_40GB


def checked_device():
    engine = EventLoop()
    device = GPUDevice(SPEC, engine, check=InvariantChecker())
    return device, engine


def _exact(x):
    return None if math.isnan(x) else x


def everywhere(build):
    """Run ``build(engine, device) -> launches`` to the end on the
    device, on the checked device and on the reference; assert that all
    three agree exactly and return the device's ``(engine, device,
    launches)``."""
    runs = []
    for make in (lambda e: GPUDevice(SPEC, e),
                 lambda e: GPUDevice(SPEC, e, check=InvariantChecker()),
                 lambda e: ReferenceDevice(SPEC, e)):
        engine = EventLoop()
        device = make(engine)
        launches = build(engine, device)
        engine.run()
        observed = (
            [(l.status, _exact(l.started_at), _exact(l.finished_at),
              l.blocks_done, l.blocks_killed, l.tasks_done)
             for l in launches],
            engine.now, engine.events_processed, device.utilization(),
            device.threads_free, device.slots_free)
        runs.append(((engine, device, launches), observed))
    assert runs[0][1] == runs[2][1]
    assert runs[1][1] == runs[2][1]
    return runs[0][0]


class TestWaveChainBatching:
    def test_solo_original_launch_matches_analytic_duration(self):
        device, engine = checked_device()
        descriptor = KernelDescriptor("k", num_blocks=20_000,
                                      threads_per_block=256,
                                      block_duration=50e-6)
        done = []
        device.submit(DeviceLaunch(descriptor, client_id="a",
                                   on_complete=lambda l: done.append(engine.now)))
        engine.run()
        expected = SPEC.kernel_launch_overhead + descriptor.duration(SPEC)
        assert done == [pytest.approx(expected, rel=1e-9)]

    def test_solo_original_launch_uses_one_event_per_chain_not_per_wave(self):
        capacity = SPEC.concurrent_blocks(256)
        waves = 40
        descriptor = KernelDescriptor("k", num_blocks=waves * capacity,
                                      threads_per_block=256,
                                      block_duration=50e-6)

        def build(engine, device):
            launch = DeviceLaunch(descriptor, client_id="a")
            device.submit(launch)
            return [launch]

        engine, _device, _launches = everywhere(build)
        # the arrival and one event per wave, as the reference runs
        # them; the heap executes the arrival and the first boundary,
        # whose settle loop walks the other 39 in one step
        assert engine.events_processed == 1 + waves
        assert engine.events_processed - engine.events_credited == 2

    def test_solo_ptb_launch_matches_analytic_duration(self):
        device, engine = checked_device()
        descriptor = KernelDescriptor("k", num_blocks=30_000,
                                      threads_per_block=256,
                                      block_duration=20e-6)
        workers = 500
        done = []
        device.submit(DeviceLaunch(
            descriptor, LaunchConfig(LaunchKind.PTB, workers=workers),
            client_id="a", on_complete=lambda l: done.append(engine.now),
        ))
        engine.run()
        expected = (SPEC.kernel_launch_overhead
                    + descriptor.ptb_duration(workers))
        assert done == [pytest.approx(expected, rel=1e-9)]

    def test_solo_ptb_launch_batches_iterations(self):
        descriptor = KernelDescriptor("k", num_blocks=30_000,
                                      threads_per_block=256,
                                      block_duration=20e-6)

        def build(engine, device):
            launch = DeviceLaunch(
                descriptor, LaunchConfig(LaunchKind.PTB, workers=500),
                client_id="a")
            device.submit(launch)
            return [launch]

        engine, _device, _launches = everywhere(build)
        iterations = math.ceil(30_000 / 500)
        assert engine.events_processed == 1 + iterations
        # the last iteration, which ends the workers, is a full body
        assert engine.events_processed - engine.events_credited == 2

    def test_arrival_truncates_chain_and_preserves_accounting(self):
        def build(engine, device):
            first = DeviceLaunch(
                KernelDescriptor("be", num_blocks=40_000,
                                 threads_per_block=256,
                                 block_duration=50e-6),
                client_id="be", priority=1)
            second = DeviceLaunch(
                KernelDescriptor("hp", num_blocks=600,
                                 threads_per_block=128,
                                 block_duration=30e-6),
                client_id="hp", priority=0)
            device.submit(first)
            # arrive strictly inside a wave, not on a boundary
            engine.schedule(50e-6 * 3.5, lambda: device.submit(second))
            return [first, second]

        _engine, device, (first, second) = everywhere(build)
        assert first.status is LaunchStatus.COMPLETED
        assert second.status is LaunchStatus.COMPLETED
        assert device.threads_free == SPEC.total_threads
        assert device.slots_free == SPEC.total_block_slots

    def test_preempt_mid_chain_stops_at_next_boundary(self):
        preempt_at = 1.234e-3

        def build(engine, device):
            launch = DeviceLaunch(
                KernelDescriptor("be", num_blocks=40_000,
                                 threads_per_block=256,
                                 block_duration=50e-6),
                LaunchConfig(LaunchKind.PTB, workers=400), client_id="be")
            device.submit(launch)
            engine.schedule(preempt_at, lambda: device.preempt(launch))
            return [launch]

        engine, _device, (launch,) = everywhere(build)
        assert launch.status is LaunchStatus.PREEMPTED
        # The in-flight iteration finishes; the ack lands within one
        # iteration (block duration + PTB overhead) of the request.
        iter_cost = 50e-6 + 2e-6
        assert preempt_at <= engine.now <= preempt_at + iter_cost + 1e-9

    @staticmethod
    def _kill_mid_run(config):
        def build(engine, device):
            launch = DeviceLaunch(
                KernelDescriptor("be", num_blocks=40_000,
                                 threads_per_block=256,
                                 block_duration=50e-6),
                config, client_id="be")
            device.submit(launch)
            engine.schedule(1.111e-3, lambda: device.kill(launch))
            return [launch]

        _engine, device, (launch,) = everywhere(build)
        assert launch.status is LaunchStatus.PREEMPTED
        assert launch.killed
        assert device.threads_free == SPEC.total_threads
        assert device.slots_free == SPEC.total_block_slots
        return launch

    def test_kill_mid_chain_reclaims_resources(self):
        launch = self._kill_mid_run(LaunchConfig())
        total = (launch.blocks_done + launch.blocks_inflight
                 + launch.blocks_to_start + launch.blocks_killed)
        assert total == launch.total_blocks

    def test_kill_mid_ptb_iteration_reclaims_resources(self):
        # iterations completed before the kill count; the one in flight
        # is lost
        launch = self._kill_mid_run(LaunchConfig(LaunchKind.PTB,
                                                 workers=400))
        assert 0 < launch.tasks_done < launch.total_blocks

    def test_chain_results_match_two_competing_launches(self):
        # Two clients co-located from t=0, each priced with the
        # co-location slowdown, hand slots to each other at their
        # boundaries.
        def build(engine, device):
            launches = [
                DeviceLaunch(KernelDescriptor(f"k{i}", num_blocks=10_000,
                                              threads_per_block=256,
                                              block_duration=40e-6),
                             client_id=f"c{i}")
                for i in range(2)
            ]
            for launch in launches:
                device.submit(launch)
            return launches

        _engine, _device, launches = everywhere(build)
        assert all(l.status is LaunchStatus.COMPLETED for l in launches)


class TestCapacityCacheRegression:
    """``_capacity`` must key on the full occupancy tuple.

    Regression: the cache was keyed on ``threads_per_block`` alone, so
    after a zero-shared-memory kernel warmed the cache, a kernel with
    the same block width but a large shared-memory footprint read the
    uncapped capacity back out.
    """

    def test_shared_memory_does_not_alias_cache(self):
        device = GPUDevice(SPEC, EventLoop())
        plain = device._capacity(256)
        heavy = device._capacity(256, 65536)
        assert plain == SPEC.concurrent_blocks(256)
        assert heavy == SPEC.concurrent_blocks(256, 65536)
        assert heavy < plain
        # Both orders: warm with the heavy kernel first, then plain.
        device2 = GPUDevice(SPEC, EventLoop())
        assert device2._capacity(256, 65536) == heavy
        assert device2._capacity(256) == plain

    def test_cache_hits_return_consistent_values(self):
        device = GPUDevice(SPEC, EventLoop())
        for _ in range(3):
            assert device._capacity(128, 32768) == \
                SPEC.concurrent_blocks(128, 32768)

    def test_mixed_footprint_kernels_keep_distinct_cache_entries(self):
        # End to end: running a plain and a shared-memory-heavy kernel
        # through one device leaves two cache entries with the right
        # occupancy each (under the old key the second lookup aliased).
        engine = EventLoop()
        device = GPUDevice(SPEC, engine, check=InvariantChecker())
        plain = DeviceLaunch(
            KernelDescriptor("plain", num_blocks=4000,
                             threads_per_block=256, block_duration=40e-6),
            client_id="a",
        )
        heavy = DeviceLaunch(
            KernelDescriptor("smem", num_blocks=800,
                             threads_per_block=256, block_duration=40e-6,
                             shared_mem_per_block=65536),
            client_id="b",
        )
        device.submit(plain)
        device.submit(heavy)
        engine.run()
        assert plain.status is LaunchStatus.COMPLETED
        assert heavy.status is LaunchStatus.COMPLETED
        assert device._capacity_cache[(256, 0)] == \
            SPEC.concurrent_blocks(256)
        assert device._capacity_cache[(256, 65536)] == \
            SPEC.concurrent_blocks(256, 65536)
