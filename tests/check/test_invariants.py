"""Tests of the runtime invariant checker.

Two halves: healthy simulations of every launch shape pass with zero
violations, and seeded mutations of the device's accounting (a skipped
release, a dropped per-client decrement, a priority-inverting
dispatcher) are each caught — proving the checker detects the bug
class it exists for, not just that it stays quiet.
"""

import pytest

from repro.check import NULL_CHECKER, InvariantChecker
from repro.errors import InvariantViolation
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
    checker = InvariantChecker()
    device = GPUDevice(SPEC, engine, check=checker)
    return device, engine, checker


def kernel(name="k", blocks=2000, bd=50e-6, tpb=256):
    return KernelDescriptor(name, num_blocks=blocks, threads_per_block=tpb,
                            block_duration=bd)


class TestDisabledDefault:
    def test_device_defaults_to_null_checker(self):
        device = GPUDevice(SPEC, EventLoop())
        assert device.check is NULL_CHECKER
        assert not device.check.enabled

    def test_null_checker_shared_and_disabled(self):
        assert NULL_CHECKER.enabled is False


class TestHealthyRuns:
    def test_original_launch_passes(self):
        device, engine, checker = checked_device()
        device.submit(DeviceLaunch(kernel(), client_id="a"))
        engine.run()
        assert checker.checks_run > 0
        assert checker.violations == []
        assert device.threads_free == SPEC.total_threads
        assert device.slots_free == SPEC.total_block_slots

    def test_ptb_launch_passes(self):
        device, engine, checker = checked_device()
        launch = DeviceLaunch(
            kernel(blocks=5000), LaunchConfig(LaunchKind.PTB, workers=200),
            client_id="a",
        )
        device.submit(launch)
        engine.run()
        assert launch.status is LaunchStatus.COMPLETED
        assert checker.violations == []

    def test_preempt_and_kill_pass(self):
        device, engine, checker = checked_device()
        victim = DeviceLaunch(
            kernel("victim", blocks=40_000),
            LaunchConfig(LaunchKind.PTB, workers=300), client_id="be",
        )
        device.submit(victim)
        engine.schedule(1e-3, lambda: device.preempt(victim))
        killed = DeviceLaunch(kernel("killed", blocks=40_000),
                              client_id="be2")
        device.submit(killed)
        engine.schedule(1.5e-3, lambda: device.kill(killed))
        engine.run()
        assert victim.done and killed.done
        assert checker.violations == []
        assert device.threads_free == SPEC.total_threads

    def test_colocated_priorities_pass(self):
        device, engine, checker = checked_device()
        device.submit(DeviceLaunch(kernel("be", blocks=30_000),
                                   client_id="be", priority=1))
        engine.schedule(
            0.5e-3,
            lambda: device.submit(DeviceLaunch(
                kernel("hp", blocks=500), client_id="hp", priority=0)),
        )
        engine.run()
        assert checker.violations == []


class TestMutationsCaught:
    """Seeded accounting bugs must raise InvariantViolation."""

    def test_skipped_release_is_caught(self, monkeypatch):
        original = GPUDevice._release
        calls = {"n": 0}

        def leaky(self, launch, count, threads):
            calls["n"] += 1
            if calls["n"] == 1:
                return  # leak the first batch's threads and slots
            original(self, launch, count, threads)

        monkeypatch.setattr(GPUDevice, "_release", leaky)
        device, engine, _checker = checked_device()
        device.submit(DeviceLaunch(kernel(), client_id="a"))
        with pytest.raises(InvariantViolation):
            engine.run()

    def test_dropped_client_decrement_is_caught(self, monkeypatch):
        original = GPUDevice._release

        def skewed(self, launch, count, threads):
            original(self, launch, count, threads)
            # Undo the per-client bookkeeping only.
            self._client_inflight[launch.client_id] += count

        monkeypatch.setattr(GPUDevice, "_release", skewed)
        device, engine, _checker = checked_device()
        device.submit(DeviceLaunch(kernel(), client_id="a"))
        with pytest.raises(InvariantViolation):
            engine.run()

    def test_broken_block_conservation_is_caught(self, monkeypatch):
        # Corrupt the ORIGINAL wave boundary's full body (a checked run
        # takes it at every boundary) so a phantom block lands.
        orig_finish = GPUDevice._finish_batch

        def finish(self, launch, count, threads):
            orig_finish(self, launch, count, threads)
            if not launch.done:
                launch.blocks_done += 1  # phantom block
                self.check.verify(self)

        monkeypatch.setattr(GPUDevice, "_finish_batch", finish)
        device, engine, _checker = checked_device()
        device.submit(DeviceLaunch(kernel(blocks=3000), client_id="a"))
        with pytest.raises(InvariantViolation):
            engine.run()

    def test_priority_inversion_is_caught(self, monkeypatch):
        def greedy(self):
            # Dispatch lowest priority first — the opposite of the
            # strict-priority rule the checker enforces.
            for launch in sorted(self._resident,
                                 key=lambda l: -l.priority):
                if (launch.blocks_to_start > 0
                        and not launch.preempt_requested
                        and self._slots_free > 0):
                    tpb = launch.descriptor.threads_per_block
                    fit = min(self._threads_free // tpb, self._slots_free,
                              launch.blocks_to_start)
                    if fit > 0:
                        self._start_batch(launch, fit)

        monkeypatch.setattr(GPUDevice, "_dispatch", greedy)
        device, engine, _checker = checked_device()
        # Two waves of best-effort work, then a high-priority arrival:
        # when the first wave drains, the greedy dispatcher hands the
        # freed slots to the best-effort remainder instead of the
        # waiting high-priority launch.
        capacity = SPEC.concurrent_blocks(256)
        device.submit(DeviceLaunch(kernel("be", blocks=2 * capacity),
                                   client_id="be", priority=1))
        engine.schedule(
            10e-6,
            lambda: device.submit(DeviceLaunch(
                kernel("hp", blocks=200), client_id="hp", priority=0)),
        )
        with pytest.raises(InvariantViolation):
            engine.run()


class TestCollectMode:
    def test_collect_mode_records_without_raising(self, monkeypatch):
        original = GPUDevice._release
        calls = {"n": 0}

        def leaky(self, launch, count, threads):
            calls["n"] += 1
            if calls["n"] == 1:
                return
            original(self, launch, count, threads)

        monkeypatch.setattr(GPUDevice, "_release", leaky)
        engine = EventLoop()
        checker = InvariantChecker(raise_on_violation=False)
        device = GPUDevice(SPEC, engine, check=checker)
        device.submit(DeviceLaunch(kernel(), client_id="a"))
        engine.run()
        assert checker.violations
        assert any("leak" in v or "conservation" in v
                   for v in checker.violations)
