"""Tests for Tally's priority-aware scheduler over the timing simulator."""

import pytest

from repro.baselines import Priority
from repro.core import Tally, TallyConfig
from repro.core.candidates import ORIGINAL_CONFIG, SchedKind
from repro.errors import SchedulerError
from repro.gpu import A100_SXM4_40GB, EventLoop, GPUDevice, KernelDescriptor

SPEC = A100_SXM4_40GB


def make_tally(**config_kw):
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    tally = Tally(device, engine, TallyConfig(**config_kw))
    return tally, device, engine


def kernel(name="k", blocks=5000, bd=50e-6, tpb=256):
    return KernelDescriptor(name, num_blocks=blocks, threads_per_block=tpb,
                            block_duration=bd)


class TestPriorityEnforcement:
    def test_high_priority_dispatches_immediately(self):
        tally, device, engine = make_tally()
        tally.register_client("hp", Priority.HIGH)
        done = []
        tally.submit("hp", kernel(blocks=100), lambda: done.append(engine.now))
        engine.run()
        assert done and done[0] < 1e-3
        assert tally.stats.hp_kernels == 1

    def test_best_effort_waits_for_high_priority(self):
        tally, device, engine = make_tally()
        tally.register_client("hp", Priority.HIGH)
        tally.register_client("be", Priority.BEST_EFFORT)
        order = []
        # Long HP kernel, then a BE kernel arrives mid-way.
        tally.submit("hp", kernel("hp_k", blocks=864 * 4, bd=1e-3),
                     lambda: order.append(("hp", engine.now)))
        engine.schedule(0.5e-3, lambda: tally.submit(
            "be", kernel("be_k", blocks=100, bd=50e-6),
            lambda: order.append(("be", engine.now))))
        engine.run()
        assert order[0][0] == "hp"

    def test_hp_arrival_preempts_ptb_execution(self):
        tally, device, engine = make_tally(
            slice_fractions=(), worker_sm_multiples=(1,))
        tally.register_client("hp", Priority.HIGH)
        tally.register_client("be", Priority.BEST_EFFORT)
        done = {}
        tally.submit("be", kernel("be_k", blocks=50_000, bd=100e-6),
                     lambda: done.setdefault("be", engine.now))
        engine.schedule(2e-3, lambda: tally.submit(
            "hp", kernel("hp_k", blocks=100, bd=50e-6),
            lambda: done.setdefault("hp", engine.now)))
        engine.run()
        assert tally.stats.preemptions >= 1
        assert tally.stats.resumes >= 1
        assert done["hp"] < done["be"]
        # HP kernel completed promptly: launch overhead + execution +
        # at most one PTB iteration of queueing.
        hp_latency = done["hp"] - 2e-3
        assert hp_latency < 1e-3

    def test_best_effort_completes_after_resume(self):
        tally, device, engine = make_tally()
        tally.register_client("hp", Priority.HIGH)
        tally.register_client("be", Priority.BEST_EFFORT)
        done = {}
        tally.submit("be", kernel("be_k", blocks=20_000, bd=50e-6),
                     lambda: done.setdefault("be", engine.now))
        for i in range(5):
            engine.schedule(1e-3 * (i + 1), lambda: tally.submit(
                "hp", kernel("hp_k", blocks=50, bd=20e-6),
                lambda: None))
        engine.run()
        assert "be" in done  # preempted repeatedly but finished


class TestSchedulingModes:
    def test_no_transformations_launches_whole_kernels(self):
        tally, device, engine = make_tally(use_transformations=False)
        tally.register_client("be", Priority.BEST_EFFORT)
        done = []
        tally.submit("be", kernel(blocks=2000), lambda: done.append(1))
        engine.run()
        assert done
        assert tally.stats.slices_launched == 0
        assert tally.stats.ptb_launches == 0

    def test_sliced_execution_counts_slices(self):
        tally, device, engine = make_tally(
            worker_sm_multiples=(), slice_fractions=(0.1,),
            prewarm_profiles=True)
        tally.register_client("be", Priority.BEST_EFFORT)
        done = []
        tally.submit("be", kernel(blocks=1000), lambda: done.append(1))
        engine.run()
        assert done
        assert tally.stats.slices_launched == 10

    def test_stream_order_enforced(self):
        tally, device, engine = make_tally()
        tally.register_client("be", Priority.BEST_EFFORT)
        tally.submit("be", kernel(), lambda: None)
        with pytest.raises(SchedulerError, match="stream-ordered"):
            tally.submit("be", kernel(), lambda: None)

    def test_unknown_client_rejected(self):
        tally, device, engine = make_tally()
        with pytest.raises(SchedulerError):
            tally.submit("ghost", kernel(), lambda: None)

    def test_duplicate_registration_rejected(self):
        tally, device, engine = make_tally()
        tally.register_client("a")
        with pytest.raises(SchedulerError):
            tally.register_client("a")


class TestProfileGuidedSelection:
    def test_profiler_converges_to_bounded_config(self):
        """After profiling, the chosen config's turnaround estimate
        meets the bound whenever any candidate can."""
        tally, device, engine = make_tally(prewarm_profiles=True)
        tally.register_client("be", Priority.BEST_EFFORT)
        k = kernel(blocks=10_000, bd=20e-6)

        pending = [k] * 3

        def submit_next():
            if pending:
                tally.submit("be", pending.pop(), submit_next)

        submit_next()
        engine.run()
        chosen = tally.profiler.best_known(k)
        measurement = tally.profiler.lookup(k, chosen)
        assert measurement is not None
        assert measurement.turnaround <= tally.config.turnaround_latency_bound

    def test_runtime_measurements_recorded(self):
        tally, device, engine = make_tally(prewarm_profiles=True)
        tally.register_client("be", Priority.BEST_EFFORT)
        k = kernel(blocks=2000, bd=30e-6)
        tally.submit("be", k, lambda: None)
        engine.run()
        chosen = tally.profiler.best_known(k)
        m = tally.profiler.lookup(k, chosen)
        assert m is not None and m.samples >= 2  # prewarm + runtime

    def test_whole_launch_of_an_unsplittable_kernel_is_measured(self):
        """A kernel too small to subdivide has the whole launch as its
        only candidate: its first run measures it, so from a cold cache
        only that run counts as profiling and later runs are decisions."""
        tally, device, engine = make_tally(prewarm_profiles=False)
        tally.register_client("be", Priority.BEST_EFFORT)
        k = kernel(blocks=1)
        assert tally.profiler.candidates(k) == [ORIGINAL_CONFIG]
        pending = [k] * 5

        def submit_next():
            if pending:
                tally.submit("be", pending.pop(), submit_next)

        submit_next()
        engine.run()
        assert tally.stats.be_kernels == 5
        assert tally.profiler.profiling_runs == 1
        assert tally.profiler.decisions == 4
        m = tally.profiler.lookup(k, ORIGINAL_CONFIG)
        assert m is not None and m.samples == 5
        assert m.turnaround == m.duration > 0


class TestMultipleBestEffortClients:
    def test_concurrent_best_effort_executions(self):
        tally, device, engine = make_tally()
        tally.register_client("be1", Priority.BEST_EFFORT)
        tally.register_client("be2", Priority.BEST_EFFORT)
        done = {}
        tally.submit("be1", kernel("k1", blocks=3000),
                     lambda: done.setdefault("be1", engine.now))
        tally.submit("be2", kernel("k2", blocks=3000),
                     lambda: done.setdefault("be2", engine.now))
        engine.run()
        assert set(done) == {"be1", "be2"}

    def test_all_best_effort_preempted_on_hp_arrival(self):
        tally, device, engine = make_tally(
            slice_fractions=(), worker_sm_multiples=(1,))
        tally.register_client("hp", Priority.HIGH)
        for i in range(3):
            tally.register_client(f"be{i}", Priority.BEST_EFFORT)
        for i in range(3):
            tally.submit(f"be{i}", kernel(f"k{i}", blocks=50_000, bd=100e-6),
                         lambda: None)
        engine.schedule(2e-3, lambda: tally.submit(
            "hp", kernel("hp_k", blocks=100, bd=20e-6), lambda: None))
        engine.run_until(3e-3)
        assert tally.stats.preemptions == 3
