"""Tests for the transparent profiler."""

import pytest

from repro.core import TallyConfig
from repro.core.candidates import SchedKind
from repro.core.profiler import Measurement, TransparentProfiler
from repro.errors import SchedulerError
from repro.gpu import A100_SXM4_40GB, KernelDescriptor

SPEC = A100_SXM4_40GB


def desc(name="k", blocks=5000, bd=50e-6):
    return KernelDescriptor(name, num_blocks=blocks, threads_per_block=256,
                            block_duration=bd)


def make_profiler(**config_kw):
    config = TallyConfig(prewarm_profiles=False, **config_kw)
    return TransparentProfiler(SPEC, config)


class TestMeasurement:
    def test_ewma_update_moves_toward_sample(self):
        m = Measurement(turnaround=100e-6, duration=1e-3)
        m.update(turnaround=200e-6, duration=2e-3)
        assert 100e-6 < m.turnaround < 200e-6
        assert m.samples == 2


class TestProfilingPhase:
    def test_profiles_each_candidate_once(self):
        profiler = make_profiler()
        k = desc()
        candidates = profiler.candidates(k)
        seen = []
        for _ in candidates:
            config, profiling = profiler.choose(k)
            assert profiling
            seen.append(config)
            profiler.record(k, config, turnaround=1e-3, duration=1e-2)
        assert seen == candidates
        _config, profiling = profiler.choose(k)
        assert not profiling

    def test_profiling_order_is_cheapest_footprint_first(self):
        profiler = make_profiler()
        k = desc()
        first, _ = profiler.choose(k)
        assert first.kind is SchedKind.PTB
        assert first.workers == SPEC.num_sms


class TestPickAndCount:
    def test_pick_moves_no_counter(self):
        profiler = make_profiler()
        k = desc()
        first = (profiler.candidates(k)[0], True)
        assert profiler.pick(k) == profiler.pick(k) == first
        assert (profiler.profiling_runs, profiler.decisions) == (0, 0)
        assert profiler.choose(k) == first
        assert (profiler.profiling_runs, profiler.decisions) == (1, 0)

    def test_pick_prewarms_but_moves_no_counter(self):
        profiler = TransparentProfiler(SPEC, TallyConfig())
        k = desc()
        config, profiling = profiler.pick(k)
        assert not profiling
        assert all(profiler.lookup(k, c) is not None
                   for c in profiler.candidates(k))
        assert (profiler.profiling_runs, profiler.decisions) == (0, 0)
        assert profiler.choose(k) == (config, False)
        assert (profiler.profiling_runs, profiler.decisions) == (0, 1)


class TestSelection:
    def _measured(self, profiler, k, entries):
        for config, (turnaround, duration) in entries.items():
            profiler.record(k, config, turnaround, duration)

    def test_picks_fastest_feasible(self):
        profiler = make_profiler(turnaround_latency_bound=100e-6)
        k = desc()
        candidates = profiler.candidates(k)
        # Mark everything measured: two feasible options with different
        # durations, rest infeasible.
        for i, c in enumerate(candidates):
            if i == 0:
                profiler.record(k, c, turnaround=50e-6, duration=5e-3)
            elif i == 1:
                profiler.record(k, c, turnaround=80e-6, duration=2e-3)
            else:
                profiler.record(k, c, turnaround=1e-3, duration=1e-3)
        chosen, profiling = profiler.choose(k)
        assert not profiling
        assert chosen == candidates[1]  # feasible with min duration

    def test_falls_back_to_min_turnaround(self):
        profiler = make_profiler(turnaround_latency_bound=1e-9)
        k = desc()
        candidates = profiler.candidates(k)
        for i, c in enumerate(candidates):
            profiler.record(k, c, turnaround=(i + 1) * 1e-3, duration=1e-3)
        chosen, _ = profiler.choose(k)
        assert chosen == candidates[0]

    def test_best_known_matches_choose(self):
        profiler = make_profiler()
        k = desc()
        for c in profiler.candidates(k):
            profiler.record(k, c, turnaround=1e-5, duration=1e-3)
        chosen, _ = profiler.choose(k)
        assert profiler.best_known(k) == chosen

    def test_negative_measurement_rejected(self):
        profiler = make_profiler()
        k = desc()
        config = profiler.candidates(k)[0]
        with pytest.raises(SchedulerError):
            profiler.record(k, config, turnaround=-1.0, duration=1.0)

    @pytest.mark.parametrize("turnaround, duration", [
        (float("nan"), 1e-3), (1e-3, float("nan")),
    ])
    def test_nan_measurement_rejected(self, turnaround, duration):
        # Regression: ``turnaround < 0 or duration < 0`` let NaN through,
        # and a NaN turnaround left choose() and best_known() taking
        # min() of an empty pool once nothing met the bound.
        profiler = make_profiler(turnaround_latency_bound=1e-9)
        k = desc()
        first, *rest = profiler.candidates(k)
        with pytest.raises(SchedulerError):
            profiler.record(k, first, turnaround, duration)
        assert profiler.lookup(k, first) is None
        profiler.record(k, first, turnaround=2e-3, duration=1e-3)
        for c in rest:
            profiler.record(k, c, turnaround=1e-3, duration=1e-3)
        chosen, profiling = profiler.choose(k)
        assert not profiling
        assert profiler.best_known(k) == chosen


class TestPrewarm:
    def test_prewarm_fills_all_candidates(self):
        config = TallyConfig(prewarm_profiles=True)
        profiler = TransparentProfiler(SPEC, config)
        k = desc()
        _chosen, profiling = profiler.choose(k)
        assert not profiling  # analytic estimates made profiling moot
        for c in profiler.candidates(k):
            assert profiler.lookup(k, c) is not None

    def test_prewarm_estimates_track_cost_model(self):
        config = TallyConfig(prewarm_profiles=True)
        profiler = TransparentProfiler(SPEC, config)
        k = desc()
        profiler.prewarm(k)
        for c in profiler.candidates(k):
            m = profiler.lookup(k, c)
            if c.kind is SchedKind.PTB:
                assert m.turnaround == pytest.approx(
                    k.ptb_iteration_duration())
            elif c.kind is SchedKind.SLICED:
                assert m.turnaround == pytest.approx(
                    k.slice_duration(SPEC, c.blocks_per_slice))

    def test_runtime_measurements_refine_prewarm(self):
        config = TallyConfig(prewarm_profiles=True)
        profiler = TransparentProfiler(SPEC, config)
        k = desc()
        profiler.prewarm(k)
        c = profiler.candidates(k)[0]
        before = profiler.lookup(k, c).turnaround
        profiler.record(k, c, turnaround=before * 10, duration=1e-3)
        assert profiler.lookup(k, c).turnaround > before


class TestDescriptorKeying:
    """Regression: profiles are keyed on the full descriptor.

    The cache used to key on ``descriptor.name`` alone, so two kernels
    sharing a name with different launch geometry (blocks, threads,
    shared memory) inherited each other's candidate sets and
    measurements.
    """

    def test_same_name_different_geometry_not_aliased(self):
        profiler = make_profiler()
        big = desc("conv2d", blocks=5000)
        small = desc("conv2d", blocks=64)
        for c in profiler.candidates(big):
            profiler.record(big, c, turnaround=1e-3, duration=1e-2)
        _config, profiling = profiler.choose(big)
        assert not profiling  # big is fully measured
        # small shares only the name; it must profile from scratch with
        # its own (different) candidate set, not inherit big's.
        assert profiler.candidates(small) != profiler.candidates(big)
        _config, profiling = profiler.choose(small)
        assert profiling

    def test_measurements_do_not_leak_across_geometries(self):
        profiler = make_profiler()
        slow = desc("k", blocks=5000, bd=50e-6)
        fast = desc("k", blocks=5000, bd=5e-6)  # same candidate shapes
        c = profiler.candidates(slow)[0]
        profiler.record(slow, c, turnaround=1e-3, duration=1e-2)
        assert profiler.lookup(fast, c) is None

    def test_prewarm_covers_each_geometry_separately(self):
        config = TallyConfig(prewarm_profiles=True)
        profiler = TransparentProfiler(SPEC, config)
        a = desc("k", blocks=5000)
        b = desc("k", blocks=64)
        profiler.prewarm(a)
        profiler.prewarm(b)
        for k in (a, b):
            for c in profiler.candidates(k):
                assert profiler.lookup(k, c) is not None
