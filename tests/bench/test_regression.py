"""The perf regression gate: baseline comparison semantics."""

import json

import pytest

from repro.bench.harness import BenchmarkResult, BenchReport
from repro.bench.regression import compare_reports, load_report
from repro.errors import ReproError


def report(**eps_by_name):
    return BenchReport(benchmarks=[
        BenchmarkResult(name=name, wall_s=1.0, events=int(eps))
        for name, eps in eps_by_name.items()
    ])


def cached_report(eps, hit_rate=None):
    extra = {} if hit_rate is None else {"cache_hit_rate": hit_rate}
    return BenchReport(benchmarks=[
        BenchmarkResult(name="micro.transform_pipeline", wall_s=1.0,
                        events=int(eps), extra=extra)
    ])


class TestCompareReports:
    def test_within_threshold_passes(self):
        out = compare_reports(report(a=100_000), report(a=80_000),
                              threshold=0.25)
        assert out.ok
        assert out.comparisons[0].ratio == pytest.approx(0.8)

    def test_regression_beyond_threshold_fails(self):
        out = compare_reports(report(a=100_000), report(a=70_000),
                              threshold=0.25)
        assert not out.ok
        assert [c.name for c in out.regressions] == ["a"]
        assert "REGRESSED" in out.format()
        assert "FAILED" in out.format()

    def test_speedups_always_pass(self):
        out = compare_reports(report(a=100_000), report(a=300_000))
        assert out.ok
        assert out.comparisons[0].ratio == pytest.approx(3.0)

    def test_unmatched_benchmarks_never_gate(self):
        out = compare_reports(report(a=100_000, gone=50_000),
                              report(a=90_000, new=10))
        assert out.ok
        assert out.only_in_baseline == ["gone"]
        assert out.only_in_current == ["new"]
        assert "new benchmark" in out.format()

    def test_bad_threshold_rejected(self):
        with pytest.raises(ReproError, match="threshold"):
            compare_reports(report(a=1), report(a=1), threshold=1.5)


class TestHitRateGate:
    def test_hit_rate_drop_beyond_threshold_fails(self):
        # Throughput is fine (same eps) but the memo stopped hitting —
        # the shape of a broken cache key.
        out = compare_reports(cached_report(100_000, hit_rate=0.98),
                              cached_report(100_000, hit_rate=0.50))
        assert not out.ok
        assert [c.name for c in out.hit_rate_regressions] \
            == ["micro.transform_pipeline"]
        assert "HIT-RATE DROPPED" in out.format()
        assert "FAILED" in out.format()

    def test_hit_rate_within_tolerance_passes(self):
        out = compare_reports(cached_report(100_000, hit_rate=0.98),
                              cached_report(100_000, hit_rate=0.95))
        assert out.ok
        assert "cache 98% -> 95%" in out.format()

    def test_hit_rate_missing_on_either_side_never_gates(self):
        assert compare_reports(cached_report(100_000, hit_rate=0.98),
                               cached_report(100_000)).ok
        assert compare_reports(cached_report(100_000),
                               cached_report(100_000, hit_rate=0.2)).ok

    def test_custom_drop_threshold(self):
        base = cached_report(100_000, hit_rate=0.90)
        cur = cached_report(100_000, hit_rate=0.75)
        assert not compare_reports(base, cur, hit_rate_drop=0.10).ok
        assert compare_reports(base, cur, hit_rate_drop=0.20).ok

    def test_bad_drop_threshold_rejected(self):
        with pytest.raises(ReproError, match="hit_rate_drop"):
            compare_reports(report(a=1), report(a=1), hit_rate_drop=0)


def work_report(name, wall_s, events, **extra):
    return BenchReport(benchmarks=[
        BenchmarkResult(name=name, wall_s=wall_s, events=events, extra=extra)
    ])


class TestWorkUnit:
    """Throughput is work per wall second, not events per wall second:
    batching cuts events without cutting work."""

    def test_macro_gated_on_simulated_seconds(self):
        base = work_report("macro.llm_serve", 1.0, 44_720, simulated_s=3.0)
        # 31 % fewer events in the same wall time: same work rate
        batched = work_report("macro.llm_serve", 1.0, 30_782,
                              simulated_s=3.0)
        out = compare_reports(base, batched)
        assert out.ok
        assert out.comparisons[0].unit == "sim-s/s"
        assert out.comparisons[0].ratio == pytest.approx(1.0)
        assert "3.000 -> 3.000 sim-s/s" in out.format()
        # the same work taking 40 % longer regresses, whatever the events
        slow = work_report("macro.llm_serve", 1.4, 80_000, simulated_s=3.0)
        assert not compare_reports(base, slow).ok

    def test_cluster_gated_on_simulated_gpu_seconds(self):
        base = work_report("macro.cluster_sweep", 2.0, 100_000,
                           simulated_gpu_s=8.0)
        cur = work_report("macro.cluster_sweep", 1.0, 10_000,
                          simulated_gpu_s=8.0)
        out = compare_reports(base, cur)
        assert out.comparisons[0].unit == "sim-GPU-s/s"
        assert out.comparisons[0].ratio == pytest.approx(2.0)

    def test_device_dispatch_gated_on_launches(self):
        base = work_report("micro.device_dispatch", 1.0, 6_200,
                           launches=2_100)
        cur = work_report("micro.device_dispatch", 1.0, 3_000,
                          launches=2_100)
        out = compare_reports(base, cur)
        assert out.ok
        assert out.comparisons[0].unit == "launches/s"

    def test_events_when_either_side_lacks_the_unit(self):
        base = work_report("macro.x", 1.0, 1_000, simulated_s=3.0)
        cur = work_report("macro.x", 1.0, 500)
        out = compare_reports(base, cur)
        assert out.comparisons[0].unit == "events/s"
        assert not out.ok


class TestLoadReport:
    def test_loads_newest_trajectory_entry(self, tmp_path):
        path = tmp_path / "traj.json"
        entries = [report(a=1).to_dict(), report(a=2).to_dict()]
        entries[0]["label"] = "old"
        entries[1]["label"] = "new"
        path.write_text(json.dumps(entries))
        assert load_report(str(path)).label == "new"

    def test_loads_bare_report(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report(a=123).to_dict()))
        assert load_report(str(path)).result("a").events == 123

    def test_empty_trajectory_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(ReproError, match="empty"):
            load_report(str(path))


class TestSpeedupGate:
    """The parallel speedup floor scales with the cores behind the
    workers, so it holds on every host."""

    @staticmethod
    def gated(speedup, cores, workers=8):
        return work_report("macro.cluster_1k", 1.0, 1_000,
                           simulated_gpu_s=64.0, speedup=speedup,
                           workers=workers, cores=cores)

    @pytest.mark.parametrize("cores, required", [
        (16, 4.0), (8, 4.0), (4, 2.0), (2, 1.0), (1, 0.5)])
    def test_floor_scales_with_min_of_cores_and_workers(self, cores,
                                                        required):
        base = self.gated(required, cores)
        assert compare_reports(base, self.gated(required, cores)).ok
        out = compare_reports(base, self.gated(required * 0.99, cores))
        assert not out.ok
        assert out.speedup_failures == [
            ("macro.cluster_1k", pytest.approx(required * 0.99),
             pytest.approx(required))]
        assert "SPEEDUP FAILED" in out.format()

    def test_custom_floor(self):
        base = self.gated(1.5, 2)  # 2 of 8 workers' cores: floor / 4
        assert compare_reports(base, base, speedup_floor=6.0).ok
        assert not compare_reports(base, base, speedup_floor=6.4).ok

    def test_benchmarks_without_a_speedup_are_not_gated(self):
        base = work_report("macro.x", 1.0, 1_000, workers=8, cores=8)
        assert compare_reports(base, base).ok
