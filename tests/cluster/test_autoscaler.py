"""Load-signal autoscaler: hysteresis, warm-up, drain-back, determinism."""

import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterCase,
    ClusterJob,
    run_cluster_sweep,
    run_controlplane,
)
from repro.errors import HarnessError
from repro.harness import RunConfig
from repro.trace import Tracer, summarize

CFG = RunConfig(duration=3.0, warmup=0.5)

#: reacts within a tick or two and drains back quickly — test-sized
FAST = AutoscalerConfig(interval=0.1, queue_high=1, queue_low=0,
                        up_ticks=1, down_ticks=3, cooldown=0.0,
                        warmup_min=0.05, warmup_max=0.1)


def hp_fleet(n, **kwargs):
    return [ClusterJob("bert_infer", load=0.3, traffic_seed=i, **kwargs)
            for i in range(n)]


class TestConfig:
    def test_validation(self):
        with pytest.raises(HarnessError):
            AutoscalerConfig(interval=0.0)
        with pytest.raises(HarnessError):
            AutoscalerConfig(queue_low=5, queue_high=2)
        with pytest.raises(HarnessError):
            AutoscalerConfig(p99_low=2.0, p99_high=1.0)
        with pytest.raises(HarnessError):
            AutoscalerConfig(warmup_min=0.5, warmup_max=0.1)
        with pytest.raises(HarnessError):
            AutoscalerConfig(up_ticks=0)
        with pytest.raises(HarnessError):
            AutoscalerConfig(min_active=0)

    def test_parse(self):
        config = AutoscalerConfig.parse(
            "interval=0.5,queue_high=4,min_active=2")
        assert config.interval == 0.5
        assert config.queue_high == 4
        assert config.min_active == 2
        assert AutoscalerConfig.parse("") == AutoscalerConfig()

    def test_parse_rejects_unknown_and_bad_values(self):
        with pytest.raises(HarnessError, match="known keys"):
            AutoscalerConfig.parse("warp_factor=9")
        with pytest.raises(HarnessError, match="bad --autoscale value"):
            AutoscalerConfig.parse("queue_high=many")

    def test_standby_needs_autoscale_and_valid_count(self):
        with pytest.raises(HarnessError, match="autoscale"):
            run_controlplane(jobs=hp_fleet(2), devices=2, config=CFG,
                             standby=1)
        with pytest.raises(HarnessError, match="at least one"):
            run_controlplane(jobs=hp_fleet(2), devices=2, config=CFG,
                             autoscale=FAST, standby=2)


class TestScaleUp:
    @pytest.mark.slow
    def test_queue_pressure_activates_standby_capacity(self):
        # 4 HP services into 1 active device (HP exclusivity: one per
        # GPU) — without spares 3 wait in queue forever.  The
        # autoscaler must bring up standby devices and admit them all.
        result = run_controlplane(
            jobs=hp_fleet(4), devices=4, config=CFG, arrival_rate=50.0,
            autoscale=FAST, standby=3, check=True)
        recovery = result.recovery
        assert recovery.scale_ups == 3
        assert recovery.jobs_shed == 0
        assert len(result.services) == 4  # every HP service went live

    def test_without_autoscaler_the_queue_stays_stuck(self):
        result = run_controlplane(
            jobs=hp_fleet(4), devices=1, config=CFG, arrival_rate=50.0,
            check=True)
        assert result.recovery.scale_ups == 0
        assert len(result.services) == 1

    def test_hysteresis_requires_consecutive_breach_ticks(self):
        # up_ticks greater than the total tick count: never scales.
        patient = AutoscalerConfig(interval=0.1, queue_high=1,
                                   up_ticks=1000)
        result = run_controlplane(
            jobs=hp_fleet(4), devices=4, config=CFG, arrival_rate=50.0,
            autoscale=patient, standby=3, check=True)
        assert result.recovery.scale_ups == 0
        assert len(result.services) == 1

    @pytest.mark.slow
    def test_decisions_are_traced(self):
        tracer = Tracer(capacity=None)
        run_controlplane(
            jobs=hp_fleet(4), devices=4, config=CFG, arrival_rate=50.0,
            autoscale=FAST, standby=3, check=True, tracer=tracer)
        decisions = summarize(tracer).scale_decisions
        assert decisions.get("scale_up") == 3


class TestScaleDown:
    def test_departures_drain_elastic_capacity_back(self):
        # All services leave at t=1; calm ticks then drain the elastic
        # shards back to standby (the base device never drains).
        jobs = hp_fleet(4, depart_at=1.0)
        tracer = Tracer(capacity=None)
        result = run_controlplane(
            jobs=jobs, devices=4, config=CFG, arrival_rate=50.0,
            autoscale=FAST, standby=3, check=True, tracer=tracer)
        recovery = result.recovery
        assert recovery.scale_ups == 3
        assert recovery.scale_downs == 3
        decisions = summarize(tracer).scale_decisions
        assert decisions.get("scale_down") == 3

    def test_min_active_floors_the_drain(self):
        jobs = hp_fleet(4, depart_at=1.0)
        keep = AutoscalerConfig(interval=0.1, queue_high=1, queue_low=0,
                                up_ticks=1, down_ticks=3, cooldown=0.0,
                                warmup_min=0.05, warmup_max=0.1,
                                min_active=3)
        result = run_controlplane(
            jobs=jobs, devices=4, config=CFG, arrival_rate=50.0,
            autoscale=keep, standby=3, check=True)
        # 1 base + 3 elastic active; only down to min_active=3 sheds
        assert result.recovery.scale_downs == 1


class TestDeterminism:
    def case(self):
        return ClusterCase(
            jobs=tuple(hp_fleet(4, depart_at=1.5)), devices=4,
            config=CFG, arrival_rate=50.0, autoscale=FAST, standby=3,
            check=True)

    @pytest.mark.slow
    def test_repeat_runs_bit_identical(self):
        first, second = run_cluster_sweep([self.case(), self.case()])
        assert repr(first.recovery) == repr(second.recovery)
        assert first.events == second.events

    @pytest.mark.slow
    def test_parallel_sweep_matches_serial(self):
        cases = [self.case(), self.case()]
        serial = run_cluster_sweep(cases, jobs=1)
        parallel = run_cluster_sweep(cases, jobs=2)
        assert [repr(r.recovery) for r in serial] == \
            [repr(r.recovery) for r in parallel]
        assert [r.events for r in serial] == \
            [r.events for r in parallel]
