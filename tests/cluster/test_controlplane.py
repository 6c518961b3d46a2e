"""Tests for the online cluster control plane."""

import pytest

from repro.check import InvariantViolation, ServiceLedger, \
    check_request_conservation
from repro.cluster import (
    ClusterCase,
    ClusterJob,
    packed_placement,
    run_cluster_sweep,
    run_controlplane,
    schedule_arrivals,
)
from repro.errors import HarnessError
from repro.faults import FaultConfig
from repro.harness import RunConfig

CFG = RunConfig(duration=3.0, warmup=0.5)


def fleet():
    return [
        ClusterJob("bert_infer", load=0.3, traffic_seed=0),
        ClusterJob("resnet50_infer", load=0.2, traffic_seed=1),
        ClusterJob("pointnet_train", traffic_seed=2),
        ClusterJob("resnet50_train", traffic_seed=3),
    ]


class TestConservationCheck:
    def test_balanced_ledger_passes(self):
        audited = check_request_conservation([
            ServiceLedger("a#0", arrivals=10, completed=7, pending=2,
                          shed=1),
        ])
        assert audited == 1

    def test_lost_request_detected(self):
        with pytest.raises(InvariantViolation, match="1 request\\(s\\) lost"):
            check_request_conservation([
                ServiceLedger("a#0", arrivals=10, completed=7, pending=1,
                              shed=1),
            ])

    def test_double_execution_detected(self):
        with pytest.raises(InvariantViolation, match="double-counted"):
            check_request_conservation([
                ServiceLedger("a#0", arrivals=10, completed=11, pending=0,
                              shed=0),
            ])

    def test_all_imbalances_reported_together(self):
        with pytest.raises(InvariantViolation) as err:
            check_request_conservation([
                ServiceLedger("a#0", arrivals=5, completed=4, pending=0,
                              shed=0),
                ServiceLedger("b#0", arrivals=5, completed=5, pending=0,
                              shed=0),
                ServiceLedger("c#0", arrivals=5, completed=-1, pending=0,
                              shed=0),
            ])
        assert "a#0" in str(err.value)
        assert "c#0" in str(err.value)
        assert "b#0" not in str(err.value)


class TestArrivals:
    def test_seeded_and_monotonic(self):
        times = schedule_arrivals(20, 4.0, seed=3)
        assert times == schedule_arrivals(20, 4.0, seed=3)
        assert times != schedule_arrivals(20, 4.0, seed=4)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_bad_rate_rejected(self):
        with pytest.raises(HarnessError):
            schedule_arrivals(3, 0.0)


class TestControlPlaneBasics:
    def test_needs_placement_or_jobs(self):
        with pytest.raises(HarnessError):
            run_controlplane(jobs=fleet())

    def test_fail_device_validated(self):
        with pytest.raises(HarnessError, match="outside"):
            run_controlplane(jobs=fleet(), devices=2, config=CFG,
                             fail_device=((7, 1.0),))
        with pytest.raises(HarnessError, match="outside the run"):
            run_controlplane(jobs=fleet(), devices=2, config=CFG,
                             fail_device=((0, 99.0),))

    def test_drain_time_validated(self):
        with pytest.raises(HarnessError,
                           match=r"drain time -0.5 for device 0 outside"):
            run_controlplane(jobs=fleet(), devices=2, config=CFG,
                             drain=((0, -0.5),))
        with pytest.raises(HarnessError,
                           match=r"drain time 3.0 for device 1 outside"):
            run_controlplane(jobs=fleet(), devices=2, config=CFG,
                             drain=((1, CFG.duration),))

    @pytest.mark.slow
    def test_fault_free_run_matches_static_expectations(self):
        placement = packed_placement(fleet(), compute_budget=1.5)
        result = run_controlplane(placement=placement, config=CFG,
                                  check=True)
        assert result.gpus_used == placement.gpus_used
        assert result.sla_violations == 0
        assert len(result.services) == 2
        assert result.recovery is not None
        assert result.recovery.migrations == 0
        assert result.recovery.requests_shed == 0
        assert result.invariant_checks > 0

    @pytest.mark.slow
    def test_online_admission_places_every_job_when_room(self):
        result = run_controlplane(jobs=fleet(), devices=4, config=CFG,
                                  arrival_rate=8.0, check=True)
        assert result.recovery.jobs_shed == 0
        assert result.recovery.jobs_evicted == 0
        assert result.total_normalized_throughput > 0

    def test_backpressure_sheds_beyond_queue_limit(self):
        # 8 latency-critical services into one device: one admitted
        # (HP exclusivity), a bounded queue, the rest shed.
        jobs = [ClusterJob("bert_infer", load=0.3, traffic_seed=i)
                for i in range(8)]
        result = run_controlplane(jobs=jobs, devices=1, config=CFG,
                                  arrival_rate=50.0, admission_limit=3,
                                  check=True)
        assert result.recovery.jobs_shed == 4  # 8 - 1 admitted - 3 queued


class TestFailover:
    def placement(self):
        return packed_placement(fleet(), compute_budget=1.5)

    @pytest.mark.slow
    def test_crash_migrates_hp_tenant_to_spare(self):
        placement = self.placement()
        # Crash every packed device once, at t=1; spares absorb them.
        result = run_controlplane(
            placement=placement, devices=placement.gpus_used + 2,
            config=CFG, fail_device=((0, 1.0),), check=True)
        recovery = result.recovery
        assert recovery.migrations >= 1
        assert recovery.mttr > 0
        migrated = [s for s in recovery.services if s.migrations > 0]
        crashed_hp = [j for j in placement.bins[0] if j.latency_critical]
        assert len(migrated) == len(crashed_hp)
        for service in migrated:
            assert service.downtime > 0
            assert not service.evicted
            # the post-recovery attainment is reported for migrated HPs
            assert service.post_recovery_attainment == \
                service.post_recovery_attainment  # not NaN
        assert recovery.requests_shed == 0  # nothing lost in migration

    def test_no_capacity_evicts_and_counts_shed_requests(self):
        jobs = [ClusterJob("bert_infer", load=0.3, traffic_seed=0)]
        result = run_controlplane(jobs=jobs, devices=1, config=CFG,
                                  fail_device=((0, 1.0),), check=True)
        recovery = result.recovery
        assert recovery.jobs_evicted == 1
        service = recovery.service("bert_infer#0")
        assert service.evicted
        # its queued/in-flight work at the crash is explicitly shed
        assert recovery.requests_shed >= 0
        assert result.services[0].p99_ratio > 0

    @pytest.mark.slow
    def test_repack_displaces_best_effort_for_hp(self):
        # Device 1 is full of best-effort work; when device 0 dies, the
        # HP tenant must displace it rather than be evicted.
        jobs = [ClusterJob("bert_infer", load=0.5, traffic_seed=0),
                ClusterJob("resnet50_train", traffic_seed=1),
                ClusterJob("pointnet_train", traffic_seed=2)]
        from repro.cluster import Placement
        placement = Placement(bins=[[jobs[0]], [jobs[1], jobs[2]]])
        result = run_controlplane(placement=placement, config=CFG,
                                  fail_device=((0, 1.0),), check=True,
                                  compute_budget=1.25)
        recovery = result.recovery
        hp = recovery.service("bert_infer#0")
        assert not hp.evicted
        assert hp.migrations == 1

    @pytest.mark.slow
    def test_graceful_departure_frees_capacity(self):
        jobs = [ClusterJob("bert_infer", load=0.3, traffic_seed=0,
                           depart_at=1.0),
                ClusterJob("resnet50_infer", load=0.3, traffic_seed=1)]
        # One device, HP exclusivity: the second service can only be
        # admitted from the queue after the first departs.
        result = run_controlplane(jobs=jobs, devices=1, config=CFG,
                                  arrival_rate=100.0, check=True)
        assert result.recovery.jobs_shed == 0
        assert result.recovery.jobs_evicted == 0
        assert len(result.services) == 2


class TestDeterminism:
    def case(self, **overrides):
        placement = packed_placement(fleet(), compute_budget=1.5)
        kwargs = dict(placement=placement,
                      devices=placement.gpus_used + 1, config=CFG,
                      fail_device=((0, 1.0),), check=True)
        kwargs.update(overrides)
        return run_controlplane(**kwargs)

    @pytest.mark.slow
    def test_fixed_seed_failover_is_bit_identical(self):
        first, second = self.case(), self.case()
        # repr-compare: NaN fields (post-recovery attainment of tenants
        # that never migrated) are reproduced but compare != by IEEE.
        assert repr(first.services) == repr(second.services)
        assert repr(first.recovery) == repr(second.recovery)
        assert first.total_normalized_throughput == \
            second.total_normalized_throughput
        assert first.events == second.events
        assert first.invariant_checks == second.invariant_checks

    def test_device_fault_schedule_independent_per_device(self):
        from repro.faults import FaultInjector

        cfg = FaultConfig(seed=5, device_crash_rate=0.4,
                          device_degraded_rate=0.6, device_flap_rate=0.4)
        schedule = FaultInjector(cfg).device_fault_schedule(1, 4.0)
        # enabling an unrelated fault kind must not shift the schedule
        cfg2 = FaultConfig(seed=5, device_crash_rate=0.4,
                           device_degraded_rate=0.6, device_flap_rate=0.4,
                           slot_fault_rate=3.0)
        assert FaultInjector(cfg2).device_fault_schedule(1, 4.0) == schedule

    @pytest.mark.slow
    def test_parallel_sweep_matches_serial(self):
        faults = FaultConfig(seed=2, device_crash_rate=0.25,
                             device_degraded_rate=0.4)
        cases = [ClusterCase(jobs=tuple(fleet()), devices=3, policy=p,
                             config=CFG, faults=faults, arrival_rate=4.0,
                             check=True)
                 for p in ("Tally", "Time-Slicing")]
        serial = run_cluster_sweep(cases, jobs=1)
        parallel = run_cluster_sweep(cases, jobs=2)
        assert [repr(r.recovery) for r in serial] == \
            [repr(r.recovery) for r in parallel]
        assert [r.events for r in serial] == [r.events for r in parallel]
        assert [r.total_normalized_throughput for r in serial] == \
            [r.total_normalized_throughput for r in parallel]
