"""Tests for cluster-consolidation evaluation: a placement evaluated on
the control plane (``run_controlplane(placement=...)``)."""

import pytest

from repro.cluster import (
    ClusterJob,
    Placement,
    dedicated_placement,
    packed_placement,
    run_controlplane,
)
from repro.errors import HarnessError
from repro.harness import RunConfig

CFG = RunConfig(duration=3.0, warmup=0.5)


def evaluate(placement, policy="Tally"):
    return run_controlplane(placement=placement, policy=policy, config=CFG)


@pytest.fixture(scope="module")
def small_fleet():
    return [
        ClusterJob("resnet50_infer", load=0.15, traffic_seed=0),
        ClusterJob("bert_infer", load=0.15, traffic_seed=1),
        ClusterJob("pointnet_train"),
        ClusterJob("resnet50_train"),
    ]


class TestEvaluatePlacement:
    @pytest.mark.slow
    def test_dedicated_meets_sla_trivially(self, small_fleet):
        result = evaluate(dedicated_placement(small_fleet))
        assert result.gpus_used == 4
        assert result.sla_violations == 0
        assert len(result.services) == 2

    @pytest.mark.slow
    def test_packed_uses_fewer_gpus(self, small_fleet):
        packed = packed_placement(small_fleet, compute_budget=1.5)
        assert packed.gpus_used < len(small_fleet)
        result = evaluate(packed)
        assert result.gpus_used == packed.gpus_used
        assert result.sla_violations == 0, (
            f"worst p99 {result.worst_p99_ratio:.2f}x"
        )

    @pytest.mark.slow
    def test_throughput_accounts_all_jobs(self, small_fleet):
        result = evaluate(dedicated_placement(small_fleet))
        # Each isolated job runs at ~1.0 normalized throughput.
        assert result.total_normalized_throughput == pytest.approx(
            len(small_fleet), abs=0.8)

    def test_offline_services_not_counted_as_sla(self):
        jobs = [ClusterJob("resnet50_infer", load=0.1, traffic_seed=0),
                ClusterJob("resnet50_infer", load=0.1, offline=True,
                           traffic_seed=1)]
        placement = packed_placement(jobs)
        result = evaluate(placement)
        assert len(result.services) == 1  # only the online service

    def test_duplicate_models_mapped_correctly(self):
        jobs = [ClusterJob("resnet50_infer", load=0.1, traffic_seed=0),
                ClusterJob("resnet50_infer", load=0.1, offline=True,
                           traffic_seed=1),
                ClusterJob("resnet50_infer", load=0.1, offline=True,
                           traffic_seed=2)]
        placement = Placement(bins=[list(jobs)])
        result = evaluate(placement)
        assert result.gpus_used == 1
        assert len(result.services) == 1

    def test_empty_placement_rejected(self):
        with pytest.raises(HarnessError):
            evaluate(Placement(bins=[]))

    @pytest.mark.slow
    def test_mps_packing_violates_sla_where_tally_does_not(self):
        """The cluster-level version of the paper's thesis."""
        jobs = [ClusterJob("bert_infer", load=0.3, sla_factor=1.25,
                           traffic_seed=0),
                ClusterJob("gpt2_train")]
        placement = packed_placement(jobs, compute_budget=2.0)
        assert placement.gpus_used == 1
        tally = evaluate(placement)
        mps = evaluate(placement, "MPS")
        assert tally.sla_violations == 0
        assert mps.sla_violations >= 1


class TestTailP99:
    def test_zero_completion_service_reports_inf_not_error(self):
        """A service killed before completing anything is an SLA
        violation (p99_ratio = inf), not a harness crash."""
        from repro.cluster.simulate import _tail_p99
        from repro.faults import FaultConfig
        from repro.harness import JobSpec, run_colocation

        spec = JobSpec.inference("bert_infer", load=0.2, crash_at=0.2)
        result = run_colocation("Tally", [spec], CFG,
                                faults=FaultConfig(seed=0))
        job = result.job("bert_infer#0")
        assert job.latency is None  # crashed before the window opened
        assert _tail_p99(job) == float("inf")

    def test_inf_ratio_is_an_unconditional_sla_violation(self):
        from repro.cluster import ServiceOutcome

        outcome = ServiceOutcome(model="bert_infer", gpu=0,
                                 p99_ratio=float("inf"), sla_factor=1.25)
        assert not outcome.meets_sla
