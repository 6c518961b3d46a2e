"""Chaos matrix: every fault kind x every policy, checked and replayed.

Each cell runs a short co-location with the invariant checker enabled:
surviving the run *is* the assertion (the checker raises
InvariantViolation on any accounting breach during recovery).  Each
cell is then re-run with the same seed and must reproduce the same
fault counts and the same completions — determinism is what makes
chaos failures debuggable.
"""

import pytest

from repro.core import TallyConfig
from repro.faults import FaultConfig
from repro.harness import JobSpec, RunConfig, run_colocation
from repro.harness.colocate import POLICY_NAMES

FAULT_KINDS = {
    "crash": FaultConfig(seed=1, crash_at=1.0),
    "slot": FaultConfig(seed=1, slot_fault_rate=4.0),
    "lost_ack": FaultConfig(seed=1, lost_ack=0.5),
    "transform": FaultConfig(seed=1, transform_fail_rate=0.7),
    "everything": FaultConfig(seed=1, crash_at=1.0, slot_fault_rate=2.0,
                              lost_ack=0.3, transform_fail_rate=0.5),
}

CFG = RunConfig(
    duration=1.4, warmup=0.4,
    # faulted runs arm the watchdog so lost acks cannot wedge a policy
    tally_config=TallyConfig(preempt_deadline=200e-6),
)

JOBS = [JobSpec.inference("bert_infer", load=0.4),
        JobSpec.training("whisper_train")]


def run_cell(policy: str, faults: FaultConfig):
    return run_colocation(policy, JOBS, CFG, check=True, faults=faults)


@pytest.mark.slow
@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
def test_fault_matrix_survives_with_invariants(policy, kind):
    result = run_cell(policy, FAULT_KINDS[kind])
    assert result.invariant_checks > 0
    hp = result.job("bert_infer#0")
    assert hp.completed > 0  # the HP service kept serving throughout


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
def test_chaos_replays_bit_identically(kind):
    first = run_cell("Tally", FAULT_KINDS[kind])
    second = run_cell("Tally", FAULT_KINDS[kind])
    assert first.fault_counts == second.fault_counts
    assert ({c: j.completed for c, j in first.jobs.items()}
            == {c: j.completed for c, j in second.jobs.items()})
    hp1, hp2 = first.job("bert_infer#0"), second.job("bert_infer#0")
    assert hp1.latency is not None and hp2.latency is not None
    assert hp1.latency.p99 == hp2.latency.p99


@pytest.mark.slow
def test_different_seed_different_schedule():
    a = run_cell("Tally", FaultConfig(seed=1, lost_ack=0.5,
                                      slot_fault_rate=4.0))
    b = run_cell("Tally", FaultConfig(seed=2, lost_ack=0.5,
                                      slot_fault_rate=4.0))
    assert a.fault_counts != b.fault_counts


@pytest.mark.slow
def test_be_crash_leaves_hp_p99_within_ten_percent():
    """The acceptance bar: a dying BE job is invisible to the HP one."""
    cfg = RunConfig(duration=4.0, warmup=0.5,
                    tally_config=TallyConfig(preempt_deadline=200e-6))
    clean = run_colocation("Tally", JOBS, cfg, check=True)
    jobs = [JOBS[0], JobSpec.training("whisper_train", crash_at=2.0)]
    chaos = run_colocation("Tally", jobs, cfg, check=True,
                           faults=FaultConfig(seed=3, lost_ack=0.3))
    clean_p99 = clean.job("bert_infer#0").latency.p99
    chaos_p99 = chaos.job("bert_infer#0").latency.p99
    assert chaos_p99 <= clean_p99 * 1.10
    assert chaos.fault_counts.get("client_crash") == 1


@pytest.mark.slow
def test_chaos_cell_identical_with_warm_transform_memo():
    """Smoke: a warm process-wide memo never perturbs a chaos cell."""
    import numpy as np

    from repro.ptx.library import case_names, make_case
    from repro.transform import TransformPipeline, transform_memo

    transform_memo().clear()
    try:
        cold = run_cell("Tally", FAULT_KINDS["everything"])
        pipeline = TransformPipeline(memo=transform_memo())
        for name in case_names():
            pipeline.sliced(make_case(name, np.random.default_rng(0)).kernel)
        warm = run_cell("Tally", FAULT_KINDS["everything"])
    finally:
        transform_memo().clear()
    assert cold.fault_counts == warm.fault_counts
    assert ({c: j.completed for c, j in cold.jobs.items()}
            == {c: j.completed for c, j in warm.jobs.items()})


@pytest.mark.slow
def test_fault_free_run_unchanged_by_faults_machinery():
    """faults=None and a zero-rate config produce identical runs."""
    plain = run_colocation("Tally", JOBS, CFG, check=True)
    armed = run_colocation("Tally", JOBS, CFG, check=True,
                           faults=FaultConfig(seed=9))
    assert armed.fault_counts == {}
    assert ({c: j.completed for c, j in plain.jobs.items()}
            == {c: j.completed for c, j in armed.jobs.items()})
