"""Parallel sweep runner: bit-identity with the serial path.

The contract under test is the strongest one the runner makes: for any
sweep — plain, invariant-checked, or fault-injected — ``jobs=N``
returns results byte-for-byte equal (via the serialization layer) to
``jobs=1``.  Process pools are slow to spin up, so sims stay short.
"""

import pytest

from repro.check.differential import run_validation
from repro.faults import FaultConfig
from repro.harness import (JobSpec, RunConfig, SweepCase, run_sweep,
                           seed_sweep)
from repro.harness.serialize import result_to_dict

CONFIG = RunConfig(duration=0.8, warmup=0.2)
JOBS = (JobSpec.inference("bert_infer", load=0.5),
        JobSpec.training("whisper_train"))


def dicts(results):
    return [result_to_dict(r) for r in results]


class TestRunSweep:
    def test_parallel_matches_serial(self):
        cases = seed_sweep("Tally", JOBS, CONFIG, seeds=range(4))
        serial = run_sweep(cases, jobs=1)
        parallel = run_sweep(cases, jobs=4)
        assert dicts(serial) == dicts(parallel)

    @pytest.mark.slow
    def test_parallel_matches_serial_across_policies(self):
        cases = [SweepCase(policy=policy, jobs=JOBS, config=CONFIG)
                 for policy in ("Ideal", "Time-Slicing", "Tally")]
        assert dicts(run_sweep(cases, jobs=3)) == dicts(
            run_sweep(cases, jobs=1))

    @pytest.mark.slow
    def test_parallel_matches_serial_under_check(self):
        cases = seed_sweep("Tally", JOBS, CONFIG, seeds=range(2),
                           check=True)
        serial = run_sweep(cases, jobs=1)
        parallel = run_sweep(cases, jobs=2)
        assert dicts(serial) == dicts(parallel)
        assert all(r.invariant_checks > 0 for r in parallel)

    def test_parallel_matches_serial_under_faults(self):
        faults = FaultConfig(seed=3, drop=0.02, lost_ack=0.1)
        cases = seed_sweep("REEF", JOBS, CONFIG, seeds=range(2),
                           faults=faults)
        serial = run_sweep(cases, jobs=1)
        parallel = run_sweep(cases, jobs=2)
        assert dicts(serial) == dicts(parallel)
        assert [r.fault_counts for r in serial] == \
            [r.fault_counts for r in parallel]

    def test_parallel_matches_serial_with_warm_memo(self):
        """Workers warmed from the parent's transform-memo snapshot
        (the pool initializer) must stay bit-identical to serial."""
        import numpy as np

        from repro.ptx.library import case_names, make_case
        from repro.transform import TransformPipeline, transform_memo

        transform_memo().clear()
        try:
            pipeline = TransformPipeline(memo=transform_memo())
            for name in case_names():
                pipeline.sliced(
                    make_case(name, np.random.default_rng(0)).kernel)
            cases = seed_sweep("Tally", JOBS, CONFIG, seeds=range(2))
            serial = run_sweep(cases, jobs=1)
            parallel = run_sweep(cases, jobs=2)
        finally:
            transform_memo().clear()
        assert dicts(serial) == dicts(parallel)

    def test_drivers_are_stripped_on_both_paths(self):
        cases = seed_sweep("Tally", JOBS, CONFIG, seeds=range(2))
        for result in run_sweep(cases, jobs=1) + run_sweep(cases, jobs=2):
            assert result.drivers == {}

    def test_results_come_back_in_case_order(self):
        # Seeds give each case a distinct fingerprint; order must hold
        # even when a later (lighter) case finishes first.
        cases = seed_sweep("Tally", JOBS, CONFIG, seeds=(5, 1, 9))
        serial = run_sweep(cases, jobs=1)
        parallel = run_sweep(cases, jobs=3)
        assert [r.config.trace_seed for r in parallel] == [5, 1, 9]
        assert dicts(serial) == dicts(parallel)

    def test_single_case_runs_in_process(self):
        cases = seed_sweep("Tally", JOBS, CONFIG, seeds=(0,))
        assert len(run_sweep(cases, jobs=8)) == 1


class TestSeedSweep:
    def test_reseeds_traffic_trace_and_faults(self):
        faults = FaultConfig(seed=10, drop=0.1)
        cases = seed_sweep("Tally", JOBS, CONFIG, seeds=(0, 3),
                           faults=faults)
        assert [c.config.trace_seed for c in cases] == [0, 3]
        assert cases[0].jobs[0].traffic_seed != cases[1].jobs[0].traffic_seed
        # Co-located jobs within one case stay decorrelated.
        assert cases[1].jobs[0].traffic_seed != cases[1].jobs[1].traffic_seed
        assert cases[0].faults.seed == 10
        assert cases[1].faults.seed == 13
        assert cases[0].label == "seed 0"

    def test_cases_are_picklable(self):
        import pickle

        cases = seed_sweep("Tally", JOBS, CONFIG, seeds=(0,),
                           check=True, faults=FaultConfig(seed=1))
        assert pickle.loads(pickle.dumps(cases[0])) == cases[0]


class TestValidationJobs:
    def test_parallel_validation_is_identical(self):
        serial = run_validation(seeds=(0, 1), policies=("Tally", "REEF"))
        parallel = run_validation(seeds=(0, 1), policies=("Tally", "REEF"),
                                  jobs=2)
        assert serial.divergences == parallel.divergences
        assert serial.invariant_checks == parallel.invariant_checks
        assert serial.ok and parallel.ok
