"""Invariant checking through the colocation harness and CLI plumbing.

The acceptance bar for ``repro.check``: the full colocation harness —
Tally plus every baseline — runs with checks enabled and zero
violations, while a seeded accounting mutation surfaces as an
:class:`~repro.errors.InvariantViolation` through the same path.
"""

import pytest

from repro.check import InvariantChecker
from repro.cli import build_parser, main
from repro.errors import InvariantViolation
from repro.gpu import GPUDevice
from repro.harness import JobSpec, RunConfig, run_colocation
from repro.harness.colocate import POLICY_NAMES

CONFIG = RunConfig(duration=2.0, warmup=0.5)
JOBS = [JobSpec.inference("bert_infer", load=0.4),
        JobSpec.training("resnet50_train")]


class TestHarnessChecked:
    @pytest.mark.slow
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_every_policy_runs_clean_under_checks(self, policy):
        result = run_colocation(policy, JOBS, CONFIG, check=True)
        assert result.invariant_checks > 0
        assert result.jobs  # the run produced metrics, not just checks

    @pytest.mark.slow
    def test_unchecked_run_reports_zero_checks(self):
        result = run_colocation("MPS", JOBS, CONFIG)
        assert result.invariant_checks == 0

    @pytest.mark.slow
    def test_caller_supplied_checker_is_used(self):
        checker = InvariantChecker()
        result = run_colocation("Tally", JOBS, CONFIG, check=checker)
        assert result.invariant_checks == checker.checks_run > 0
        assert checker.violations == []

    def test_seeded_mutation_is_caught_through_harness(self, monkeypatch):
        original = GPUDevice._release
        calls = {"n": 0}

        def leaky(self, launch, count, threads):
            calls["n"] += 1
            if calls["n"] == 50:  # mid-run leak, not at the start
                return
            original(self, launch, count, threads)

        monkeypatch.setattr(GPUDevice, "_release", leaky)
        with pytest.raises(InvariantViolation):
            run_colocation("Tally", JOBS, CONFIG, check=True)

    def test_mutation_unnoticed_without_checks(self, monkeypatch):
        """The same leak sails through unchecked — why the checker exists."""
        original = GPUDevice._release
        calls = {"n": 0}

        def leaky(self, launch, count, threads):
            calls["n"] += 1
            if calls["n"] == 50:
                return
            original(self, launch, count, threads)

        monkeypatch.setattr(GPUDevice, "_release", leaky)
        result = run_colocation("Tally", JOBS, CONFIG)  # no exception
        assert result.jobs


class TestCliFlag:
    def test_check_flag_parses(self):
        parser = build_parser()
        assert parser.parse_args(["colocate", "--check"]).check is True
        assert parser.parse_args(["colocate"]).check is False
        assert parser.parse_args(["cluster", "--check"]).check is True

    @pytest.mark.slow
    def test_colocate_check_runs(self, capsys):
        assert main(["colocate", "--duration", "2", "--warmup", "0.5",
                     "--check"]) == 0
        out = capsys.readouterr().out
        assert "invariant checks" in out
        assert "0 violations" in out
