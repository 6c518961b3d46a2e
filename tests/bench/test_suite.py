"""Smoke-run the real benchmark suite and the ``repro-bench`` CLI.

The smoke scale exists precisely so CI (and this test) can execute the
same code paths as a full perf run in a few seconds.
"""

import json

import pytest

from repro.bench.cli import main
from repro.bench.harness import SCHEMA, run_suite
from repro.bench.macro import MACRO_BENCHMARKS
from repro.bench.micro import MICRO_BENCHMARKS


class TestSmokeSuite:
    def test_micro_suite_runs_at_smoke_scale(self):
        report = run_suite(MICRO_BENCHMARKS, "smoke")
        names = [b.name for b in report.benchmarks]
        assert "micro.event_loop" in names
        assert "micro.device_dispatch" in names
        assert "micro.transform_pipeline" in names
        for bench in report.benchmarks:
            assert bench.wall_s > 0
            assert bench.events > 0 or bench.extra

    @pytest.mark.slow
    def test_macro_suite_runs_at_smoke_scale(self):
        report = run_suite(MACRO_BENCHMARKS, "smoke")
        fig4 = report.result("macro.colocation_fig4")
        assert fig4.events > 0
        assert fig4.events_per_s > 0
        assert fig4.extra["simulated_s"] > 0
        cluster = report.result("macro.cluster_sweep")
        assert cluster.events > 0


class TestCli:
    def test_run_writes_trajectory_and_compare_gates(self, tmp_path,
                                                     capsys):
        out = str(tmp_path / "BENCH_simulator.json")
        assert main(["run", "--scale", "smoke", "--only", "micro",
                     "--append", "--out", out, "--label", "first"]) == 0
        captured = capsys.readouterr().out
        assert "repro-bench [smoke]" in captured
        assert "appended entry #1" in captured
        with open(out, encoding="utf-8") as fh:
            entries = json.load(fh)
        assert len(entries) == 1
        assert entries[0]["schema"] == SCHEMA
        assert entries[0]["label"] == "first"

        # The gate passes against itself...
        assert main(["compare", out, "--current", out]) == 0
        assert "perf gate OK" in capsys.readouterr().out
        # ...and fails against an inflated baseline.
        inflated = [dict(entries[0])]
        inflated[0] = json.loads(json.dumps(entries[0]))
        for bench in inflated[0]["benchmarks"]:
            bench["events"] = bench["events"] * 100 + 100
            bench["events_per_s"] = bench["events_per_s"] * 100 + 100
        baseline = str(tmp_path / "baseline.json")
        with open(baseline, "w", encoding="utf-8") as fh:
            json.dump(inflated, fh)
        assert main(["compare", baseline, "--current", out]) == 1
        assert "FAILED" in capsys.readouterr().out
