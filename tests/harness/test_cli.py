"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("list", "table1", "table2", "fig4", "fig5a",
                        "fig5b", "fig6a", "fig6b", "fig6c", "colocate"):
            args = parser.parse_args(
                [command] if command != "colocate" else [command])
            assert args.command == command

    def test_scale_choices(self):
        parser = build_parser()
        assert parser.parse_args(["fig4", "--scale", "full"]).scale == "full"
        with pytest.raises(SystemExit):
            parser.parse_args(["fig4", "--scale", "huge"])

    def test_colocate_defaults(self):
        args = build_parser().parse_args(["colocate"])
        assert args.policy == "Tally"
        assert args.load == 0.5

    def test_colocate_model_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["colocate", "--inference", "vgg"])

    def test_jobs_and_seeds_flags(self):
        parser = build_parser()
        args = parser.parse_args(["colocate", "--seeds", "4", "--jobs", "2"])
        assert args.seeds == 4 and args.jobs == 2
        assert parser.parse_args(["colocate"]).jobs == 1

    @pytest.mark.parametrize("command", ["cluster", "storm"])
    def test_parallel_shards_must_be_positive(self, command, capsys):
        parser = build_parser()
        assert parser.parse_args(
            [command, "--parallel-shards", "2"]).parallel_shards == 2
        assert parser.parse_args([command]).parallel_shards is None
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--parallel-shards", bad])
            assert "must be >= 1" in capsys.readouterr().err


class TestExecution:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bert_infer" in out
        assert "whisper_train" in out

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "block-level" in out

    def test_colocate_runs_small(self, capsys):
        assert main([
            "colocate", "--inference", "resnet50_infer",
            "--training", "pointnet_train", "--policy", "Tally",
            "--load", "0.2", "--duration", "2", "--warmup", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "inference p99" in out
        assert "system throughput" in out

    @pytest.mark.slow
    def test_cluster_runs_one_table(self, capsys):
        """The plain ``repro cluster``: the packed placement on the
        control plane, checked, in one table."""
        assert main(["cluster", "--duration", "2", "--check"]) == 0
        out = capsys.readouterr().out
        assert out.count("Cluster consolidation under Tally") == 1
        rows = {line.split("  ")[0]: line.split()
                for line in out.splitlines()}
        assert rows["GPUs, dedicated"][2] == "13"
        assert rows["GPUs, Tally-packed"][2:5] == ["6", "54%", "saved"]
        assert rows["SLA violations"][2] == "0"
        assert int(rows["invariant checks"][2]) > 0
        assert "0 violations" in out

    def test_colocate_seed_sweep_runs(self, capsys):
        assert main([
            "colocate", "--inference", "resnet50_infer",
            "--training", "pointnet_train", "--policy", "Tally",
            "--load", "0.2", "--duration", "1", "--warmup", "0.2",
            "--seeds", "2", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 seeds" in out
        assert "seed 0" in out and "seed 1" in out
        assert "mean" in out
