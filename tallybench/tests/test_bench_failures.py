import json

import pytest

import child
import run


def _record(workload="fig4_tally", *, overhead=0.01, digest="d0",
            migrations=1, traced=False, seed=0):
    sim = {"hp_p99_overhead": overhead, "sim.events": 100}
    if workload in ("cluster_failover", "cluster_sharded"):
        sim["cluster.migrations"] = migrations
    return {"workload": workload, "seed": seed, "ok": True, "traced": traced,
            "setup_s": 0.4, "wall_s": 2.0,
            "peak_rss_mb": 45.0, "sim": sim, "digest": digest,
            "phases": {"phase.standalone_s": 1.0, "phase.colocate_s": 1.0}}


def _failed(records):
    run.check({records[0]["workload"]: records})
    return run.summarise_workload(records)["failed_runs"]["median"]


def test_a_raising_entry_point_is_a_failed_repetition(tmp_path, monkeypatch):
    import repro.harness

    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(repro.harness, "standalone", boom)
    monkeypatch.chdir(tmp_path)
    assert child.main(["fig4_tally", "0", "--spawned-at", "0"]) == 0
    with open(tmp_path / "result.json", encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["ok"] is False
    assert "injected failure" in record["error"]
    records = [_record(), record]
    assert _failed(records) == 0.5
    assert records[1]["failures"] == ["RuntimeError: injected failure"]


def test_a_child_past_its_timeout_is_killed_and_failed():
    record = run.run_child("fig4_tally", 0, timeout=1.0)
    assert record["ok"] is False
    assert "timed out" in record["error"]


def test_repetitions_of_one_seed_must_agree():
    records = [_record(), _record(), _record(overhead=0.02)]
    assert _failed(records) == pytest.approx(1 / 3)
    records = [_record(), _record(digest="d1")]
    assert _failed(records) == 0.5


def test_input_draws_are_checked_against_their_own_seed():
    records = [_record(), _record(), _record(overhead=0.02, seed=1000),
               _record(overhead=0.02, seed=1000), _record(seed=1000)]
    assert _failed(records) == pytest.approx(1 / 5)
    assert records[4]["failures"]


def test_single_workload_runs_repeat_the_first_draw(monkeypatch):
    seeds = []

    def fake_child(workload, seed, **kwargs):
        seeds.append(seed)
        return _record(workload, seed=seed)

    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run, "reference", lambda: 0.5)
    assert run.main(["--workload", "fig4_tally", "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 0
    assert seeds == [3, 3]


def test_wall_ratio_divides_by_the_reference_around_each_child(monkeypatch):
    references = iter([1.0, 3.0, 2.0, 4.0, 6.0])
    monkeypatch.setattr(run, "reference", lambda: next(references))
    monkeypatch.setattr(run, "run_child", lambda workload, seed, **kw:
                        _record(workload, traced=kw.get("traced", False)))
    runner = run.Runner()
    first, second = runner.child("fig4_tally", 0), runner.child("fig4_tally", 0)
    assert first["wall_ratio"] == 2.0 / 2.0  # references 1 and 3
    assert second["wall_ratio"] == 2.0 / 2.5  # 3, shared, and 2
    assert "wall_ratio" not in runner.child("fig4_tally", 0, traced=True)
    assert runner.child("fig4_tally", 0)["wall_ratio"] == 2.0 / 5.0


def test_a_cluster_run_without_migration_fails():
    records = [_record("cluster_failover", migrations=0)]
    assert _failed(records) == 1.0


def test_serial_and_parallel_cluster_results_must_match():
    by_workload = {"cluster_failover": [_record("cluster_failover")],
                   "cluster_sharded": [_record("cluster_sharded",
                                               digest="other")]}
    run.check(by_workload)
    assert by_workload["cluster_failover"][0]["failures"] == []
    assert by_workload["cluster_sharded"][0]["failures"]


def test_tally_must_isolate_better_than_tgs():
    by_workload = {"fig4_tally": [_record(overhead=3.0)],
                   "fig4_tgs": [_record("fig4_tgs", overhead=2.0)]}
    run.check(by_workload)
    assert by_workload["fig4_tally"][0]["failures"]
    assert by_workload["fig4_tgs"][0]["failures"] == []
