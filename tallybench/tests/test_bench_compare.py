import json

import pytest

import run
from compare import compare, verdict
from metrics import bounds, summarise


def _summary(values):
    return summarise(list(values))


def _result(wall=(10.0, 10.1, 9.9), overhead=0.05, failed=0.0,
            events=1000, setup=(0.40, 0.41, 0.39)):
    metrics = {
        "wall_ratio": _summary(wall),
        "setup_s": _summary(setup),
        "peak_rss_mb": _summary([45.0, 45.0, 45.1]),
        "failed_runs": _summary([failed]),
        "hp_p99_overhead": _summary([overhead] * 3),
        "sim.events": _summary([events] * 3),
    }
    return {"workloads": {"fig4_tally": metrics}}


def _verdicts(a, b):
    return {(r.workload, r.name): r.verdict
            for r in compare(a, b, bounds())}


def _compare_files(tmp_path, a, b):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    return run.main(["compare", str(pa), str(pb)])


def test_bounds_come_from_benchmark_json():
    declared = bounds()
    assert 0 < declared["wall_ratio"] <= 0.25
    assert declared["setup_s"] >= declared["wall_ratio"]
    assert declared["failed_runs"] == 0
    assert declared["hp_p99_overhead"] == 0


def test_identical_files_are_unchanged(tmp_path, capsys):
    assert _compare_files(tmp_path, _result(), _result()) == 0
    assert set(_verdicts(_result(), _result()).values()) == {"unchanged"}
    out = capsys.readouterr().out
    assert "wall_ratio" in out and "hp_p99_overhead" in out


def test_slower_wall_beyond_the_bound_is_worse(tmp_path):
    slow = _result(wall=(14.0, 14.1, 13.9))
    assert _verdicts(_result(), slow)[("fig4_tally", "wall_ratio")] == "worse"
    assert _compare_files(tmp_path, _result(), slow) == 1


def test_faster_wall_beyond_the_spread_is_better(tmp_path):
    fast = _result(wall=(8.0, 8.1, 7.9))
    assert _verdicts(_result(), fast)[("fig4_tally", "wall_ratio")] == "better"
    assert _compare_files(tmp_path, _result(), fast) == 0


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = _result(wall=(6.0, 10.0, 16.0))
    assert _verdicts(_result(), noisy)[("fig4_tally", "wall_ratio")] == \
        "unresolved"


def test_any_change_to_a_simulated_metric_counts(tmp_path):
    worse = _result(overhead=0.050001)
    better = _result(overhead=0.04)
    assert _verdicts(_result(), worse)[("fig4_tally",
                                        "hp_p99_overhead")] == "worse"
    assert _verdicts(_result(), better)[("fig4_tally",
                                         "hp_p99_overhead")] == "better"
    assert _compare_files(tmp_path, _result(), worse) == 1


def test_more_failed_runs_fail_the_comparison(tmp_path):
    failing = _result(failed=1 / 3)
    assert _verdicts(_result(), failing)[("fig4_tally",
                                          "failed_runs")] == "worse"
    assert _compare_files(tmp_path, _result(), failing) == 1


def test_event_count_changes_show_without_failing(tmp_path):
    fewer = _result(events=900)
    assert _verdicts(_result(), fewer)[("fig4_tally", "sim.events")] == \
        "changed"
    assert _compare_files(tmp_path, _result(), fewer) == 0


@pytest.mark.parametrize("name,a,b,expected", [
    ("be_norm_tput", [0.5], [0.4], "worse"),
    ("be_norm_tput", [0.5], [0.6], "better"),
    ("setup_s", [0.40, 0.41, 0.42], [0.45, 0.46, 0.47], "unchanged"),
])
def test_direction_follows_the_metric(name, a, b, expected):
    assert verdict(name, bounds()[name], _summary(a), _summary(b)) == expected
