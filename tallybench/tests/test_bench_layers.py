import cProfile
import os

import pytest

import layers
from child import PACKAGE

ROOT = "/x/src/repro"


def _modules():
    for dirpath, _dirs, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, PACKAGE).replace(os.sep, "/")


def test_every_module_maps_to_exactly_one_layer():
    modules = list(_modules())
    assert len(modules) > 50
    wrong = {m: layers.layers_of_module(m) for m in modules
             if len(layers.layers_of_module(m)) != 1}
    assert wrong == {}


def test_files_outside_the_package_are_python():
    assert layers.layer_of_file("/usr/lib/python3.11/heapq.py",
                                ROOT) == "python"
    assert layers.layer_of_file(ROOT + "/gpu/engine.py", ROOT) == "gpu.engine"
    assert layers.layer_of_file(ROOT + "/cli.py", ROOT) == "harness"


def test_builtin_self_time_is_charged_to_its_callers():
    device = (ROOT + "/gpu/device.py", 10, "step")
    policy = (ROOT + "/baselines/tgs.py", 5, "pick")
    stdlib = ("/usr/lib/python3.11/heapq.py", 1, "push")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        device: (1, 1, 0.5, 1.0, {}),
        policy: (2, 2, 0.2, 0.4, {}),
        stdlib: (4, 4, 0.05, 0.05, {device: (4, 4, 0.05, 0.05)}),
        # (nc, cc, tt, ct) per calling function
        builtin: (30, 30, 0.3, 0.3, {device: (10, 10, 0.1, 0.1),
                                     policy: (20, 20, 0.2, 0.2)}),
    }
    totals = layers.attribute(stats, ROOT)
    assert set(totals) == set(layers.LAYERS)
    assert totals["gpu.device"]["self_s"] == pytest.approx(0.6)
    assert totals["policy"]["self_s"] == pytest.approx(0.4)
    assert totals["python"]["self_s"] == pytest.approx(0.05)
    assert totals["gpu.device"]["calls"] == 11
    assert totals["policy"]["calls"] == 22
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(1.05)


def test_builtin_called_by_builtin_resolves_through_the_chain():
    device = (ROOT + "/gpu/device.py", 10, "step")
    outer = ("~", 0, "<built-in method builtins.sorted>")
    inner = ("~", 0, "<built-in method builtins.len>")
    loop = ("~", 0, "<built-in method builtins.iter>")
    stats = {
        device: (1, 1, 0.1, 0.4, {}),
        outer: (1, 1, 0.1, 0.3, {device: (1, 1, 0.1, 0.3)}),
        inner: (5, 5, 0.2, 0.2, {outer: (5, 5, 0.2, 0.2)}),
        # a cycle of builtins with no Python caller lands in python
        loop: (1, 1, 0.05, 0.05, {loop: (1, 1, 0.05, 0.05)}),
    }
    totals = layers.attribute(stats, ROOT)
    assert totals["gpu.device"]["self_s"] == pytest.approx(0.4)
    assert totals["python"]["self_s"] == pytest.approx(0.05)


def test_traced_colocation_accounts_for_its_time_and_never_instruments():
    from repro.harness import JobSpec, RunConfig, run_colocation

    config = RunConfig(duration=1.0, warmup=0.2)
    jobs = [JobSpec.inference("bert_infer", load=0.5),
            JobSpec.training("whisper_train")]
    profile = cProfile.Profile()
    profile.enable()
    result = run_colocation("Tally", jobs, config)
    profile.disable()
    profile.create_stats()
    totals = layers.attribute(profile.stats, PACKAGE)
    total_self = sum(t["self_s"] for t in totals.values())
    profiled = sum(entry[2] for entry in profile.stats.values())
    assert total_self == pytest.approx(profiled, rel=1e-6)
    assert totals["instrument"]["calls"] == 0
    for layer in ("gpu.engine", "gpu.device", "policy", "workloads"):
        assert totals[layer]["calls"] > 0, layer
    assert result.events > 0
