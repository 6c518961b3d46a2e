"""Every ``FaultConfig`` knob is honoured or rejected.

An entry point built with a fault kind must either refuse it with a
:class:`~repro.errors.HarnessError` or, at a high rate, report a
nonzero count of that kind: a knob that is accepted and injects
nothing would let a chaos run pass without any chaos.  The entry
points are a single-GPU co-location, the cluster control plane and a
functional ``TallyServer`` session, all under Tally.
"""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterJob, run_controlplane
from repro.core import (ExecMode, ExecPlan, TallyConfig, TallyServer,
                        connect_runtime)
from repro.errors import FaultError, HarnessError, VirtError
from repro.faults import HONOURED, FaultConfig, FaultInjector
from repro.harness import JobSpec, RunConfig, run_colocation
from repro.ptx.library import vector_add
from repro.runtime import FatBinary

#: fault kind -> (a high setting, the fault-count key it reports under;
#: channel kinds count per direction, flapping as degrade windows)
KINDS = {
    "drop": (0.3, "_drop"),
    "duplicate": (0.5, "_duplicate"),
    "corrupt": (0.3, "_corrupt"),
    "delay": (0.5, "_delay"),
    "crash_after_calls": (3, "client_crash"),
    "kernel_fault": (0.5, "kernel_fault"),
    "transform_fail_rate": (1.0, "transform_fault"),
    "lost_ack": (1.0, "lost_ack"),
    "slot_fault_rate": (20.0, "slot_fault"),
    "crash_at": (0.6, "client_crash"),
    "device_crash_rate": (5.0, "device_crash"),
    "device_degraded_rate": (5.0, "device_degrade"),
    "device_flap_rate": (5.0, "device_degrade"),
}

#: more than one simulated second; the watchdog keeps lost acks from
#: wedging Tally
CONFIG = RunConfig(duration=1.2, warmup=0.2,
                   tally_config=TallyConfig(preempt_deadline=200e-6))


def _colocation(faults):
    jobs = [JobSpec.inference("bert_infer", load=0.5),
            JobSpec.training("whisper_train")]
    return run_colocation("Tally", jobs, CONFIG, faults=faults).fault_counts


def _controlplane(faults):
    jobs = [ClusterJob("bert_infer", load=0.3, traffic_seed=0),
            ClusterJob("whisper_train", traffic_seed=1),
            ClusterJob("resnet50_train", traffic_seed=2)]
    return run_controlplane(jobs=jobs, devices=3, config=CONFIG,
                            faults=faults).recovery.device_faults


def _server_session(faults):
    """A best-effort client calling PTB-transformed kernels; each
    launch is a burst of protocol calls."""
    injector = FaultInjector(faults)
    server = TallyServer(best_effort_plan=ExecPlan(ExecMode.PTB),
                         faults=injector)
    n = 64
    x = np.arange(n, dtype=np.float64)
    try:
        rt = connect_runtime(server, "c")
        rt.register_fat_binary(FatBinary.of("bin", [vector_add()]))
        bx, out = rt.malloc(n * 8), rt.malloc(n * 8)
        rt.memcpy_h2d(bx, x)
        for _ in range(20):
            try:
                rt.launch_kernel("vector_add", (4,), (16,),
                                 {"x": bx, "y": bx, "out": out, "n": n})
            except VirtError:
                pass  # an injected kernel fault fails this launch only
    except FaultError:
        pass  # a crashed client or an exhausted retry ends the session
    return injector.injected


ENTRY_POINTS = {
    "run_colocation": _colocation,
    "ClusterController": _controlplane,
    "TallyServer": _server_session,
}


@pytest.mark.filterwarnings("ignore::repro.errors.TransformFallback")
@settings(max_examples=40, deadline=None)
@given(entry=st.sampled_from(sorted(ENTRY_POINTS)),
       kind=st.sampled_from(sorted(KINDS)),
       seed=st.integers(0, 2**16))
def test_a_fault_kind_is_honoured_or_rejected(entry, kind, seed):
    value, key = KINDS[kind]
    faults = FaultConfig(seed=seed, **{kind: value})
    try:
        counts = ENTRY_POINTS[entry](faults)
    except HarnessError as exc:
        assert kind not in HONOURED[entry]
        assert f"{kind}=" in str(exc) and entry in str(exc)
        return
    assert kind in HONOURED[entry]
    assert sum(n for k, n in counts.items() if k.endswith(key)) > 0, counts


def test_every_field_but_the_seed_is_honoured_somewhere():
    names = {f.name for f in fields(FaultConfig)} - {"seed"}
    assert set().union(*HONOURED.values()) == names
    assert set(KINDS) <= names


def test_a_parameter_of_an_unhonoured_kind_is_rejected():
    with pytest.raises(HarnessError, match=r"flap_period=0\.1 \(honoured "
                                           r"by ClusterController\)"):
        _colocation(FaultConfig(flap_period=0.1))
    with pytest.raises(HarnessError, match="delay_time"):
        _controlplane(FaultConfig(delay_time=1e-3))


def test_the_documented_table_matches():
    """``docs/fault_tolerance.md``'s "Honoured by" column is the table."""
    doc = Path(__file__).resolve().parents[2] / "docs" / "fault_tolerance.md"
    documented: dict[str, set[str]] = {}
    for line in doc.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) != 5 or not cells[1].startswith("`"):
            continue
        for knob in re.findall(r"`(\w+)`", cells[1]):
            if knob in {f.name for f in fields(FaultConfig)}:
                documented[knob] = set(re.findall(r"`(\w+)`", cells[2]))
    actual = {name: {e for e, names in HONOURED.items() if name in names}
              for name in set().union(*HONOURED.values())}
    assert documented == actual
