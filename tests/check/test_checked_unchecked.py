"""Checked runs equal unchecked ones: an oracle with no patched seam.

The invariant checker audits the device after every event and only
reads it, so a run with ``check=True`` must report exactly what the
unchecked run reports (``==`` on reprs, not ``approx``).  Checked runs
never run ahead (``GPUDevice.solo_window`` declines under a checker),
so for every policy that runs ahead — the passthrough policies, and
Tally for its high-priority clients — this compares the inline path
with the event path without switching anything off in the code under
test.
"""

import pytest

from repro.gpu.engine import credited_total
from repro.harness import JobSpec, RunConfig, run_colocation

#: the fig4 cell (HP inference next to a BE trainer) and a
#: trainer+trainer mix; traffic seeds vary per case
MIXES = {
    "fig4": ("bert_infer", "whisper_train"),
    "trainers": ("resnet50_train", "whisper_train"),
}


def _jobs(mix, seed):
    jobs = []
    for offset, model in enumerate(MIXES[mix]):
        factory = (JobSpec.training if model.endswith("_train")
                   else JobSpec.inference)
        kwargs = {} if factory is JobSpec.training else {"load": 0.5}
        jobs.append(factory(model, traffic_seed=seed + offset, **kwargs))
    return jobs


def _observable(result):
    """Everything a run reports except its count of invariant audits."""
    return repr(result.jobs), repr(result.utilization), result.events


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("policy", ["Tally", "TGS", "MPS"])
def test_checked_run_equals_unchecked(policy, mix, seed):
    config = RunConfig(duration=0.4, warmup=0.1, trace_seed=seed % 2)
    jobs = _jobs(mix, seed)
    unchecked = run_colocation(policy, jobs, config)
    checked = run_colocation(policy, jobs, config, check=True)
    assert checked.invariant_checks > 0
    assert _observable(checked) == _observable(unchecked)


@pytest.mark.parametrize("policy", ["Tally", "TGS", "MPS", "Ideal"])
def test_checked_utilization_is_unchanged_by_the_audits(policy):
    """``GPUDevice.utilization`` is a pure read: the checker calls it
    after every event, and that must not split the busy-time sum
    differently from an unchecked run's single read at the end."""
    config = RunConfig(duration=1.5, warmup=0.5)
    jobs = [JobSpec.inference("bert_infer", load=0.5, traffic_seed=3),
            JobSpec.training("whisper_train", traffic_seed=4)]
    unchecked = run_colocation(policy, jobs, config)
    checked = run_colocation(policy, jobs, config, check=True)
    assert checked.utilization == unchecked.utilization


def test_tally_fig4_run_credits_most_colocation_events():
    """Deterministic guard for Tally's high-priority run-ahead: in the
    fig4 cell the HP service's kernels mostly run alone while the
    trainer is held, and at least 70 % of the run's events are
    credited rather than run.  A window that silently stops opening
    drops this to 0."""
    config = RunConfig(duration=1.0, warmup=0.2)
    jobs = _jobs("fig4", 0)
    before = credited_total()
    result = run_colocation("Tally", jobs, config)
    assert credited_total() - before >= 0.7 * result.events
