"""Bit-identity of the cluster controller's two backends, and an
independent oracle for its per-shard loops.

Every run drives device shards through the shard op protocol, each
shard advancing exactly to each control event.  The in-process engine
(``engine="serial"``) is the reference for the process backend
(``engine="parallel", workers=2``): shards in worker processes, with
pickling, batched op delivery and pipe ordering in between, must commit
*exactly* the same result — metrics, ledgers, audits, event counts.

The test-local :func:`evaluate_placement`, one ``run_colocation`` plus
``standalone`` baselines per bin on its own event loop, is the
reference for the per-shard loops themselves.  It never touches the
controller, the shard engine or the op protocol; a fault-free
control-plane run of the same placement must reproduce its service
outcomes and throughput exactly.

Comparison is by ``repr``: ClusterResult carries NaN fields (mttr on
fault-free runs, post-recovery attainment) that defeat dataclass
equality, and ``repr`` renders NaN identically on both sides.
"""

from collections import Counter

import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterController,
    ClusterJob,
    Placement,
    ServiceOutcome,
    run_controlplane,
)
from repro.cluster.simulate import _tail_p99, _to_jobspec
from repro.errors import HarnessError
from repro.faults import FaultConfig
from repro.harness import RunConfig, run_colocation, standalone
from repro.trace import Tracer

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

_CONFIG = RunConfig(duration=1.2, warmup=0.3)


def _jobs():
    return [
        ClusterJob("bert_infer", load=0.3, traffic_seed=0),
        ClusterJob("resnet50_infer", load=0.2, traffic_seed=1),
        ClusterJob("pointnet_train", traffic_seed=2),
        ClusterJob("resnet50_train", traffic_seed=3),
    ]


def _run(*, tracer=None, **kw):
    controller = ClusterController(
        _jobs(), kw.pop("devices", 3), config=_CONFIG, check=True,
        tracer=tracer, **kw)
    return controller.run()


def _chaos(seed: int) -> FaultConfig:
    return FaultConfig(seed=seed, device_crash_rate=0.5,
                       device_degraded_rate=0.6, device_flap_rate=0.4,
                       slot_fault_rate=0.3)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [3, 11, 42])
def test_chaos_matrix_bit_identity(seed):
    """Crash + degrade + flap + slot faults, Poisson arrivals, audited."""
    kw = dict(faults=_chaos(seed), arrival_rate=4.0)
    serial = _run(**kw)
    parallel = _run(engine="parallel", workers=2, **kw)
    assert repr(serial) == repr(parallel)
    assert serial.events == parallel.events
    assert serial.invariant_checks == parallel.invariant_checks


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["MPS-Priority", "TGS"])
def test_policy_variants_bit_identity(policy):
    kw = dict(policy=policy, faults=_chaos(7), arrival_rate=4.0)
    serial = _run(**kw)
    parallel = _run(engine="parallel", workers=2, **kw)
    assert repr(serial) == repr(parallel)


@pytest.mark.slow
def test_autoscaler_and_migration_bit_identity():
    """Device failure + drain + autoscaler standby: the full migration
    path (checkpoint/export/import/restore) crosses shards."""
    kw = dict(devices=4, fail_device=((0, 0.6),), drain=((1, 0.9),),
              autoscale=AutoscalerConfig(), standby=1, arrival_rate=6.0)
    serial = _run(**kw)
    parallel = _run(engine="parallel", workers=2, **kw)
    assert repr(serial) == repr(parallel)
    assert serial.recovery is not None


@pytest.mark.slow
def test_trace_summary_counts_match():
    """Committed trace streams agree up to same-timestamp permutation:
    per-type counts are exactly equal."""
    from collections import Counter

    def counts(tracer):
        return Counter(type(e).__name__ for e in tracer.events)

    kw = dict(faults=_chaos(11), arrival_rate=4.0)
    st = Tracer()
    pt = Tracer()
    _run(tracer=st, **kw)
    _run(tracer=pt, engine="parallel", workers=2, **kw)
    assert counts(st) == counts(pt)
    assert len(st.events) == len(pt.events)


@pytest.mark.slow
def test_process_backend_bit_identity():
    """Two worker processes on four devices, one of them crashing:
    cross-process migration under the same oracle comparison."""
    kw = dict(devices=4, faults=_chaos(42), arrival_rate=5.0,
              fail_device=((0, 0.6),))
    serial = _run(**kw)
    parallel = _run(engine="parallel", workers=2, **kw)
    assert repr(serial) == repr(parallel)


def test_engine_parameter_is_validated():
    message = "engine must be 'serial' or 'parallel', got 'warp9'"
    with pytest.raises(HarnessError, match=message):
        ClusterController(_jobs(), 3, config=_CONFIG, engine="warp9")
    with pytest.raises(HarnessError, match=message):
        run_controlplane(jobs=_jobs(), devices=3, config=_CONFIG,
                         engine="warp9")
    message = "workers must be >= 0, got -4"
    with pytest.raises(HarnessError, match=message):
        ClusterController(_jobs(), 3, config=_CONFIG, engine="parallel",
                          workers=-4)
    with pytest.raises(HarnessError, match=message):
        run_controlplane(jobs=_jobs(), devices=3, config=_CONFIG,
                         workers=-4)


def test_serial_engine_rejects_workers():
    """Workers need the parallel engine; the serial one would run
    in-process without saying so."""
    message = "workers=4 needs engine='parallel'"
    with pytest.raises(HarnessError, match=message):
        ClusterController(_jobs(), 3, config=_CONFIG, workers=4)
    with pytest.raises(HarnessError, match=message):
        run_controlplane(jobs=_jobs(), devices=3, config=_CONFIG,
                         engine="serial", workers=4)
    # one worker, or the parallel engine with one, stays in-process
    ClusterController(_jobs(), 3, config=_CONFIG, workers=1)
    ClusterController(_jobs(), 3, config=_CONFIG, engine="parallel",
                      workers=1)


def _oracle_placement(seed: int) -> Placement:
    """Three bins, each an HP service next to a trainer."""
    pairs = [("bert_infer", "resnet50_train"),
             ("resnet50_infer", "pointnet_train"),
             ("llama7b_serve", "bert_train")]
    return Placement(bins=[
        [ClusterJob(service, load=0.3, traffic_seed=seed + 2 * i),
         ClusterJob(trainer, traffic_seed=seed + 2 * i + 1)]
        for i, (service, trainer) in enumerate(pairs)])


def evaluate_placement(placement: Placement, policy: str,
                       config: RunConfig):
    """``(services, total normalized throughput, events)`` of one
    ``run_colocation`` per bin, each job against its ``standalone``."""
    services, throughput, events = [], 0.0, 0
    for gpu, jobs in enumerate(placement.bins):
        specs = [_to_jobspec(job) for job in jobs]
        result = run_colocation(policy, specs, config)
        events += result.events
        seen = Counter()  # client ids count per model in submission order
        for job, spec in zip(jobs, specs):
            measured = result.job(f"{job.model}#{seen[job.model]}")
            seen[job.model] += 1
            baseline = standalone(spec, config)
            throughput += measured.rate / baseline.rate
            if job.latency_critical:
                services.append(ServiceOutcome(
                    model=job.model, gpu=gpu,
                    p99_ratio=_tail_p99(measured) / _tail_p99(baseline),
                    sla_factor=job.sla_factor))
    return services, throughput, events


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("policy", ["Tally", "TGS", "MPS-Priority"])
def test_fault_free_run_matches_evaluate_placement(policy, seed):
    """Per-shard loops reproduce one ``run_colocation`` per bin."""
    placement = _oracle_placement(seed)
    config = RunConfig(duration=1.0, warmup=0.2, trace_seed=seed)
    services, throughput, events = evaluate_placement(placement, policy,
                                                      config)
    online = run_controlplane(placement=placement, policy=policy,
                              config=config, compute_budget=2.0)
    assert online.services == services
    assert online.total_normalized_throughput == throughput
    # the controller's loop adds one admission event per job
    assert online.events == events + len(placement.jobs())
