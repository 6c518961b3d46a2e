"""Solo run-ahead is unobservable: identical runs with it on and off.

A passthrough policy settles an idle device's kernel stream inline
while the event loop proves nothing else can run before each kernel
ends, and so does Tally for a high-priority client while best-effort
work is held, and for a best-effort client's sliced, PTB or whole
executions while no high-priority kernel is outstanding (see
``docs/performance.md``, "Solo run-ahead").  These tests run the same
inputs twice — once as they are, once with
``PassthroughPolicy.run_ahead`` and ``Tally.run_ahead`` patched to
decline — and demand identical results (``==`` on reprs, not
``approx``): driver records, iteration completions and kernel counts,
the policy's ``ClientInfo`` counters (and Tally's ``TallyStats``,
high-priority state and profiler: its counters and every
measurement), the device's completed launches and utilization, and
the event count.  Observations are taken between drains and from
events placed exactly on the event path's own timestamps, so a stretch
that runs one kernel too far, or ends one ulp off, shows.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    MPS,
    Ideal,
    MPSPriority,
    PassthroughPolicy,
    Priority,
    SharingPolicy,
)
from repro.core import Tally, TallyConfig
from repro.core.candidates import SchedConfig, SchedKind
from repro.faults import schedule_client_crash
from repro.gpu import A100_SXM4_40GB, EventLoop, GPUDevice, KernelDescriptor
from repro.gpu.engine import credited_total
from repro.harness import JobSpec, RunConfig, run_colocation
from repro.traffic import TrafficTrace
from repro.transform.memo import TransformMemo
from repro.workloads import InferenceJob, TrainingJob
from repro.workloads.models import Trace, TraceOp

SPEC = A100_SXM4_40GB
HORIZON = 2e-3
POLICIES = {"Ideal": Ideal, "MPS": MPS, "MPS-Priority": MPSPriority}
#: Tally configurations steering best-effort kernels to each launch
#: kind: PTB or sliced candidates only (kernels too small to subdivide
#: still launch whole), whole launches, and the preemption watchdog
TALLY_CONFIGS = {
    "Tally": TallyConfig(),
    "Tally/ptb": TallyConfig(slice_fractions=(), worker_sm_multiples=(1, 2)),
    "Tally/sliced": TallyConfig(worker_sm_multiples=(),
                                slice_fractions=(0.1, 0.5)),
    "Tally/original": TallyConfig(use_transformations=False),
    "Tally/watchdog": TallyConfig(preempt_deadline=3e-6),
    "Tally/cold": TallyConfig(prewarm_profiles=False),
}
POLICIES.update({
    name: (lambda device, engine, config=config:
           Tally(device, engine, config))
    for name, config in TALLY_CONFIGS.items()})

_settings = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _no_run_ahead(monkeypatch_context):
    """Keep passthrough policies and Tally on the event path."""
    for cls in (PassthroughPolicy, Tally):
        monkeypatch_context.setattr(cls, "run_ahead",
                                    SharingPolicy.run_ahead)


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

@st.composite
def kernels(draw):
    """A grid of whole waves, with or without a partial last wave."""
    tpb = draw(st.sampled_from([64, 256, 1024]))
    wave = min(SPEC.total_threads // tpb, SPEC.total_block_slots)
    blocks = (draw(st.integers(min_value=0, max_value=3)) * wave
              + draw(st.sampled_from([0, 1, wave // 3, wave - 1])))
    duration = draw(st.sampled_from([1e-6, 2.5e-6, 1e-5])
                    | st.floats(min_value=1e-6, max_value=4e-5))
    return KernelDescriptor("k", num_blocks=max(1, blocks),
                            threads_per_block=tpb, block_duration=duration)


@st.composite
def traces(draw):
    ops = draw(st.lists(
        kernels().map(lambda k: TraceOp("kernel", kernel=k))
        | st.floats(min_value=0.0, max_value=3e-5).map(
            lambda g: TraceOp("gap", gap=g)),
        min_size=1, max_size=5))
    if all(op.kind == "gap" for op in ops):
        ops.append(TraceOp("kernel", kernel=draw(kernels())))
    gpu = sum(op.kernel.duration(SPEC) for op in ops if op.kind == "kernel")
    host = sum(op.gap for op in ops if op.kind == "gap")
    return Trace("t", tuple(ops), gpu_time=gpu, host_time=host)


@st.composite
def clients(draw):
    role = draw(st.sampled_from(["training", "inference"]))
    arrivals = None
    if role == "inference":
        # dense arrivals overlap requests; sparse ones leave the
        # service idle between them
        count = draw(st.integers(min_value=0, max_value=12))
        span = draw(st.sampled_from([HORIZON / 20, HORIZON]))
        arrivals = sorted(draw(st.lists(
            st.floats(min_value=0.0, max_value=span, exclude_max=True),
            min_size=count, max_size=count)))
    priority = draw(st.sampled_from([Priority.HIGH, Priority.BEST_EFFORT]))
    return role, draw(traces()), arrivals, priority


def _build(policy_name, specs):
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    policy = POLICIES[policy_name](device, engine)
    drivers = []
    for i, (role, trace, arrivals, priority) in enumerate(specs):
        cid = f"c{i}"
        if role == "training":
            drivers.append(TrainingJob(trace, policy, cid, priority=priority))
        else:
            traffic = TrafficTrace(np.array(arrivals, dtype=float), HORIZON)
            drivers.append(InferenceJob(trace, traffic, policy, cid,
                                        priority=priority))
    return engine, device, policy, drivers


def _event_times(policy_name, specs):
    """Timestamps of the undisturbed event path's first events."""
    with pytest.MonkeyPatch.context() as mp:
        _no_run_ahead(mp)
        engine, _device, _policy, drivers = _build(policy_name, specs)
        for driver in drivers:
            driver.start()
        times = []
        while len(times) < 400 and engine.step() and engine.now < HORIZON:
            times.append(engine.now)
    return sorted(set(times)) or [HORIZON / 2]


ACTIONS = ["advance", "advance_inclusive", "run_until", "step", "speed",
           "speed_event", "observe_event", "crash", "checkpoint"]


@st.composite
def scenarios(draw, names=("Ideal", "MPS", "MPS-Priority")):
    policy_name = draw(st.sampled_from(names))
    if policy_name == "Ideal":
        specs = [draw(clients())]
    elif policy_name.startswith("Tally"):
        # a high-priority client first, then up to two more of either
        # class: HP inference or trainers (with host gaps) next to
        # best-effort work, or two HP clients
        role, trace, arrivals, _priority = draw(clients())
        specs = [(role, trace, arrivals, Priority.HIGH)]
        specs += draw(st.lists(clients(), max_size=2))
    else:
        specs = draw(st.lists(clients(), min_size=1, max_size=2))
    return (policy_name, specs) + _steps(draw, policy_name, specs)


def _steps(draw, policy_name, specs):
    """The drains and actions of a scenario, and its observers."""
    times = _event_times(policy_name, specs)
    # mostly exact event-path timestamps, else one ulp either side of
    # one, or anywhere
    exact = st.sampled_from(times)
    at = st.one_of(exact, exact, exact, st.builds(
        lambda t, up: math.nextafter(t, math.inf if up else -math.inf),
        exact, st.booleans()), st.floats(min_value=0.0, max_value=HORIZON))
    steps = draw(st.lists(st.tuples(
        st.sampled_from(ACTIONS), at,
        st.integers(min_value=0, max_value=len(specs) - 1),
        st.sampled_from([0.5, 1.0, 1.75])), max_size=8))
    # at least one drain ends exactly on an event-path timestamp
    steps.append((draw(st.sampled_from(["advance", "advance_inclusive",
                                        "run_until"])), draw(exact), 0, 1.0))
    # observers armed before the run, on exact timestamps: each runs
    # ahead of a completion due at the same instant
    observers = draw(st.lists(exact, max_size=3))
    return sorted(steps, key=lambda s: s[1]), observers


@st.composite
def best_effort_scenarios(draw, names, trainers=1):
    """Tally with ``trainers`` best-effort trainers next to a sparse
    high-priority service, which leaves the device to them between
    its requests."""
    policy_name = draw(st.sampled_from(names))
    count = draw(st.integers(min_value=0, max_value=4))
    arrivals = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=HORIZON, exclude_max=True),
        min_size=count, max_size=count)))
    specs = [("inference", draw(traces()), arrivals, Priority.HIGH)]
    specs += [("training", draw(traces()), None, Priority.BEST_EFFORT)
              for _ in range(trainers)]
    return (policy_name, specs) + _steps(draw, policy_name, specs)


def _profiler_look(policy):
    """A Tally profiler's counters and every measurement it holds."""
    profiler = getattr(policy, "profiler", None)
    if profiler is None:
        return None
    return (profiler.profiling_runs, profiler.decisions,
            [(descriptor, repr(profile.measured), repr(profile.by_config))
             for descriptor, profile in profiler._profiles.items()])


def _simulate(policy_name, specs, steps, observers):
    """Run one scenario; return everything observable about it."""
    engine, device, policy, drivers = _build(policy_name, specs)
    looks = []

    def look():
        states = []
        for driver in drivers:
            if isinstance(driver, TrainingJob):
                states.append((driver.iteration_completions[-2:],
                               driver.kernels_completed,
                               driver.fractional_iterations()))
            else:
                states.append((driver.records[-2:], driver.arrivals_total,
                               driver.shed_requests,
                               driver.pending_requests))
        looks.append((engine.now, engine.events_processed,
                      device.launches_completed, repr(device.utilization()),
                      repr(policy.clients), states,
                      repr(getattr(policy, "stats", None)),
                      getattr(policy, "high_priority_active", None),
                      # no stretch is ever left for anything to see
                      sorted(getattr(policy, "_stretches", ())),
                      _profiler_look(policy)))

    for when in observers:
        engine.schedule_at(when, look)
    for driver in drivers:
        driver.start()
    paused = set()
    for action, when, index, factor in steps:
        driver, cid = drivers[index], f"c{index}"
        if when < engine.now:
            when = engine.now
        if action == "advance":
            engine.advance_to(when)
        elif action == "advance_inclusive":
            engine.advance_to(when, inclusive=True)
        elif action == "run_until":
            engine.run_until(when)
        elif action == "step":
            engine.step()
        elif action == "speed":
            device.set_speed_factor(factor)
        elif action == "speed_event":
            engine.schedule_at(when, lambda f=factor:
                               device.set_speed_factor(f))
        elif action == "observe_event":
            engine.schedule_at(when, look)
        elif action == "crash":
            schedule_client_crash(engine, when, driver, policy, cid)
        elif index in paused:
            driver.restore(policy)
            paused.discard(index)
        else:  # checkpoint between drains; restored by a later step
            driver.checkpoint()
            policy.disconnect(cid)
            paused.add(index)
        look()
    for index in sorted(paused):
        drivers[index].restore(policy)
    engine.run_until(HORIZON + 1e-3)
    look()
    final = []
    for driver in drivers:
        if isinstance(driver, TrainingJob):
            final.append((driver.iteration_completions,
                          driver.kernels_completed, driver.crashed))
        else:
            final.append((driver.records, driver.arrivals_total,
                          driver.shed_requests, driver.pending_requests))
    return looks, final, repr(device.utilization()), engine.events_processed


def _differential(scenario):
    ahead = _simulate(*scenario)
    with pytest.MonkeyPatch.context() as mp:
        _no_run_ahead(mp)
        events = _simulate(*scenario)
    assert ahead == events


@pytest.mark.slow
@_settings
@given(scenarios())
def test_run_ahead_is_unobservable(scenario):
    _differential(scenario)


@pytest.mark.slow
@_settings
@given(scenarios(names=sorted(TALLY_CONFIGS)))
def test_tally_high_priority_run_ahead_is_unobservable(scenario):
    _differential(scenario)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(TALLY_CONFIGS))
@settings(_settings, max_examples=40)
@given(data=st.data())
def test_tally_best_effort_run_ahead_is_unobservable(name, data):
    """A best-effort trainer next to sparse HP inference, under every
    configuration: sliced, PTB and whole executions, profiling runs from
    a cold cache, and the watchdog."""
    _differential(data.draw(best_effort_scenarios([name])))


@pytest.mark.slow
@_settings
@given(best_effort_scenarios(sorted(TALLY_CONFIGS), trainers=2))
def test_two_best_effort_clients_are_unobservable(scenario):
    """Two trainers: one runs ahead only while the other has no
    execution, and never past the other's next event."""
    _differential(scenario)


RUN_JOBS = [
    JobSpec.training("resnet50_train"),
    JobSpec.training("whisper_train"),
    JobSpec.inference("bert_infer", load=0.5),
    JobSpec.inference("yolov6m_infer", load=0.9),
]


@pytest.mark.slow
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["Ideal", "MPS", "MPS-Priority", "Tally"]),
       st.lists(st.sampled_from(range(len(RUN_JOBS))), min_size=1,
                max_size=2, unique=True),
       st.integers(min_value=0, max_value=50),
       st.sampled_from([0.3, 0.45]),
       st.sampled_from(["maf", "poisson"]))
def test_colocation_results_identical(policy_name, picks, seed, duration,
                                      traffic):
    """Whole runs as the harness makes them: the same ``RunResult``
    repr — every ``JobResult``, utilization and the event count."""
    if policy_name == "Ideal":
        picks = picks[:1]
    jobs = [replace(RUN_JOBS[i], traffic_seed=seed + n)
            for n, i in enumerate(picks)]
    config = RunConfig(duration=duration, warmup=0.1, traffic_kind=traffic,
                       trace_seed=seed % 3)
    credited = credited_total()
    ahead = run_colocation(policy_name, jobs, config)
    assert policy_name != "Ideal" or credited_total() > credited
    with pytest.MonkeyPatch.context() as mp:
        _no_run_ahead(mp)
        events = run_colocation(policy_name, jobs, config)
    assert repr(ahead) == repr(events)


def test_standalone_trainer_collapses_into_few_events():
    """An undisturbed standalone trainer runs ahead to the drain's
    limit: the loop executes a handful of events and credits the rest."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    policy = Ideal(device, engine)
    trace = Trace("t", (TraceOp("kernel", kernel=KernelDescriptor(
        "k", num_blocks=5000, threads_per_block=256,
        block_duration=1e-5)), TraceOp("gap", gap=2e-6)), 0.0, 0.0)
    job = TrainingJob(trace, policy, "train")
    job.start()
    executed = engine.advance_to(0.01)
    assert job.kernels_completed > 100
    assert executed <= 5
    assert engine.events_credited > 2 * job.kernels_completed
    assert engine.events_processed == executed + engine.events_credited


def _tally_hp_next_to_idle_trainer():
    """An HP inference request arriving at 1e-4 while a best-effort
    trainer sits in a long host gap: the device is idle, so the request
    runs ahead up to the trainer's next kernel."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    policy = Tally(device, engine)
    kernel = KernelDescriptor("k", num_blocks=64, threads_per_block=256,
                              block_duration=2e-6)
    request = Trace("r", (TraceOp("kernel", kernel=kernel),) * 3, 0.0, 0.0)
    service = InferenceJob(request, TrafficTrace(np.array([1e-4]), 1e-3),
                           policy, "hp")
    step = Trace("s", (TraceOp("kernel", kernel=kernel),
                       TraceOp("gap", gap=1e-3)), 0.0, 0.0)
    trainer = TrainingJob(step, policy, "be", priority=Priority.BEST_EFFORT)
    return engine, policy, service, trainer


def test_a_tally_stretch_never_outlives_its_drain():
    """Why a checkpoint cannot cancel a pending resume event: a stretch
    ends inside the window, so its resume event is the next event and
    runs before the drain can return.  Drains ending anywhere in or
    after the request, exclusive or inclusive, leave no stretch behind,
    and one long enough lets the whole request run ahead."""
    ends = [1e-4 + k * 5e-7 for k in range(60)]
    ends += [math.nextafter(t, math.inf) for t in ends]
    for end in ends:
        for inclusive in (False, True):
            engine, policy, service, trainer = \
                _tally_hp_next_to_idle_trainer()
            service.start()
            trainer.start()
            engine.advance_to(end, inclusive=inclusive)
            assert not policy._stretches
            assert policy.high_priority_active == (
                not service.records and service.arrivals_total > 0)
    assert engine.events_credited > 0
    assert service.records


def test_disconnect_releases_a_stretch_whose_resume_event_was_cancelled():
    """A driver checkpointed in the same event as its stretch (which
    no caller does: run-ahead is an event's last action) cancels the
    resume event; the disconnect that follows must release the held
    best-effort work instead of holding it forever."""
    engine, policy, service, trainer = _tally_hp_next_to_idle_trainer()
    arrive = service._on_arrival

    def arrive_then_migrate():
        arrive()
        assert policy.high_priority_active  # the stretch holds BE work
        service.checkpoint()
        policy.disconnect("hp")

    service._on_arrival = arrive_then_migrate
    service.start()
    trainer.start()
    engine.advance_to(2e-4)
    assert engine.events_credited > 0  # the stretch did run
    assert not policy._stretches and not policy.high_priority_active
    before = trainer.kernels_completed
    engine.run_until(3e-3)
    assert trainer.kernels_completed > before


def test_no_best_effort_window_while_a_high_priority_stretch_holds():
    """Inside an HP stretch the device is idle, but an HP kernel is
    outstanding: a best-effort client gets no window, or its kernel
    would run where the event path holds it."""
    engine, policy, service, trainer = _tally_hp_next_to_idle_trainer()
    arrive = service._on_arrival
    seen = []

    def arrive_then_ask():
        arrive()
        assert policy._stretches and policy.high_priority_active
        assert policy.device.solo_window() is not None
        seen.append(policy.run_ahead("be"))

    service._on_arrival = arrive_then_ask
    service.start()
    trainer.start()
    engine.advance_to(2e-4)
    assert seen == [None]


def test_ptb_workers_beyond_the_device_stay_on_the_event_path():
    """A PTB launch whose workers do not all fit starts them in groups,
    one iteration per event: it must not run inline, while a kernel
    whose workers fit next to it still does."""
    wide = KernelDescriptor("wide", num_blocks=1000, threads_per_block=1024,
                            block_duration=2e-6)
    narrow = replace(wide, name="narrow", threads_per_block=256)
    assert 300 > SPEC.total_threads // wide.threads_per_block
    assert 300 <= SPEC.total_threads // narrow.threads_per_block
    trace = Trace("t", (TraceOp("kernel", kernel=wide),
                        TraceOp("kernel", kernel=narrow),
                        TraceOp("gap", gap=5e-6)), 0.0, 0.0)
    request = Trace("r", (TraceOp("kernel", kernel=narrow),), 0.0, 0.0)
    specs = [("inference", request, [5e-4, 1.5e-3], Priority.HIGH),
             ("training", trace, None, Priority.BEST_EFFORT)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.core.profiler.generate_candidates",
                   lambda *_args: [SchedConfig(SchedKind.PTB, workers=300)])
        # profilers share candidates process-wide: a private store keeps
        # the patched ones from leaking into (or being served from) it
        mp.setattr("repro.core.profiler._SETUPS", TransformMemo())
        credited = credited_total()
        _differential(("Tally", specs, [], []))
        assert credited_total() > credited


def test_a_declined_best_effort_attempt_changes_nothing():
    """An inline run of a best-effort kernel whose last launch would
    end outside the window leaves the device, the policy's counters and
    the profiler's counters as they were, whichever launch of the
    kernel crosses the window's end."""
    kernel = KernelDescriptor("k", num_blocks=5000, threads_per_block=256,
                              block_duration=1e-5)
    for name, config in TALLY_CONFIGS.items():
        declined = ran = 0
        for bound in [k * 2e-6 for k in range(1, 500)]:
            engine = EventLoop()
            device = GPUDevice(SPEC, engine)
            policy = Tally(device, engine, config)
            policy.register_client("be", Priority.BEST_EFFORT)

            def state():
                profiler = policy.profiler
                return (device.launches_completed, device._busy_thread_seconds,
                        device._last_change, device._threads_free,
                        repr(policy.clients), repr(policy.stats),
                        profiler.profiling_runs, profiler.decisions)

            before = state()
            trace = Trace("t", (TraceOp("kernel", kernel=kernel),), 0.0, 0.0)
            if not device.run_trace(trace, 0, 0.0, (bound, False), None,
                                    True, policy.inline_decisions("be"))[2]:
                declined += 1
                assert state() == before, (name, bound)
            else:
                ran += 1
        assert declined and ran, name


def test_llm_serving_mix_credits_most_colocation_events():
    """Deterministic floor for Tally's best-effort run-ahead: next to an
    LLM service, most co-location events belong to the trainer's
    kernels running alone between decode steps, so at least 60 % of the
    run's events are credited (77 % today).  Without best-effort
    run-ahead the LLM driver, which never runs ahead, leaves 0."""
    config = RunConfig(duration=3.0, warmup=0.5, trace_seed=0)
    jobs = [JobSpec.llm("llama7b_serve", load=0.5, traffic_seed=0),
            JobSpec.training("resnet50_train", traffic_seed=1)]
    before = credited_total()
    result = run_colocation("Tally", jobs, config)
    assert credited_total() - before >= 0.6 * result.events
