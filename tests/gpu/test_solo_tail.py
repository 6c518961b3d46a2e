"""Folded partial waves: a solo launch settles in one event, bit for bit.

A solo ORIGINAL launch runs its waves as one wave chain, and the chain
runs through the launch's partial last wave: the chain's end ``T``
becomes a virtual boundary and one event at ``T + d`` settles the whole
launch (see ``docs/performance.md``).  These tests run the same inputs
with the fold on and with the formation predicate
(``GPUDevice._solo_chain``) patched to chain full waves only, and
demand identical results — ``==``, not ``approx`` — including when an
arrival, a preemption, a kill, a slot fault, a speed change or a mere
look at the device lands exactly on ``T``, one ulp either side of it,
inside the partial wave, or exactly on ``T + d``.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import InvariantChecker
from repro.faults import FaultConfig, FaultInjector, arm_slot_faults
from repro.gpu import (
    A100_SXM4_40GB,
    DeviceLaunch,
    EventLoop,
    GPUDevice,
    KernelDescriptor,
)
from repro.harness import (
    JobSpec,
    RunConfig,
    clear_standalone_cache,
    run_colocation,
    standalone,
)
from repro.baselines import PassthroughPolicy, Priority, SharingPolicy
from repro.trace import Tracer

SPEC = A100_SXM4_40GB

_settings = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _unfolded(monkeypatch_context):
    """Chain full waves only: the partial last wave runs as its own
    event after the chain settles."""
    solo_chain = GPUDevice._solo_chain

    def full_waves_only(self, launch, count):
        blocks = solo_chain(self, launch, count)
        return blocks - blocks % count

    monkeypatch_context.setattr(GPUDevice, "_solo_chain", full_waves_only)


def _no_run_ahead(monkeypatch_context):
    """Keep passthrough policies on the event path."""
    monkeypatch_context.setattr(PassthroughPolicy, "run_ahead",
                                SharingPolicy.run_ahead)


class PlannedSlotFaults(FaultInjector):
    """A fault injector whose slot faults fire at given times."""

    def __init__(self, times):
        super().__init__(FaultConfig(seed=0))
        self.times = times

    def slot_fault_times(self, duration):
        return list(self.times)


PLACES = ["T", "T-ulp", "T+ulp", "mid", "T+d"]


@st.composite
def solo_grid(draw):
    """A solo grid whose last wave is partial, plus disturbances placed
    on or around its virtual boundary ``T``."""
    tpb = draw(st.sampled_from([64, 128, 256, 512, 1024]))
    wave = min(SPEC.total_threads // tpb, SPEC.total_block_slots)
    blocks = (draw(st.integers(min_value=1, max_value=5)) * wave
              + draw(st.integers(min_value=1, max_value=wave - 1)))
    duration = draw(st.floats(min_value=1e-6, max_value=1e-4))
    at = draw(st.sampled_from([0.0, 1.7e-6, 3e-5]))
    disturbances = draw(st.lists(st.tuples(
        st.sampled_from(["arrive", "preempt", "kill", "speed", "observe"]),
        st.sampled_from(PLACES),
        # born at t=0, before the chain formed; or this many partial
        # waves before it fires (an event on T born after the chain
        # formed runs after the chain's boundary)
        st.sampled_from([None, 0.25, 1.25]),
        st.integers(min_value=0, max_value=2),  # arrival priority
    ), min_size=1, max_size=2))
    return (blocks, tpb, duration, at), disturbances


def _boundary(grid):
    """``(T, d)`` of the grid's folded chain in an undisturbed run."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    launch = _launch(grid)
    engine.schedule_at(grid[3], lambda: device.submit(launch))
    while device._fold is None:
        assert engine.step()
    return device._fold.tail[0], device._fold.iter_duration


def _launch(grid):
    blocks, tpb, duration, _at = grid
    return DeviceLaunch(
        KernelDescriptor("solo", num_blocks=blocks, threads_per_block=tpb,
                         block_duration=duration),
        client_id="solo", priority=1)


def _when(place, boundary, duration):
    return {
        "T": boundary,
        "T-ulp": math.nextafter(boundary, -math.inf),
        "T+ulp": math.nextafter(boundary, math.inf),
        "mid": boundary + duration / 2,
        "T+d": boundary + duration,
    }[place]


def _simulate(grid, disturbances, boundary, duration, mode):
    """Run one case; return everything observable about it."""
    engine = EventLoop()
    tracer = Tracer(capacity=None)
    planned = []
    if mode == "check":
        device = GPUDevice(SPEC, engine, tracer=tracer,
                           check=InvariantChecker(raise_on_violation=False))
    else:
        device = GPUDevice(SPEC, engine, tracer=tracer,
                           faults=PlannedSlotFaults(planned))
    solo = _launch(grid)
    launches = [solo]
    engine.schedule_at(grid[3], lambda: device.submit(solo))
    looks = []

    def observe():
        looks.append((engine.now, device.utilization(), device.threads_free,
                      device.slots_free,
                      [(l.blocks_done, l.blocks_inflight, l.blocks_to_start)
                       for l in device.resident_launches]))

    for kind, place, born, priority in disturbances:
        when = _when(place, boundary, duration)
        if kind == "arrive":
            other = DeviceLaunch(
                KernelDescriptor("x", num_blocks=777, threads_per_block=128,
                                 block_duration=2.2e-5),
                client_id="x", priority=priority)
            launches.append(other)
            if born is None:  # in flight since t=0, arriving at ``when``
                engine.schedule_at(0.0, lambda l=other, t=when:
                                   device.submit(l, launch_overhead=t))
                continue
            fn = lambda l=other: device.submit(l, launch_overhead=0.0)
        elif kind == "kill" and mode == "faults":
            if born is None:
                planned.append(when)
                continue
            fn = lambda: device.kill(solo)
        elif kind == "observe":
            fn = observe
        elif kind == "speed":
            fn = lambda: device.set_speed_factor(1.5)
        else:
            act = device.preempt if kind == "preempt" else device.kill
            fn = lambda act=act: act(solo)
        if born is None:
            engine.schedule_at(when, fn)
        else:
            engine.schedule_at(max(0.0, when - born * duration),
                               lambda t=when, fn=fn: engine.schedule_at(t, fn))
    if mode == "faults":
        arm_slot_faults(device, engine, device.faults, 1.0, tracer=tracer)
    engine.run()

    def exact(x):
        return None if math.isnan(x) else x

    outcome = [(exact(l.started_at), exact(l.finished_at), l.blocks_done,
                l.blocks_killed, l.status) for l in launches]
    # launch sequence numbers are process-wide: count from the run's first
    events = [replace(e, launch_seq=e.launch_seq - solo.seq)
              for e in tracer.events]
    violations = device.check.violations if mode == "check" else []
    return (outcome, looks, device.utilization(), events, violations,
            engine.events_processed)


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["check", "faults"])
@given(solo_grid())
@_settings
def test_folded_tail_is_bit_identical(mode, case):
    grid, disturbances = case
    boundary, duration = _boundary(grid)
    folded = _simulate(grid, disturbances, boundary, duration, mode)
    with pytest.MonkeyPatch.context() as mp:
        _unfolded(mp)
        unfolded = _simulate(grid, disturbances, boundary, duration, mode)
    assert folded[:5] == unfolded[:5]
    assert folded[5] <= unfolded[5]


@pytest.mark.parametrize("waves", [1, 3])
def test_undisturbed_solo_launch_settles_in_one_event(waves):
    wave = SPEC.total_threads // 256
    grid = (waves * wave + 100, 256, 2e-5, 0.0)
    boundary, duration = _boundary(grid)
    folded = _simulate(grid, [], boundary, duration, "check")
    with pytest.MonkeyPatch.context() as mp:
        _unfolded(mp)
        unfolded = _simulate(grid, [], boundary, duration, "check")
    assert folded[:5] == unfolded[:5]
    assert folded[4] == []
    # submit, arrival, settlement — one event fewer than unfolded
    assert folded[5] == 3
    assert unfolded[5] == 4


def test_standalone_event_budget():
    """The fold stays on the standalone-baseline path: identical job
    results, at most 80 % of the unfolded run's events."""
    job = JobSpec.inference("bert_infer", load=0.5)
    config = RunConfig(duration=1.0, warmup=0.25)

    def run():
        # the run standalone() makes, with its event count
        clear_standalone_cache()
        result = run_colocation(
            "Ideal", [replace(job, priority=Priority.HIGH)], config)
        assert list(result.jobs.values()) == [standalone(job, config)]
        clear_standalone_cache()
        return result

    with pytest.MonkeyPatch.context() as mp:
        # run-ahead settles solo kernels without events and credits the
        # same count either way; measure the fold on the event path
        _no_run_ahead(mp)
        folded = run()
        _unfolded(mp)
        unfolded = run()
    assert folded.jobs == unfolded.jobs
    assert folded.events <= 0.8 * unfolded.events
