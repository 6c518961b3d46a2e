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
inside the partial wave, or exactly on ``T + d``.  One tie the fold
still orders differently is recorded as a strict xfail at the end.
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


def _observer_at_the_partial_waves_end(unfolded):
    """A solo 4,420-block grid at ``d = 2**-15`` (five full waves of 864
    blocks, then 100); an event due exactly at the chain's virtual
    boundary ``T``, scheduled before the launch, schedules an observer
    for exactly ``T + d``.  Returns what the observer counts resident."""
    grid = (4_420, 256, 2.0 ** -15, 0.0)
    boundary, duration = _boundary(grid)
    with pytest.MonkeyPatch.context() as mp:
        if unfolded:
            _unfolded(mp)
        engine = EventLoop()
        device = GPUDevice(SPEC, engine)
        solo = _launch(grid)
        engine.schedule_at(0.0, lambda: device.submit(solo))
        seen = []

        def observe():
            seen.append(len(device.resident_launches))

        engine.schedule_at(boundary, lambda: engine.schedule_at(
            boundary + duration, observe))
        engine.run()
    return seen


def test_the_per_wave_model_shows_the_partial_wave_resident():
    """Per wave, the partial wave starts at ``T`` after the event there
    (born earlier), so it takes a later sequence number than the
    observer and completes after it."""
    assert _observer_at_the_partial_waves_end(unfolded=True) == [1]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the fold reserves the partial wave's sequence "
    "number when the chain forms, so its settlement at T + d runs "
    "before an observer scheduled at T"))
def test_the_fold_shows_the_partial_wave_resident():
    assert _observer_at_the_partial_waves_end(unfolded=False) == [1]


# ---------------------------------------------------------------------------
# Cached solo plans: run_solo and run_solo_ptb look each launch's timing
# up in a per-device plan cache (GPUDevice._solo_plan, _ptb_plan) and
# only add the start.  The closed form below recomputes every launch
# from _wave_plan (from the arrival, not from 0.0) and accrues busy time
# as _account does, with no cache: the two must agree bit for bit.

class ClosedForm:
    """Inline solo launches on an idle device, from the closed form."""

    def __init__(self, spec):
        self.spec = spec
        self.speed = 1.0
        self.seconds = 0.0
        self.last = 0.0
        self.launches = 0

    def _duration(self, descriptor):
        duration = descriptor.block_duration
        if self.speed != 1.0:
            duration *= self.speed
        return duration

    def original(self, descriptor, start, blocks):
        """``(done, steps)`` of one launch of ``blocks`` blocks: steps
        are the ``(time, busy threads)`` accruals in order."""
        tpb = descriptor.threads_per_block
        count = min(self.spec.total_threads // tpb,
                    self.spec.total_block_slots, blocks)
        duration = self._duration(descriptor)
        arrived = start + self.spec.kernel_launch_overhead
        end, tail = GPUDevice._wave_plan(arrived, duration, count, blocks)
        done = end + duration if tail else end
        return done, [(arrived, 0), (end, count * tpb),
                      (done, tail * tpb)]

    def chain(self, descriptor, start, per):
        """Completion times and steps of a sliced kernel's launches."""
        ends, steps, done = [], [], start
        for first in range(0, descriptor.num_blocks, per):
            done, more = self.original(
                descriptor, done, min(per, descriptor.num_blocks - first))
            ends.append(done)
            steps += more
        return ends, steps

    def ptb(self, descriptor, start, workers):
        tpb = descriptor.threads_per_block
        blocks = descriptor.num_blocks
        count = min(workers, blocks)
        if (count > self.spec.total_threads // tpb
                or count > self.spec.total_block_slots):
            return None, []
        arrived = start + self.spec.kernel_launch_overhead
        done = arrived + (GPUDevice._ptb_iteration(
            descriptor, self._duration(descriptor)) * -(-blocks // count))
        return done, [(arrived, 0), (done, count * tpb)]

    def commit(self, steps, launches):
        for now, busy in steps:  # _account(now) after each change
            if now != self.last:
                if busy:
                    self.seconds += busy * (now - self.last)
                self.last = now
        self.launches += launches


def _plan_descriptor(draw, name):
    tpb = draw(st.sampled_from([128, 256, 512, 1024]))
    wave = min(SPEC.total_threads // tpb, SPEC.total_block_slots)
    # fewer blocks than a wave, whole waves only (tail 0), or a tail
    blocks = draw(st.one_of(
        st.integers(1, wave - 1),
        st.integers(1, 3).map(lambda w: w * wave),
        st.tuples(st.integers(1, 3), st.integers(1, wave - 1)).map(
            lambda t: t[0] * wave + t[1])))
    return KernelDescriptor(
        name, num_blocks=blocks, threads_per_block=tpb,
        block_duration=draw(st.sampled_from([2.0 ** -15, 3e-6, 7.3e-5])))


@st.composite
def solo_stretches(draw):
    """Two descriptors and a run of inline launches over them, each
    with a window bound at, or one ulp either side of, its completion,
    and speed changes between them."""
    descriptors = [_plan_descriptor(draw, "a"), _plan_descriptor(draw, "b")]
    launches = draw(st.lists(st.tuples(
        st.sampled_from(["original", "slices", "ptb"]),
        st.integers(0, 1),  # descriptor
        st.integers(1, 4_000),  # blocks per slice / PTB workers
        st.sampled_from([0.0, 1e-6, 2.0 ** -20]),  # gap before it
        st.sampled_from(["done", "done-ulp", "done+ulp", "inf"]),
        st.booleans(),  # the window includes its bound
        st.sampled_from([None, 1.0, 0.5, 1.7]),  # speed set before it
    ), min_size=1, max_size=12))
    return descriptors, launches


@pytest.mark.slow
@given(solo_stretches())
@_settings
def test_cached_solo_plans_match_the_closed_form(case):
    descriptors, launches = case
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    model = ClosedForm(SPEC)
    now = 0.0
    for kind, which, size, gap, place, inclusive, speed in launches:
        if speed is not None:
            device.set_speed_factor(speed)
            model.speed = speed
        descriptor = descriptors[which]
        start = now + gap
        if kind == "original":
            want, steps = model.original(descriptor, start,
                                         descriptor.num_blocks)
            ends = [want]
        elif kind == "slices":
            ends, steps = model.chain(descriptor, start, size)
            want = ends[-1]
        else:
            want, steps = model.ptb(descriptor, start, size)
            ends = [want]
        bound = {"done": want, "inf": math.inf,
                 "done-ulp": math.nextafter(want or 0.0, -math.inf),
                 "done+ulp": math.nextafter(want or 0.0, math.inf)}[place]
        window = (bound, inclusive)
        if want is not None and not (want < bound
                                     or (want == bound and inclusive)):
            want = None
        got_ends = []
        if kind == "original":
            got = device.run_solo(descriptor, start, window)
        elif kind == "slices":
            got = device.run_solo(descriptor, start, window, size, got_ends)
        else:
            got = device.run_solo_ptb(descriptor, start, window, size)
        assert got == want
        if want is not None:
            model.commit(steps, len(ends))
            now = want
            if kind == "slices":
                assert got_ends == ends
        assert got_ends == [] or want is not None
        assert device._busy_thread_seconds == model.seconds
        assert device._last_change == model.last
        assert device.launches_completed == model.launches
        assert device.threads_free == SPEC.total_threads
    end = now + 1e-3
    engine.schedule_at(end, lambda: None)
    engine.run()
    assert device.utilization() == (
        model.seconds + 0 * (end - model.last)) / (end * SPEC.total_threads)


def test_a_speed_change_between_two_stretches_replans():
    """The same descriptor before and after a speed change: the second
    stretch is priced at the new speed, not from the cached plan."""
    descriptor = KernelDescriptor("k", num_blocks=2_000,
                                  threads_per_block=256,
                                  block_duration=1e-5)
    device = GPUDevice(SPEC, EventLoop())
    model = ClosedForm(SPEC)
    window = (math.inf, False)
    first = device.run_solo(descriptor, 0.0, window)
    assert first == model.original(descriptor, 0.0, 2_000)[0]
    device.set_speed_factor(2.0)
    model.speed = 2.0
    second = device.run_solo(descriptor, first, window)
    assert second == model.original(descriptor, first, 2_000)[0]
    assert second - first > first  # a stale plan would equal it
