"""Solo launches: a chunk whose partial last wave is its last wave.

A solo ORIGINAL launch is one chunk: wave ``k`` ends at ``arrival + d *
k``, its partial last wave included, and the settle loop walks its
pure refills in one step (see ``docs/performance.md``, "Wave
records").  These tests run the same inputs on the device as runs use it
(the walk on), on the device with a tracer and an invariant checker
(every boundary takes the full body) and on the naive reference device
(:class:`~repro.check.reference.ReferenceDevice`, one event per wave),
and demand identical results — ``==``, not ``approx`` — including when
an arrival, a preemption, a kill, a slot fault, a speed change or a
mere look at the device lands exactly on ``T``, the end of the whole
waves, one ulp either side of it, inside the partial wave, or exactly on
``T + d``.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import InvariantChecker
from repro.check.reference import ReferenceDevice
from repro.faults import FaultConfig, FaultInjector, arm_slot_faults
from repro.gpu import (
    A100_SXM4_40GB,
    DeviceLaunch,
    EventLoop,
    GPUDevice,
    KernelDescriptor,
)
from repro.gpu.engine import credited_total
from repro.harness import (
    JobSpec,
    RunConfig,
    clear_standalone_cache,
    run_colocation,
    standalone,
)
from repro.baselines import PassthroughPolicy, Priority, SharingPolicy
from repro.trace import Tracer
from repro.workloads.models import Trace, TraceOp

SPEC = A100_SXM4_40GB

_settings = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _no_run_ahead(monkeypatch_context):
    """Keep passthrough policies on the event path."""
    monkeypatch_context.setattr(PassthroughPolicy, "run_ahead",
                                SharingPolicy.run_ahead)


def _no_walk(monkeypatch_context):
    monkeypatch_context.setattr(GPUDevice, "_pure_refill",
                                lambda self, *args: False)


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
    on or around the end ``T`` of its whole waves."""
    tpb = draw(st.sampled_from([64, 128, 256, 512, 1024]))
    wave = min(SPEC.total_threads // tpb, SPEC.total_block_slots)
    blocks = (draw(st.integers(min_value=1, max_value=5)) * wave
              + draw(st.integers(min_value=1, max_value=wave - 1)))
    duration = draw(st.floats(min_value=1e-6, max_value=1e-4))
    at = draw(st.sampled_from([0.0, 1.7e-6, 3e-5]))
    disturbances = draw(st.lists(st.tuples(
        st.sampled_from(["arrive", "preempt", "kill", "speed", "observe"]),
        st.sampled_from(PLACES),
        # born at t=0, before the launch started; or this many partial
        # waves before it fires (an event on T born after the last
        # whole wave started runs after that wave's boundary)
        st.sampled_from([None, 0.25, 1.25]),
        st.integers(min_value=0, max_value=2),  # arrival priority
    ), min_size=1, max_size=2))
    return (blocks, tpb, duration, at), disturbances


def _boundary(grid):
    """``(T, d)`` of the grid's undisturbed run: the end of its whole
    waves, ``arrival + d * W``, and its block duration."""
    blocks, tpb, duration, at = grid
    wave = min(SPEC.total_threads // tpb, SPEC.total_block_slots)
    arrival = at + SPEC.kernel_launch_overhead
    return arrival + duration * (blocks // wave), duration


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


def _simulate(grid, disturbances, boundary, duration, world, faulted):
    """Run one case in ``world`` — ``"walk"`` (the device as runs use
    it), ``"full"`` (traced and checked: every boundary takes the full
    body) or ``"reference"`` — with kills born at t=0 fired as planned
    slot faults if ``faulted``; return everything observable."""
    engine = EventLoop()
    planned = []
    faults = PlannedSlotFaults(planned) if faulted else None
    if world == "reference":
        device = ReferenceDevice(SPEC, engine)
    elif world == "full":
        device = GPUDevice(SPEC, engine, tracer=Tracer(capacity=None),
                           check=InvariantChecker(raise_on_violation=False),
                           faults=faults)
    else:
        device = GPUDevice(SPEC, engine, faults=faults)
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
        elif kind == "kill" and faulted:
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
    if faulted:
        arm_slot_faults(device, engine, faults, 1.0)
    engine.run()

    def exact(x):
        return None if math.isnan(x) else x

    outcome = [(exact(l.started_at), exact(l.finished_at), l.blocks_done,
                l.blocks_killed, l.status) for l in launches]
    violations = device.check.violations if world == "full" else []
    return (outcome, looks, device.utilization(), engine.events_processed,
            violations)


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["check", "faults"])
@given(solo_grid())
@_settings
def test_folded_tail_is_bit_identical(mode, case):
    """The partial last wave against the reference, with kills as calls
    (``check``) or as planned slot faults (``faults``)."""
    grid, disturbances = case
    faulted = mode == "faults"
    boundary, duration = _boundary(grid)
    reference = _simulate(grid, disturbances, boundary, duration,
                          "reference", faulted)
    walk = _simulate(grid, disturbances, boundary, duration, "walk", faulted)
    full = _simulate(grid, disturbances, boundary, duration, "full", faulted)
    assert walk[:4] == reference[:4]
    assert full[:4] == reference[:4]
    assert full[4] == []


@pytest.mark.parametrize("waves", [1, 3])
def test_undisturbed_solo_launch_settles_in_one_event(waves):
    """The settle loop walks every pure refill of a solo launch in one
    step: the heap runs the submission, the arrival and the proxy of
    the first boundary, and the ``waves`` further boundaries (the
    partial wave's included) are credited."""
    wave = SPEC.total_threads // 256
    grid = (waves * wave + 100, 256, 2e-5, 0.0)
    boundary, duration = _boundary(grid)
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    solo = _launch(grid)
    engine.schedule_at(0.0, lambda: device.submit(solo))
    engine.run()
    reference = _simulate(grid, [], boundary, duration, "reference", False)
    arrival = SPEC.kernel_launch_overhead
    assert (reference[0][0][1] == solo.finished_at
            == arrival + duration * (waves + 1))
    # the submission, the arrival and every boundary, whole waves and
    # the partial one
    assert engine.events_processed == reference[3] == 3 + waves
    assert engine.events_processed - engine.events_credited == 3
    assert engine.events_credited == waves


def test_standalone_event_budget():
    """The walk stays on the standalone-baseline path: identical job
    results and events with the walk off, and the heap executes at most
    60 % of the per-wave events."""
    job = JobSpec.inference("bert_infer", load=0.5)
    config = RunConfig(duration=1.0, warmup=0.25)

    def run():
        # the run standalone() makes, with its event count
        clear_standalone_cache()
        before = credited_total()
        result = run_colocation(
            "Ideal", [replace(job, priority=Priority.HIGH)], config)
        assert list(result.jobs.values()) == [standalone(job, config)]
        clear_standalone_cache()
        return result, credited_total() - before

    with pytest.MonkeyPatch.context() as mp:
        # run-ahead settles solo kernels without events and credits the
        # same count either way; measure the walk on the event path
        _no_run_ahead(mp)
        walk, credited = run()
        _no_walk(mp)
        per_wave, _credited = run()
    assert walk.jobs == per_wave.jobs
    assert walk.events == per_wave.events
    assert walk.events - credited <= 0.6 * walk.events


def _observer_at_the_partial_waves_end(world):
    """A solo 4,420-block grid at ``d = 2**-15`` (five whole waves of
    864 blocks, then 100); an event due exactly at the end ``T`` of the
    whole waves, scheduled before the launch, schedules an observer for
    exactly ``T + d``.  Returns what the observer counts resident."""
    grid = (4_420, 256, 2.0 ** -15, 0.0)
    boundary, duration = _boundary(grid)
    engine = EventLoop()
    device = (ReferenceDevice(SPEC, engine) if world == "reference"
              else GPUDevice(SPEC, engine))
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
    assert _observer_at_the_partial_waves_end("reference") == [1]


def test_the_fold_shows_the_partial_wave_resident():
    """The walk stops before the event at ``T`` and the partial wave
    starts in the full body after it, under a later sequence number
    than the observer's, as the reference orders them."""
    assert _observer_at_the_partial_waves_end("walk") == [1]


# ---------------------------------------------------------------------------
# Cached solo plans: a kernel's launches settle in GPUDevice.run_trace's
# walk from plans (GPUDevice.launch_plans) cached per device
# (GPUDevice._solo_plan, _ptb_plan), which only add the start.  The closed form below recomputes every launch
# from the arrival (wave k ends at arrival + d * k) and integrates the
# busy threads as a step function, with no cache: the two must agree
# bit for bit, in the times, the utilization and the events counted.

class ClosedForm:
    """Inline solo launches on an idle device, from the closed form."""

    def __init__(self, spec):
        self.spec = spec
        self.speed = 1.0
        #: ``(time, busy threads from then on)``, as ReferenceDevice
        #: keeps them
        self.steps = [(0.0, 0)]
        self.launches = 0
        self.events = 0

    def _duration(self, descriptor):
        duration = descriptor.block_duration
        if self.speed != 1.0:
            duration *= self.speed
        return duration

    def original(self, descriptor, start, blocks):
        """``(done, steps, events)`` of one launch of ``blocks`` blocks:
        steps are the ``(time, busy threads)`` changes in order."""
        tpb = descriptor.threads_per_block
        count = min(self.spec.total_threads // tpb,
                    self.spec.total_block_slots, blocks)
        duration = self._duration(descriptor)
        arrived = start + self.spec.kernel_launch_overhead
        waves, tail = divmod(blocks, count)
        end = arrived + duration * waves
        steps = [(arrived, count * tpb)]
        if tail:
            steps.append((end, tail * tpb))
            end = arrived + duration * (waves + 1)
        steps.append((end, 0))
        return end, steps, 1 + waves + (tail > 0)

    def chain(self, descriptor, start, per):
        """Completion times, steps and events of a sliced kernel's
        launches."""
        ends, steps, events, done = [], [], 0, start
        for first in range(0, descriptor.num_blocks, per):
            done, more, counted = self.original(
                descriptor, done, min(per, descriptor.num_blocks - first))
            ends.append(done)
            steps += more
            events += counted
        return ends, steps, events

    def ptb(self, descriptor, start, workers):
        tpb = descriptor.threads_per_block
        blocks = descriptor.num_blocks
        count = min(workers, blocks)
        if (count > self.spec.total_threads // tpb
                or count > self.spec.total_block_slots):
            return None, [], 0
        arrived = start + self.spec.kernel_launch_overhead
        iterations = -(-blocks // count)
        done = arrived + (GPUDevice._ptb_iteration(
            descriptor, self._duration(descriptor)) * iterations)
        return done, [(arrived, count * tpb), (done, 0)], 1 + iterations

    def commit(self, steps, launches, events):
        for now, busy in steps:
            if self.steps[-1][0] == now:
                self.steps.pop()
            if self.steps[-1][1] != busy:
                self.steps.append((now, busy))
        self.launches += launches
        self.events += events

    def utilization(self, now):
        seconds = 0.0
        for (start, busy), (end, _next) in zip(self.steps, self.steps[1:]):
            seconds += busy * (end - start)
        start, busy = self.steps[-1]
        seconds += busy * (now - start)
        return seconds / (now * self.spec.total_threads)


def _plan_descriptor(draw, name):
    tpb = draw(st.sampled_from([128, 256, 512, 1024]))
    wave = min(SPEC.total_threads // tpb, SPEC.total_block_slots)
    # fewer blocks than a wave, whole waves only (tail 0), or a tail
    blocks = draw(st.one_of(
        st.integers(1, wave - 1),
        st.integers(1, 6).map(lambda w: w * wave),
        st.tuples(st.integers(1, 6), st.integers(1, wave - 1)).map(
            lambda t: t[0] * wave + t[1])))
    return KernelDescriptor(
        name, num_blocks=blocks, threads_per_block=tpb,
        block_duration=draw(st.sampled_from(
            [2.0 ** -15, 3e-6, 1.3e-5, 7.3e-5])))


def settle(device, descriptor, start, window, per=0, workers=0):
    """One kernel of ``descriptor`` settled by the trace walk under a
    decision for ``per``-block launches or ``workers`` PTB workers:
    its end (None if it did not run) and what the walk folded."""
    trace = Trace("one", (TraceOp("kernel", kernel=descriptor),), 0.0, 0.0)
    folded = []

    def decide(kernel, pool):
        return pool, device.launch_plans(kernel, per, workers), 0.0, None

    def fold(_measure, longest, active):
        folded.append((longest, active))

    _, end, kernels, _ = device.run_trace(trace, 0, start, window, None,
                                          False, ({}, decide, fold))
    return (end if kernels else None), folded


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
            want, steps, events = model.original(descriptor, start,
                                                 descriptor.num_blocks)
            ends = [want]
        elif kind == "slices":
            ends, steps, events = model.chain(descriptor, start, size)
            want = ends[-1]
        else:
            want, steps, events = model.ptb(descriptor, start, size)
            ends = [want]
        bound = {"done": want, "inf": math.inf,
                 "done-ulp": math.nextafter(want or 0.0, -math.inf),
                 "done+ulp": math.nextafter(want or 0.0, math.inf)}[place]
        window = (bound, inclusive)
        if want is not None and not (want < bound
                                     or (want == bound and inclusive)):
            want = None
        if kind == "ptb":
            got, folded = settle(device, descriptor, start, window,
                                 workers=size)
        else:
            got, folded = settle(device, descriptor, start, window,
                                 size if kind == "slices" else 0)
        assert got == want
        if want is not None:
            model.commit(steps, len(ends), events)
            # each launch's elapsed time runs from its arrival
            longest = active = 0.0
            for submitted, end in zip([start] + ends, ends):
                elapsed = end - (submitted + SPEC.kernel_launch_overhead)
                active += elapsed
                longest = max(longest, elapsed)
            assert folded == [(longest, active)]
            now = want
        else:
            assert folded == []
        assert device.launches_completed == model.launches
        assert device.inline_events == model.events
        assert device.threads_free == SPEC.total_threads
        if now > 0:
            # the device is idle and nothing is queued: read it at the
            # last completion
            engine.now = now
            assert device.utilization() == model.utilization(now)
    end = now + 1e-3
    engine.schedule_at(end, lambda: None)
    engine.run()
    assert device.utilization() == model.utilization(end)


def test_a_speed_change_between_two_stretches_replans():
    """The same descriptor before and after a speed change: the second
    stretch is priced at the new speed, not from the cached plan."""
    descriptor = KernelDescriptor("k", num_blocks=2_000,
                                  threads_per_block=256,
                                  block_duration=1e-5)
    device = GPUDevice(SPEC, EventLoop())
    model = ClosedForm(SPEC)
    window = (math.inf, False)
    first = settle(device, descriptor, 0.0, window)[0]
    assert first == model.original(descriptor, 0.0, 2_000)[0]
    device.set_speed_factor(2.0)
    model.speed = 2.0
    second = settle(device, descriptor, first, window)[0]
    assert second == model.original(descriptor, first, 2_000)[0]
    assert second - first > first  # a stale plan would equal it
