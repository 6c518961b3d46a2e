"""The trace walk against the per-kernel loop it replaced.

A run-ahead stretch settles a passthrough (or Tally high-priority)
client's kernels in one call, :meth:`GPUDevice.run_trace`, against a
plan list resolved once per (trace, free pool, speed factor).  Before
it, :func:`~repro.workloads.runahead.run_ahead` walked the ops itself
and priced each kernel with one call of the former
``GPUDevice.run_solo``; that loop, with that call's own arithmetic, is
kept here as the oracle.
Hypothesis draws traces (host gaps, one-block grids, grids of whole
waves and grids with a partial wave) and runs of stretches over them
on two devices, one per side: windows inclusive and exclusive with the
bound exactly at a kernel's or a gap's end or one ulp off it, a pool
that is not full, speed changes between stretches, and trainer wraps.
After every stretch the two sides agree with ``==`` on the returned
index, time and counts, the completions, the four busy-time fields,
``launches_completed`` and ``inline_events``.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu import A100_SXM4_40GB, EventLoop, GPUDevice, KernelDescriptor
from repro.workloads.models import Trace, TraceOp

SPEC = A100_SXM4_40GB
BUSY_FIELDS = ("_busy_thread_seconds", "_last_change", "_busy_level",
               "_touched")

_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def solo(device, descriptor, start, window):
    """The former ``GPUDevice.run_solo`` for one whole launch as it was
    before the trace walk, with its own inline ``_account``: the kernel's end,
    or None (and nothing changed) if it lies outside ``window``."""
    key = (descriptor, descriptor.num_blocks, device._threads_free,
           device._slots_free)
    plan = device._solo_plans.get(key) or device._solo_plan(key)
    span, tail_span, busy, wave_busy, tail_busy, count = plan
    seconds, last, level, touched = (getattr(device, name)
                                     for name in BUSY_FIELDS)
    arrived = start + device.spec.kernel_launch_overhead
    end = arrived + span
    if arrived != touched:
        if busy != level:
            seconds += level * (touched - last)
            last = touched
            level = busy
        touched = arrived
    if tail_span is None:
        done = end
        final = wave_busy
    else:
        done = arrived + tail_span
        final = tail_busy
        if end != touched:
            if wave_busy != level:
                seconds += level * (touched - last)
                last = touched
                level = wave_busy
            touched = end
    if done != touched:
        if final != level:
            seconds += level * (touched - last)
            last = touched
            level = final
        touched = done
    bound, inclusive = window
    if done > bound or (done == bound and not inclusive):
        return None
    for name, value in zip(BUSY_FIELDS, (seconds, last, level, touched)):
        setattr(device, name, value)
    device.launches_completed += 1
    device.inline_events += count
    return done


def oracle(device, trace, index, start, window, completions, crosses_gaps,
           ends=None):
    """The per-op loop ``run_ahead`` ran before the trace walk, one
    :func:`solo` call per kernel; ``ends``, if given, receives every
    op's end."""
    ops = trace.ops
    last = len(ops)
    bound, inclusive = window
    now = start
    kernels = gaps = 0
    while True:
        if index == last:
            if completions is None:
                break
            index = 0
            completions.append(now)
        op = ops[index]
        if op.kind == "gap":
            end = now + op.gap
            if (not crosses_gaps or end > bound
                    or (end == bound and not inclusive)):
                break
            gaps += 1
        else:
            end = solo(device, op.kernel, now, window)
            if end is None:
                break
            kernels += 1
        if ends is not None:
            ends.append(end)
        now = end
        index += 1
    return index, now, kernels, gaps


def _state(device):
    return (tuple(getattr(device, name) for name in BUSY_FIELDS),
            device.launches_completed, device.inline_events)


@st.composite
def kernels(draw, name):
    tpb = draw(st.sampled_from([64, 256, 1024]))
    wave = min(SPEC.total_threads // tpb, SPEC.total_block_slots)
    # one block, whole waves of a full pool, or a partial last wave
    blocks = draw(st.one_of(
        st.just(1),
        st.integers(1, 4).map(lambda w: w * wave),
        st.integers(2, 5 * wave)))
    return KernelDescriptor(name, num_blocks=blocks, threads_per_block=tpb,
                            block_duration=draw(st.sampled_from(
                                [2.0 ** -16, 3e-6, 1.3e-5])))


@st.composite
def traces(draw, name):
    size = draw(st.integers(1, 8))
    ops = []
    for i in range(size):
        if draw(st.integers(0, 3)) == 0:
            ops.append(TraceOp("gap", gap=draw(st.sampled_from(
                [1e-6, 2.0 ** -18, 7.5e-6]))))
        else:
            ops.append(TraceOp("kernel", kernel=draw(kernels(f"{name}{i}"))))
    return Trace(name, tuple(ops), 0.0, 0.0)


#: a trainer's unbounded stretch stops this long after its start
FAR = 5e-4
#: where a stretch's window ends: far away, or at (or one ulp either
#: side of) the end of one of the ops the stretch would run unbounded
PLACES = ("far", "end", "end-ulp", "end+ulp")


@st.composite
def stretches(draw):
    """Two traces and a run of stretches over them: ``(trace, index,
    delay, place, op, inclusive, trainer, crosses_gaps, pool, speed)``."""
    pair = [draw(traces("a")), draw(traces("b"))]
    steps = draw(st.lists(st.tuples(
        st.integers(0, 1),  # trace
        st.integers(0, 7),  # first op (mod its length)
        st.sampled_from([0.0, 1e-6, 2.0 ** -20]),  # delay before it
        st.sampled_from(PLACES),
        st.integers(0, 40),  # the op whose end bounds the window
        st.booleans(),  # the window includes its bound
        st.booleans(),  # a trainer: wraps, appending completions
        st.booleans(),  # gaps run inline
        st.sampled_from([0, 1, 3]),  # 1024-thread groups not free
        st.sampled_from([None, 1.0, 0.5, 1.7]),  # speed set before it
    ), min_size=1, max_size=10))
    return pair, steps


def _set_pool(device, taken):
    """An idle device whose pool lacks ``taken`` 1024-thread blocks'
    threads and slots (it stays idle: the walk only reads the pool)."""
    device._threads_free = SPEC.total_threads - 1024 * taken
    device._slots_free = SPEC.total_block_slots - taken


@given(stretches())
@_settings
def test_the_walk_equals_the_per_kernel_loop(case):
    pair, steps = case
    walked = GPUDevice(SPEC, EventLoop())
    looped = GPUDevice(SPEC, EventLoop())
    now = 0.0
    for (which, index, delay, place, op, inclusive, trainer, crosses_gaps,
         taken, speed) in steps:
        trace = pair[which]
        index %= len(trace.ops)
        start = now + delay
        for device in (walked, looped):
            if speed is not None:
                device.set_speed_factor(speed)
            _set_pool(device, taken)
        bound = math.inf
        if place != "far":
            # the ends of an unbounded stretch, on a device of the same
            # pool and speed (a walk's times depend on nothing else)
            probe = GPUDevice(SPEC, EventLoop())
            probe.set_speed_factor(looped.speed_factor)
            _set_pool(probe, taken)
            ends = []
            oracle(probe, trace, index, start, (start + FAR, True),
                   [] if trainer else None, crosses_gaps, ends)
            if ends:
                bound = ends[op % len(ends)]
                if place == "end-ulp":
                    bound = math.nextafter(bound, -math.inf)
                elif place == "end+ulp":
                    bound = math.nextafter(bound, math.inf)
        if bound == math.inf and trainer:
            bound = start + FAR
        window = (bound, inclusive)
        want_completions = [] if trainer else None
        got_completions = [] if trainer else None
        want = oracle(looped, trace, index, start, window, want_completions,
                      crosses_gaps)
        got = walked.run_trace(trace, index, start, window, got_completions,
                               crosses_gaps)
        assert got == want
        assert got_completions == want_completions
        assert _state(walked) == _state(looped)
        now = want[1]


def _trainer_trace():
    ops = []
    for i in range(6):
        ops.append(TraceOp("kernel", kernel=KernelDescriptor(
            f"k{i}", num_blocks=700 + 150 * i, threads_per_block=256,
            block_duration=1e-5)))
        if i % 3 == 2:
            ops.append(TraceOp("gap", gap=4e-6))
    return Trace("trainer", tuple(ops), 0.0, 0.0)


def _walk_both(trace, window, *, taken=0, speed=None, start=0.0):
    walked = GPUDevice(SPEC, EventLoop())
    looped = GPUDevice(SPEC, EventLoop())
    for device in (walked, looped):
        _set_pool(device, taken)
        if speed is not None:
            device.set_speed_factor(speed)
    want, got = [], []
    assert (walked.run_trace(trace, 0, start, window, got, True)
            == oracle(looped, trace, 0, start, window, want, True))
    assert got == want
    assert _state(walked) == _state(looped)
    return walked, got


def test_a_stretch_wraps_a_trainers_iterations():
    trace = _trainer_trace()
    ends = []
    oracle(GPUDevice(SPEC, EventLoop()), trace, 0, 0.0, (1e-3, True), [],
           True, ends)
    _, completions = _walk_both(trace, (ends[-1], True))
    assert len(completions) >= 3


@pytest.mark.parametrize("inclusive", [True, False])
def test_the_window_bound_at_a_kernels_end(inclusive):
    """A kernel ending exactly at the bound runs only in an inclusive
    window; in an exclusive one the walk stops before it and leaves its
    busy time and counts uncommitted."""
    trace = _trainer_trace()
    ends = []
    oracle(GPUDevice(SPEC, EventLoop()), trace, 0, 0.0, (1e-3, True), None,
           True, ends)
    assert trace.ops[4].kind == "kernel"
    device, _ = _walk_both(trace, (ends[4], inclusive))
    assert device.launches_completed == (4 if inclusive else 3)


def test_one_device_replans_on_a_new_pool_and_a_new_speed():
    """One device walks the same trace under two pools and two speeds;
    each walk equals a fresh device's per-kernel loop."""
    trace = _trainer_trace()
    walked = GPUDevice(SPEC, EventLoop())
    now = 0.0
    for taken, speed in ((0, 1.0), (3, 1.0), (3, 2.0), (0, 2.0), (0, 1.0)):
        _set_pool(walked, taken)
        walked.set_speed_factor(speed)
        looped = GPUDevice(SPEC, EventLoop())
        _set_pool(looped, taken)
        looped.set_speed_factor(speed)
        for name in BUSY_FIELDS:
            setattr(looped, name, getattr(walked, name))
        window = (math.inf, True)
        got = walked.run_trace(trace, 0, now, window, None, True)
        assert got == oracle(looped, trace, 0, now, window, None, True)
        assert ([getattr(walked, name) for name in BUSY_FIELDS]
                == [getattr(looped, name) for name in BUSY_FIELDS])
        now = got[1]
