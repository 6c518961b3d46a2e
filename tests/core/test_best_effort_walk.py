"""Tally's best-effort walk against the per-kernel chain it replaced.

A Tally best-effort client's kernels settle in
:meth:`GPUDevice.run_trace`'s walk under each descriptor's standing
decision (``Tally._decide``, ``Tally._fold``).  Before, every kernel
took the whole scheduler chain: a pick (``_pick`` -> ``pick`` ->
``_select``), one ``run_solo``/``run_solo_ptb`` call, the scheduler's
measurement of the execution and ``record`` with its EMA update.  That
chain is kept here as the oracle, with its own copies of the inline
arithmetic, of the measurement and of ``record``'s update; it shares
only the profiler's pick, ``add`` and ``revise`` with the code under
test.  Hypothesis draws best-effort traces, Tally configurations
(prewarm on and off, no transformations, turnaround bounds that make
PTB, sliced or whole launches win and verdicts relaxed), and runs of
stretches over them on two Tally instances, one per side: windows far
away or cutting a kernel at its end or one ulp off it, changes of the
free pool and of the speed factor between stretches, and samples the
event path records between stretches (which drop verdicts).  After
every stretch both sides agree with ``==`` on the returned index,
time and counts, the completions, every profile (measurements,
verdict, runner-up, bound), the profiler's counters, ``TallyStats``,
``ClientInfo``, the four busy-time fields, ``launches_completed`` and
``inline_events``.
"""

import copy
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import Priority, SharingPolicy
from repro.core import Tally, TallyConfig
from repro.core.candidates import ORIGINAL_CONFIG, SchedKind
from repro.core.profiler import Measurement
from repro.gpu import A100_SXM4_40GB, EventLoop, GPUDevice, KernelDescriptor
from repro.workloads.models import Trace, TraceOp

SPEC = A100_SXM4_40GB
ALPHA = 0.3
BUSY_FIELDS = ("_busy_thread_seconds", "_last_change", "_busy_level",
               "_touched")

_settings = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def settle(device, plans, start):
    """Account a chain of launch plans submitted from ``start`` on the
    device's busy-time fields, as the inline path did; return the ends."""
    seconds, last, level, touched = (getattr(device, name)
                                     for name in BUSY_FIELDS)
    ends = []
    now = start
    for span, tail_span, busy, wave_busy, tail_busy, count in plans:
        arrived = now + device.spec.kernel_launch_overhead
        steps = [(arrived, busy)]
        if tail_span is None:
            done = arrived + span
            steps.append((done, wave_busy))
        else:
            done = arrived + tail_span
            steps += [(arrived + span, wave_busy), (done, tail_busy)]
        for at, count_after in steps:
            if at != touched:
                if count_after != level:
                    seconds += level * (touched - last)
                    last = touched
                    level = count_after
                touched = at
        device.launches_completed += 1
        device.inline_events += count
        ends.append(done)
        now = done
    for name, value in zip(BUSY_FIELDS, (seconds, last, level, touched)):
        setattr(device, name, value)
    return ends


def record(tally, descriptor, config, turnaround, duration):
    """``TransparentProfiler.record`` as it was, with its EMA update."""
    profiler = tally.profiler
    profile = (profiler._profiles.get(descriptor)
               or profiler._profile(descriptor))
    existing = profile.by_config.get(config)
    if existing is None:
        profile.add(config, Measurement(turnaround, duration))
        return
    existing.turnaround += ALPHA * (turnaround - existing.turnaround)
    existing.duration += ALPHA * (duration - existing.duration)
    existing.samples += 1
    if profile.winner is not None:
        profile.revise(existing, tally.config.turnaround_latency_bound)


def chain_kernel(tally, descriptor, start, window):
    """One best-effort kernel through the old per-kernel chain: its end,
    or None (nothing counted or measured) outside ``window``."""
    config, profiling = tally._pick(descriptor)
    device = tally.device
    overhead = device.spec.kernel_launch_overhead
    pool = (device._threads_free, device._slots_free)
    total = descriptor.num_blocks
    if config.kind is SchedKind.PTB:
        plan = device._ptb_plan((descriptor, config.workers, *pool))
        if plan is None:
            return None
        plans = [plan]
    else:
        per = config.blocks_per_slice or total
        whole, rest = divmod(total, per)
        plans = [device._solo_plan((descriptor, per, *pool))] * whole
        if rest:
            plans.append(device._solo_plan((descriptor, rest, *pool)))
    end = start
    for plan in plans:
        end = (end + overhead) + (plan[1] or plan[0])
    bound, inclusive = window
    if end > bound or (end == bound and not inclusive):
        return None
    ends = settle(device, plans, start)
    elapsed = [done - (submitted + overhead)
               for submitted, done in zip([start] + ends, ends)]
    if config.kind is SchedKind.SLICED:
        tally.stats.slices_launched += len(ends)
        active = 0.0
        for part in elapsed:
            active += part + overhead
        record(tally, descriptor, config, max(elapsed), active)
    else:
        active = 0.0 + elapsed[0]
        turnaround = active
        if config.kind is SchedKind.PTB:
            tally.stats.ptb_launches += 1
            turnaround = active / max(1, math.ceil(total / config.workers))
        record(tally, descriptor, config, turnaround, active)
    tally._count_pick(profiling)
    tally.stats.be_kernels += 1
    return end


def chain_walk(tally, trace, index, start, window, completions, ends=None):
    """The per-op loop of a best-effort stretch, one chain per kernel."""
    ops = trace.ops
    bound, inclusive = window
    now = start
    kernels = gaps = 0
    while True:
        if index == len(ops):
            if completions is None:
                break
            index = 0
            completions.append(now)
        op = ops[index]
        if op.kind == "gap":
            end = now + op.gap
            if end > bound or (end == bound and not inclusive):
                break
            gaps += 1
        else:
            end = chain_kernel(tally, op.kernel, now, window)
            if end is None:
                break
            kernels += 1
        if ends is not None:
            ends.append(end)
        now = end
        index += 1
    return index, now, kernels, gaps


def look(tally):
    """Everything the two sides must agree on."""
    device, profiler = tally.device, tally.profiler
    profiles = {
        descriptor: (profile.measured, profile.by_config, profile.unmeasured,
                     profile.winner, profile.runner, profile.bound,
                     profile.relaxed, profile.others_least)
        for descriptor, profile in profiler._profiles.items()}
    return (profiles, profiler.profiling_runs, profiler.decisions,
            tally.stats, tally.clients["be"],
            tuple(getattr(device, name) for name in BUSY_FIELDS),
            device.launches_completed, device.inline_events)


@st.composite
def kernels(draw, name):
    tpb = draw(st.sampled_from([128, 256, 1024]))
    wave = min(SPEC.total_threads // tpb, SPEC.total_block_slots)
    blocks = draw(st.one_of(st.integers(1, 8),
                            st.integers(1, 4).map(lambda w: w * wave),
                            st.integers(2, 6 * wave)))
    return KernelDescriptor(name, num_blocks=blocks, threads_per_block=tpb,
                            block_duration=draw(st.sampled_from(
                                [2.0 ** -16, 3e-6, 1.3e-5])),
                            ptb_overhead_fraction=draw(st.sampled_from(
                                [0.0, 0.03, 0.2])))


@st.composite
def traces(draw):
    # few distinct descriptors, so that decisions stand and are reused
    pool = [draw(kernels(f"k{i}")) for i in range(draw(st.integers(1, 3)))]
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            ops.append(TraceOp("gap", gap=draw(st.sampled_from(
                [1e-6, 2.0 ** -18]))))
        else:
            ops.append(TraceOp("kernel", kernel=draw(st.sampled_from(pool))))
    return Trace("t", tuple(ops), 0.0, 0.0)


CONFIGS = st.builds(
    TallyConfig,
    prewarm_profiles=st.booleans(),
    use_transformations=st.sampled_from([True, True, True, False]),
    turnaround_latency_bound=st.sampled_from([1e-9, 2e-5, 1e-4, 1.0]))

FAR = 5e-4
PLACES = ("far", "end", "end-ulp", "end+ulp")


@st.composite
def cases(draw):
    trace = draw(traces())
    steps = draw(st.lists(st.tuples(
        st.integers(0, 7),  # first op (mod the trace's length)
        st.sampled_from(PLACES),
        st.integers(0, 40),  # the op whose end bounds the window
        st.booleans(),  # the window includes its bound
        st.booleans(),  # a trainer: wraps, appending completions
        st.sampled_from([0, 0, 1, 3]),  # 1024-thread groups not free
        st.sampled_from([None, None, 1.0, 0.5, 1.7]),  # speed set before
        st.one_of(st.none(), st.tuples(  # a sample the event path records
            st.integers(0, 7), st.integers(0, 9),
            st.sampled_from([0.0, 1e-6, 3e-5, 1e-3]),
            st.sampled_from([1e-6, 3e-5, 1e-3]))),
    ), min_size=1, max_size=10))
    return draw(CONFIGS), trace, steps


def _side(config):
    engine = EventLoop()
    tally = Tally(GPUDevice(SPEC, engine), engine, config)
    tally.register_client("be", Priority.BEST_EFFORT)
    return tally


def _set_pool(device, taken):
    device._threads_free = SPEC.total_threads - 1024 * taken
    device._slots_free = SPEC.total_block_slots - taken


def _event_sample(tally, trace, sample):
    """A sample of one of the trace's kernels under one of its
    candidates, as the event path would record it."""
    op, candidate, turnaround, duration = sample
    kernels = [o.kernel for o in trace.ops if o.kind == "kernel"]
    if not kernels:
        return
    descriptor = kernels[op % len(kernels)]
    candidates = tally.profiler.candidates(descriptor)
    config = (candidates[candidate % len(candidates)]
              if tally.config.use_transformations else ORIGINAL_CONFIG)
    tally.profiler.record(descriptor, config, turnaround, duration)


@given(cases())
@_settings
def test_the_walk_equals_the_per_kernel_chain(case):
    config, trace, steps = case
    walked, chained = _side(config), _side(config)
    now = 0.0
    for (index, place, op, inclusive, trainer, taken, speed,
         sample) in steps:
        index %= len(trace.ops)
        for tally in (walked, chained):
            if speed is not None:
                tally.device.set_speed_factor(speed)
            _set_pool(tally.device, taken)
            if sample is not None:
                _event_sample(tally, trace, sample)
        bound = math.inf
        if place != "far":
            probe = copy.deepcopy(chained)
            ends = []
            chain_walk(probe, trace, index, now, (now + FAR, True),
                       [] if trainer else None, ends)
            if ends:
                bound = ends[op % len(ends)]
                if place == "end-ulp":
                    bound = math.nextafter(bound, -math.inf)
                elif place == "end+ulp":
                    bound = math.nextafter(bound, math.inf)
        if bound == math.inf and trainer:
            bound = now + FAR
        window = (bound, inclusive)
        want_completions = [] if trainer else None
        got_completions = [] if trainer else None
        want = chain_walk(chained, trace, index, now, window,
                          want_completions)
        SharingPolicy.count_inline(chained, "be", want[2])
        got = walked.device.run_trace(trace, index, now, window,
                                      got_completions, True,
                                      walked.inline_decisions("be"))
        walked.count_inline("be", got[2])
        assert got == want
        assert got_completions == want_completions
        assert look(walked) == look(chained)
        now = want[1]


def test_a_dropped_verdict_is_decided_again():
    """A sample that drops the verdict mid-run drops the standing
    decision with it: the next kernel is picked again, as the chain
    picks it."""
    kernel = KernelDescriptor("k", num_blocks=4000, threads_per_block=256,
                              block_duration=1e-5)
    trace = Trace("t", (TraceOp("kernel", kernel=kernel),), 0.0, 0.0)
    walked, chained = _side(TallyConfig()), _side(TallyConfig())
    now = 0.0
    for round_ in range(4):
        want = chain_walk(chained, trace, 0, now, (math.inf, True), None)
        got = walked.device.run_trace(trace, 0, now, (math.inf, True), None,
                                      True, walked.inline_decisions("be"))
        SharingPolicy.count_inline(chained, "be", want[2])
        walked.count_inline("be", got[2])
        assert got == want
        assert look(walked) == look(chained)
        profile = walked.profiler._profiles[kernel]
        assert profile.decision is not None
        winner = profile.candidates[profile.winner]
        for tally in (walked, chained):
            # the winner turns slow: the verdict (and decision) drop
            tally.profiler.record(kernel, winner, 1.0, 1.0)
        assert walked.profiler._profiles[kernel].decision is None
        now = want[1]
