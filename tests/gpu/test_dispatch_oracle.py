"""Dispatch over the waiting list ≡ the reference's resident scan.

``GPUDevice._dispatch`` visits only the launches on the device's waiting
list, skips a single launch that fits no block's threads, hands freed
slots straight to the one launch of a level and resumes after a level
whose launches left the list meanwhile.  The oracle here is the naive
reference device (:class:`~repro.check.reference.ReferenceDevice`),
which scans every resident launch level by level at every wave
boundary.  The same inputs must give identical outcomes, ``events``,
``utilization()`` and free pools (``==``, not ``approx``), for the
device as runs use it and for the device with the invariant checker
(which must find nothing), also when preemptions and kills land on a
wave boundary or one ulp either side of it.  A mix in which the
reference flags the group dispatch's priority inversion (ROADMAP item
8) is not compared.
"""

import math

import pytest

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.check import InvariantChecker
from repro.check.reference import ReferenceDevice
from repro.gpu import (
    A100_SXM4_40GB,
    DeviceLaunch,
    EventLoop,
    GPUDevice,
    KernelDescriptor,
    LaunchConfig,
    LaunchKind,
)

SPEC = A100_SXM4_40GB

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def launch_mix(draw):
    """2-4 launches at 1-3 priority levels (so levels often hold a
    group), some PTB, some with shared memory (a larger coalescing
    minimum), plus preemptions and kills placed on (or one ulp either
    side of) a wave boundary of the undisturbed run."""
    levels = draw(st.integers(min_value=1, max_value=3))
    launches = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        launches.append((
            draw(st.integers(min_value=50, max_value=12_000)),
            draw(st.sampled_from([64, 128, 256, 512, 1024])),
            draw(st.sampled_from([0, 0, 24 * 1024, 48 * 1024])),
            draw(st.floats(min_value=5e-6, max_value=1e-4)),
            draw(st.integers(min_value=0, max_value=levels - 1)),
            draw(st.floats(min_value=0.0, max_value=2e-4)),
            draw(st.sampled_from([0, 0, 0, 64, 300])),  # PTB workers
        ))
    disruptions = draw(st.lists(st.tuples(
        st.sampled_from(["preempt", "kill"]),
        st.integers(min_value=0, max_value=10_000),  # which boundary
        st.integers(min_value=0, max_value=3),       # which launch
        st.sampled_from([-1, 0, 1]),                 # ulps off it
    ), max_size=3))
    return launches, disruptions


@st.composite
def partial_fit_mix(draw):
    """A grid that leaves exactly ``fit`` blocks' threads and slots free,
    and one launch below it that wants more than that: ``fit`` lies
    between an eighth and a quarter of the waiting launch's capacity,
    the band where the coalescing minimum decides whether a partial
    chunk starts."""
    tpb = draw(st.sampled_from([64, 128, 256, 512, 1024]))
    smem = draw(st.sampled_from([0, 24 * 1024, 48 * 1024]))
    capacity = SPEC.concurrent_blocks(tpb, smem)
    fit = draw(st.integers(min_value=capacity // 8,
                           max_value=capacity // 4 - 1))
    duration = draw(st.floats(min_value=5e-5, max_value=1e-4))
    grid = (SPEC.concurrent_blocks(tpb, 0) - fit, tpb, 0, duration, 0,
            0.0, 0)
    waiting = (fit + draw(st.integers(min_value=1, max_value=5_000)), tpb,
               smem, draw(st.floats(min_value=5e-6, max_value=1e-4)), 1,
               draw(st.floats(min_value=1e-6, max_value=duration / 2)), 0)
    return [grid, waiting]


def _simulate(launches, disruptions=(), boundaries=None, *, world="walk",
              probe=None):
    """Run one mix to the end in ``world`` (``"walk"``, ``"checked"`` or
    ``"reference"``): per-launch outcomes, ``events``, ``utilization()``,
    the free pools, the checker's findings and the reference's
    ``diverged``.  ``probe`` collects the reference's boundaries."""
    engine = EventLoop()
    if world == "reference":
        device = ReferenceDevice(SPEC, engine)
        if probe is not None:
            for name in ("_wave_done", "_iteration_done"):
                done = getattr(device, name)

                def record(*args, done=done):
                    probe.append(engine.now)
                    done(*args)

                setattr(device, name, record)
    else:
        device = GPUDevice(SPEC, engine, check=(
            InvariantChecker(raise_on_violation=False)
            if world == "checked" else None))
    made = []
    for i, (blocks, tpb, smem, duration, priority, at, workers) in enumerate(
            launches):
        launch = DeviceLaunch(
            KernelDescriptor(f"k{i}", num_blocks=blocks,
                             threads_per_block=tpb, block_duration=duration,
                             shared_mem_per_block=smem),
            LaunchConfig(LaunchKind.PTB, workers) if workers
            else LaunchConfig(),
            client_id=f"c{i}", priority=priority)
        made.append(launch)
        engine.schedule_at(at, lambda l=launch: device.submit(l))
    for kind, which, target, ulps in disruptions:
        if not boundaries:
            break
        when = boundaries[which % len(boundaries)]
        for _ in range(abs(ulps)):
            when = math.nextafter(when, math.copysign(math.inf, ulps))
        act = device.preempt if kind == "preempt" else device.kill
        victim = made[target % len(made)]
        engine.schedule_at(when, lambda v=victim, fn=act: fn(v))
    engine.run()

    def exact(x):
        return None if math.isnan(x) else x

    outcome = [(exact(l.started_at), exact(l.finished_at), l.blocks_done,
                l.blocks_killed, l.status) for l in made]
    return (outcome, engine.events_processed, device.utilization(),
            device.threads_free, device.slots_free,
            getattr(device.check, "violations", None) if world == "checked"
            else getattr(device, "diverged", None))


def _compare(launches, disruptions=()):
    boundaries: list[float] = []
    _simulate(launches, world="reference", probe=boundaries)
    reference = _simulate(launches, disruptions, boundaries,
                          world="reference")
    if reference[5] is not None:
        return None  # the reference flagged ROADMAP item 8
    walk = _simulate(launches, disruptions, boundaries)
    checked = _simulate(launches, disruptions, boundaries, world="checked")
    assert walk[:5] == reference[:5]
    assert checked[:5] == reference[:5]
    assert checked[5] == []
    return reference


@given(launch_mix())
@_settings
def test_dispatch_matches_the_resident_scan(mix):
    launches, disruptions = mix
    assume(_compare(launches, disruptions) is not None)


@given(partial_fit_mix())
@_settings
def test_a_partial_fit_above_the_coalescing_minimum_starts(launches):
    assert _compare(launches) is not None


def test_a_level_of_one_that_fits_no_thread_is_skipped():
    """A grid of 1024-thread blocks takes every thread but leaves slots
    free; the launch below it, with fewer threads per block, fits none
    of them at each boundary until the grid is done."""
    assert _compare([(216 * 4, 1024, 0, 2e-5, 0, 0.0, 0),
                    (2_000, 256, 0, 1e-5, 1, 0.0, 0)]) is not None


@pytest.mark.parametrize("blocks", [1, 3])
def test_a_remainder_that_exactly_fits_starts_at_once(blocks):
    """A grid leaves exactly ``blocks`` blocks' threads free, and a
    launch of that many blocks below it starts at once: a level whose
    one launch fits exactly is not skipped, and a remainder that fits
    whole is not held back by the coalescing minimum."""
    assert _compare([(216 - blocks, 1024, 0, 1e-3, 0, 0.0, 0),
                    (blocks, 1024, 0, 1e-5, 1, 1e-5, 0)]) is not None


def test_freed_slots_hand_off_between_levels():
    """A high-priority grid and a best-effort grid trade slots at each
    other's boundaries: one releases, the other starts a chunk."""
    assert _compare([(3_000, 256, 0, 2.1e-5, 0, 1e-5, 0),
                    (20_000, 128, 0, 3.3e-5, 1, 0.0, 0),
                    (5_000, 512, 48 * 1024, 1.7e-5, 1, 4e-5, 0)]) is not None


def test_launches_leaving_the_list_mid_dispatch():
    """A grid holds every thread while three levels queue below it;
    when it ends, one dispatch starts the last blocks of the first
    level's launches, which leave the waiting list, and goes on to the
    levels below."""
    assert _compare([(216, 1024, 0, 1e-4, 0, 0.0, 0),
                    (100, 256, 0, 1e-5, 1, 1e-5, 0),
                    (150, 128, 0, 2e-5, 1, 1e-5, 0),
                    (9_000, 256, 0, 1.5e-5, 2, 1e-5, 0),
                    (700, 64, 0, 3e-5, 3, 1e-5, 64)]) is not None
