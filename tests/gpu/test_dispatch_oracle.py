"""Dispatch over the waiting list ≡ the resident scan, bit for bit.

``GPUDevice._dispatch`` visits only the launches on the device's waiting
list, skips a single launch that fits no block's threads, hands freed
slots straight to the one launch of a level and resumes after a level
whose launches left the list meanwhile.  The oracle here is the
resident-scan dispatch it replaced (``_dispatch``, ``_dispatch_single``
and ``_dispatch_group``, with the scan in ``_alone_on_device``), copied
into this file and patched in, with every boundary taking the full
release → finalize-or-dispatch body (no settle-loop walk).  The same
inputs must give identical outcomes, ``events``, ``utilization()`` and
checker findings (``==``, not ``approx``), also when preemptions and
kills land on a wave boundary or one ulp either side of it.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import InvariantChecker
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
# The oracle: the resident-scan dispatch
# ----------------------------------------------------------------------
def _oracle_dispatch(self):
    resident = self._resident
    if not resident or self._slots_free <= 0:
        return
    i = 0
    n = len(resident)
    while i < n and self._slots_free > 0:
        priority = resident[i].priority
        j = i
        first = None
        group = None
        while j < n and resident[j].priority == priority:
            launch = resident[j]
            if launch.blocks_to_start > 0 and not launch.preempt_requested:
                if first is None:
                    first = launch
                elif group is None:
                    group = [first, launch]
                else:
                    group.append(launch)
            j += 1
        if group is not None:
            self._dispatch_group(group)
        elif first is not None:
            self._dispatch_single(first)
        i = j


def _oracle_dispatch_single(self, launch):
    descriptor = launch.descriptor
    tpb = descriptor.threads_per_block
    fit = self._threads_free // tpb
    if fit > self._slots_free:
        fit = self._slots_free
    if fit > launch.blocks_to_start:
        fit = launch.blocks_to_start
    if fit <= 0:
        return
    capacity = self._capacity(tpb, descriptor.shared_mem_per_block)
    min_chunk = capacity // 8
    if min_chunk > launch.blocks_to_start:
        min_chunk = launch.blocks_to_start
    if fit < min_chunk:
        return
    self._start_batch(launch, fit, solo=True)


def _oracle_dispatch_group(self, group):
    self._rr = (self._rr + 1) % len(group)
    group = group[self._rr:] + group[:self._rr]
    progress = True
    while progress and self._slots_free > 0:
        progress = False
        pending = [l for l in group if l.blocks_to_start > 0]
        if not pending:
            return
        share = max(1, self._slots_free // len(pending))
        for launch in pending:
            tpb = launch.descriptor.threads_per_block
            fit = min(
                self._threads_free // tpb,
                self._slots_free,
                launch.blocks_to_start,
            )
            if len(pending) > 1:
                fit = min(fit, share)
            if fit <= 0:
                continue
            min_chunk = min(
                launch.blocks_to_start,
                max(1, self._capacity(
                    tpb, launch.descriptor.shared_mem_per_block) // 8),
            )
            if fit < min_chunk:
                continue
            self._start_batch(launch, fit)
            progress = True


def _oracle_alone_on_device(self, launch):
    if (self._threads_free + launch.blocks_inflight
            * launch.descriptor.threads_per_block != self._total_threads):
        return False
    if self._slots_free + launch.blocks_inflight \
            != self.spec.total_block_slots:
        return False
    for other in self._resident:
        if (other is not launch and other.blocks_to_start > 0
                and not other.preempt_requested):
            return False
    return True


def _oracle(mp):
    """Patch the resident-scan dispatch in, and the walk off."""
    mp.setattr(GPUDevice, "_dispatch", _oracle_dispatch)
    mp.setattr(GPUDevice, "_dispatch_single", _oracle_dispatch_single)
    mp.setattr(GPUDevice, "_dispatch_group", _oracle_dispatch_group)
    mp.setattr(GPUDevice, "_alone_on_device", _oracle_alone_on_device)
    mp.setattr(GPUDevice, "_pure_refill", lambda self, *args: False)


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


def _simulate(launches, disruptions=(), boundaries=None, *, check=False,
              probe=None):
    """Run one mix to the end: per-launch outcomes, ``events``,
    ``utilization()`` and checker findings."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine, check=(
        InvariantChecker(raise_on_violation=False) if check else None))
    if probe is not None:
        finish = device._finish_batch

        def record(launch, count, threads):
            probe.append(engine.now)
            finish(launch, count, threads)

        device._finish_batch = record
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
            getattr(device.check, "violations", None))


def _compare(launches, disruptions=()):
    boundaries: list[float] = []
    with pytest.MonkeyPatch.context() as mp:
        _oracle(mp)
        _simulate(launches, probe=boundaries)
        oracle = _simulate(launches, disruptions, boundaries, check=True)
    # checked runs take the full body at every boundary, so the walk
    # is compared unchecked
    walk = _simulate(launches, disruptions, boundaries)
    checked = _simulate(launches, disruptions, boundaries, check=True)
    assert walk[:3] == oracle[:3]
    assert checked == oracle
    return oracle


@given(launch_mix())
@_settings
def test_dispatch_matches_the_resident_scan(mix):
    launches, disruptions = mix
    _compare(launches, disruptions)


def test_a_level_of_one_that_fits_no_thread_is_skipped():
    """A grid of 1024-thread blocks takes every thread but leaves slots
    free; the launch below it, with fewer threads per block, fits none
    of them at each boundary until the grid is done."""
    _compare([(216 * 4, 1024, 0, 2e-5, 0, 0.0, 0),
              (2_000, 256, 0, 1e-5, 1, 0.0, 0)])


@pytest.mark.parametrize("blocks", [1, 3])
def test_a_remainder_that_exactly_fits_starts_at_once(blocks):
    """A grid leaves exactly ``blocks`` blocks' threads free, and a
    launch of that many blocks below it starts at once: a level whose
    one launch fits exactly is not skipped, and a remainder that fits
    whole is not held back by the coalescing minimum."""
    _compare([(216 - blocks, 1024, 0, 1e-3, 0, 0.0, 0),
              (blocks, 1024, 0, 1e-5, 1, 1e-5, 0)])


def test_freed_slots_hand_off_between_levels():
    """A high-priority grid and a best-effort grid trade slots at each
    other's boundaries: one releases, the other starts a chunk."""
    _compare([(3_000, 256, 0, 2.1e-5, 0, 1e-5, 0),
              (20_000, 128, 0, 3.3e-5, 1, 0.0, 0),
              (5_000, 512, 48 * 1024, 1.7e-5, 1, 4e-5, 0)])


def test_launches_leaving_the_list_mid_dispatch():
    """A grid holds every thread while three levels queue below it;
    when it ends, one dispatch starts the last blocks of the first
    level's launches, which leave the waiting list, and goes on to the
    levels below."""
    oracle = _compare([(216, 1024, 0, 1e-4, 0, 0.0, 0),
                       (100, 256, 0, 1e-5, 1, 1e-5, 0),
                       (150, 128, 0, 2e-5, 1, 1e-5, 0),
                       (9_000, 256, 0, 1.5e-5, 2, 1e-5, 0),
                       (700, 64, 0, 3e-5, 3, 1e-5, 64)])
    assert oracle[3] == []
