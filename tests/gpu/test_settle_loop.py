"""The device's settle loop: walk ≡ per-wave body, bit for bit.

Every ORIGINAL wave and PTB iteration is a record in a device-private
heap behind one proxy event; the settle loop runs their boundaries in
the per-wave model's key order, and the boundaries that only restart
their own chunk (``GPUDevice._pure_refill``) skip release and dispatch
and run in one step (see ``docs/performance.md``, "Wave records").
These tests run the same
inputs with that walk on and with the predicate patched to refuse every
boundary — so each one runs the full release → finalize-or-dispatch
body — and demand identical results (``==``, not ``approx``):
outcomes, ``events``, ``utilization()`` and checker findings, also when
arrivals, preemptions and kills land exactly on a wave boundary or one
ulp either side of it, and whatever horizons the loop is drained to.
The loop keeps each launch's True verdict until its next full body;
the last tests pin that cache down on the cases where it runs out.
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
from repro.gpu.engine import credited_total
from repro.harness import JobSpec, RunConfig, run_colocation

SPEC = A100_SXM4_40GB

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _no_walk(monkeypatch_context):
    monkeypatch_context.setattr(GPUDevice, "_pure_refill",
                                lambda self, *args: False)


@st.composite
def colocated_mix(draw):
    """2-3 clients at two priority levels, mostly ORIGINAL (a PTB
    client's iterations are re-priced when another client's residency
    flips), plus disruptions placed on (or one ulp either side of) a
    wave boundary of the undisturbed run."""
    clients = []
    for i in range(draw(st.integers(min_value=2, max_value=3))):
        clients.append((
            draw(st.integers(min_value=200, max_value=30_000)),
            draw(st.sampled_from([64, 128, 256, 512, 1024])),
            draw(st.floats(min_value=5e-6, max_value=1e-4)),
            i % 2 if i < 2 else draw(st.integers(min_value=0, max_value=1)),
            draw(st.floats(min_value=0.0, max_value=3e-4)),
            draw(st.sampled_from([0, 0, 0, 64, 300])),  # PTB workers
        ))
    disruptions = draw(st.lists(st.tuples(
        # "arrive" is scheduled by the submitting event itself (born on
        # the boundary); "arrive-early" a little before the boundary
        st.sampled_from(["arrive", "arrive-early", "preempt", "kill"]),
        st.integers(min_value=0, max_value=10_000),  # which boundary
        st.integers(min_value=0, max_value=2),       # which client
        st.sampled_from([-1, 0, 1]),                 # ulps off it
    ), min_size=0, max_size=3))
    return clients, disruptions


def _build(clients, disruptions=(), boundaries=None, *, check=False,
           probe=None):
    """Set one mix up on a fresh loop; return ``(engine, device,
    launches)`` with every submission and disruption scheduled."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine, check=(
        InvariantChecker(raise_on_violation=False) if check else None))
    if probe is not None:
        finish = device._finish_batch

        def record(launch, count, threads):
            probe.append(engine.now)
            finish(launch, count, threads)

        device._finish_batch = record
    launches = []
    for i, (blocks, tpb, duration, priority, at, workers) in enumerate(
            clients):
        launch = DeviceLaunch(
            KernelDescriptor(f"k{i}", num_blocks=blocks,
                             threads_per_block=tpb, block_duration=duration),
            LaunchConfig(LaunchKind.PTB, workers) if workers
            else LaunchConfig(),
            client_id=f"c{i}", priority=priority)
        launches.append(launch)
        engine.schedule_at(at, lambda l=launch: device.submit(l))
    for kind, which, target, ulps in disruptions:
        if not boundaries:
            break
        when = boundaries[which % len(boundaries)]
        for _ in range(abs(ulps)):
            when = math.nextafter(when, math.copysign(math.inf, ulps))
        if kind.startswith("arrive"):
            extra = DeviceLaunch(
                KernelDescriptor("x", num_blocks=777, threads_per_block=128,
                                 block_duration=2.2e-5),
                client_id="x", priority=0)
            launches.append(extra)

            def submit(l=extra):
                device.submit(l, launch_overhead=0.0)

            if kind == "arrive":
                engine.schedule_at(when, submit)
            else:
                engine.schedule_at(
                    max(0.0, when - 1e-7),
                    lambda t=when, fn=submit: engine.schedule_at(t, fn))
        else:
            victim = launches[target % len(clients)]
            act = device.preempt if kind == "preempt" else device.kill
            engine.schedule_at(when, lambda v=victim, fn=act: fn(v))
    return engine, device, launches


def _result(engine, device, launches):
    """Per-launch outcomes, events, utilization and checker findings."""
    def exact(x):
        return None if math.isnan(x) else x

    outcome = [(exact(l.started_at), exact(l.finished_at), l.blocks_done,
                l.status) for l in launches]
    return (outcome, engine.events_processed, device.utilization(),
            getattr(device.check, "violations", None))


def _simulate(clients, disruptions=(), boundaries=None, *, check=False,
              probe=None):
    """Run one mix to the end; see :func:`_result`."""
    engine, device, launches = _build(clients, disruptions, boundaries,
                                      check=check, probe=probe)
    engine.run()
    return _result(engine, device, launches)


def _boundaries(clients):
    """The wave boundaries of the undisturbed per-wave run."""
    boundaries: list[float] = []
    with pytest.MonkeyPatch.context() as mp:
        _no_walk(mp)
        _simulate(clients, probe=boundaries)
    return boundaries


class TestWalkMatchesPerWave:
    @given(colocated_mix())
    @_settings
    def test_walk_is_bit_identical(self, mix):
        clients, disruptions = mix
        boundaries = _boundaries(clients)
        with pytest.MonkeyPatch.context() as mp:
            _no_walk(mp)
            per_wave = _simulate(clients, disruptions, boundaries,
                                 check=True)
        # a checked run takes the full body at every boundary, so the
        # walk is compared unchecked; the checked loop reports what the
        # per-wave body does (its own findings are pinned elsewhere)
        walk = _simulate(clients, disruptions, boundaries)
        checked = _simulate(clients, disruptions, boundaries, check=True)
        assert walk[:3] == per_wave[:3]
        assert checked == per_wave

    def test_fragmented_grids_walk_and_agree(self):
        # A small high-priority grid lands on a device full of a wide
        # best-effort grid: both fragment into chunks that refill
        # themselves, which the loop settles without the event heap.
        clients = [
            (20_000, 256, 40e-6, 1, 0.0, 0),
            (9_000, 128, 31e-6, 0, 57e-6, 0),
        ]
        engine, device, launches = _build(clients)
        engine.run()
        walk = _result(engine, device, launches)
        with pytest.MonkeyPatch.context() as mp:
            _no_walk(mp)
            per_wave = _simulate(clients, check=True)
        assert walk[:3] == per_wave[:3]
        assert per_wave[3] == []
        executed = engine.events_processed - engine.events_credited
        assert executed * 2 < walk[1]


def _tie_run(at=None, *, walk=True, probe=None):
    """Two grids with dyadic block durations fill the device and
    fragment into chunks, and A's keep refilling themselves after B has
    finished.  An event scheduled at t=0 for ``at`` — a boundary of
    grid A's waves — schedules, at that instant, a preemption of A due
    exactly at the end of the wave A's chunk starts there.  Per wave,
    the preemption was scheduled first, so it runs first and that chunk
    never refills again.  ``probe`` collects A's boundaries."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine, colocation_slowdown=1.0)
    if probe is not None:
        finish = device._finish_batch

        def record(launch, count, threads):
            if launch is a:
                probe.append(engine.now)
            finish(launch, count, threads)

        device._finish_batch = record
    a = DeviceLaunch(KernelDescriptor("a", num_blocks=40_000,
                                      threads_per_block=256,
                                      block_duration=2.0 ** -15),
                     client_id="a", priority=1)
    b = DeviceLaunch(KernelDescriptor("b", num_blocks=9_000,
                                      threads_per_block=128,
                                      block_duration=3 * 2.0 ** -17),
                     client_id="b", priority=0)
    engine.schedule_at(0.0, lambda: device.submit(a))
    engine.schedule_at(2.0 ** -14, lambda: device.submit(b))

    def arm():
        engine.schedule_at(engine.now + a.descriptor.block_duration,
                           lambda: device.preempt(a))

    if at is not None:
        engine.schedule_at(at, arm)
    if walk:
        engine.run()
    else:
        with pytest.MonkeyPatch.context() as mp:
            _no_walk(mp)
            engine.run()
    return (a.blocks_done, a.finished_at, b.blocks_done, b.finished_at,
            engine.events_processed, device.utilization())


def test_same_instant_event_orders_as_per_wave():
    """Tie order at a wave boundary: an unrelated event born at the
    instant a wave starts, due exactly at that wave's end, orders by the
    sequence number the wave took when it started — here after the
    event, so the preemption wins the tie."""
    boundaries: list[float] = []
    _tie_run(walk=False, probe=boundaries)
    # boundaries of A's self-refilling chunks
    picks = sorted(set(boundaries))[10:80:12]
    assert len(picks) == 6
    for at in picks:
        assert _tie_run(at) == _tie_run(at, walk=False)


@st.composite
def horizons(draw):
    """Drain steps: ``(dt, inclusive, budget)`` advances."""
    return draw(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=4e-4),
        st.booleans(),
        st.sampled_from([None, 10_000_000]),
    ), min_size=1, max_size=40))


@given(colocated_mix(), horizons())
@_settings
def test_results_do_not_depend_on_drain_horizons(mix, steps):
    """``run()``, ``advance_to`` in exclusive and inclusive steps (with
    and without an event budget) and ``step()`` settle the same
    boundaries in the same order: identical outcomes and ``events``."""
    clients, disruptions = mix
    boundaries = _boundaries(clients)

    def finish(engine, device, launches):
        engine.advance_to(max(engine.now, 1.0), inclusive=True)
        return _result(engine, device, launches)

    engine, device, launches = _build(clients, disruptions, boundaries)
    engine.run()
    whole = finish(engine, device, launches)

    engine, device, launches = _build(clients, disruptions, boundaries)
    for dt, inclusive, budget in steps:
        engine.advance_to(engine.now + dt, inclusive=inclusive,
                          max_events=budget)
    engine.run()
    assert finish(engine, device, launches) == whole

    engine, device, launches = _build(clients, disruptions, boundaries)
    while engine.step():
        pass
    assert finish(engine, device, launches) == whole
    # one event, one boundary: step() credits nothing
    assert engine.events_credited == 0


@pytest.mark.slow
def test_tgs_colocation_event_budget():
    """The loop stays on the TGS co-location path: identical jobs and
    events with the walk off, and the heap runs at most 60 % of the
    per-wave model's events (the rest are credited)."""
    jobs = [JobSpec.inference("bert_infer", load=0.5),
            JobSpec.training("whisper_train")]
    config = RunConfig(duration=1.0, warmup=0.25)
    before = credited_total()
    walk = run_colocation("TGS", jobs, config)
    executed = walk.events - (credited_total() - before)
    with pytest.MonkeyPatch.context() as mp:
        _no_walk(mp)
        per_wave = run_colocation("TGS", jobs, config)
    assert walk.jobs == per_wave.jobs
    assert walk.events == per_wave.events
    assert walk.utilization == per_wave.utilization
    assert executed <= 0.6 * per_wave.events


def test_waiting_higher_priority_launch_stops_the_walk():
    """A chunk small enough not to feed a waiting high-priority launch
    refills itself; a bigger chunk of the same launch would feed it.
    The walk must not take the big chunk's boundary for a pure refill
    while a higher launch waits."""
    def outcome():
        engine = EventLoop()
        device = GPUDevice(SPEC, engine)
        # 654 + 60 + 150 blocks of 256 threads fill the device
        fill = [(654, 1e-2), (60, 1e-4), (150, 2e-4)]
        launches = [DeviceLaunch(
            KernelDescriptor(f"f{i}", num_blocks=n, threads_per_block=256,
                             block_duration=d),
            client_id="f", priority=2) for i, (n, d) in enumerate(fill)]
        # low: picks up the two fillers' slots as chunks of 60 and 150
        # blocks (its shared memory makes 40 blocks a dispatchable chunk)
        launches.append(DeviceLaunch(
            KernelDescriptor("low", num_blocks=5_000, threads_per_block=256,
                             block_duration=3e-4,
                             shared_mem_per_block=48 * 1024),
            client_id="low", priority=1))
        # high: needs 27 blocks of 1024 threads; 60 freed low blocks
        # are 15 of them, 150 are 37
        launches.append(DeviceLaunch(
            KernelDescriptor("high", num_blocks=2_000,
                             threads_per_block=1024, block_duration=5e-5),
            client_id="high", priority=0))
        for launch in launches[:4]:
            device.submit(launch)
        engine.schedule_at(2.95e-4, lambda: device.submit(launches[4]))
        engine.run()
        return ([(l.started_at, l.finished_at, l.blocks_done, l.status)
                 for l in launches], engine.events_processed,
                device.utilization())

    walk = outcome()
    with pytest.MonkeyPatch.context() as mp:
        _no_walk(mp)
        assert walk == outcome()


def test_pending_counts_live_events_around_the_proxy():
    """The proxy event re-arms itself when the loop stops and moves when
    an earlier wave starts; ``pending`` must count exactly the live
    entries of the heap after every settle loop, not a cancelled proxy
    nor the running one."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    seen = []
    settle = device._settle_waves

    def record():
        settle()
        live = sum(1 for entry in engine._heap if not entry[3].cancelled)
        seen.append((engine.pending, live))

    device._settle_waves = record
    clients = [(2000, 256, 2e-5, 0.0), (3000, 512, 3e-5, 0.0),
               (1500, 128, 1.7e-5, 1e-5)]
    for i, (blocks, tpb, duration, at) in enumerate(clients):
        launch = DeviceLaunch(
            KernelDescriptor(f"k{i}", num_blocks=blocks,
                             threads_per_block=tpb, block_duration=duration),
            client_id=f"c{i}")
        engine.schedule_at(at, lambda l=launch: device.submit(l))
    engine.run()
    assert seen and all(pending == live for pending, live in seen)
    assert engine.pending == 0 and not device._waves


def test_a_window_taken_inside_the_loop_ends_at_the_next_record():
    """While the settle loop runs, its proxy event is not queued; a
    completion callback asking :meth:`EventLoop.quiet_until` for a
    window must still see the next wave boundary as the next event."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    seen = []

    def done(launch):
        seen.append((engine.quiet_until(), [r[0] for r in device._waves]))

    for name, blocks, duration in (("a", 3000, 2e-5), ("b", 300, 1.3e-5)):
        device.submit(DeviceLaunch(
            KernelDescriptor(name, num_blocks=blocks, threads_per_block=256,
                             block_duration=duration),
            client_id=name, on_complete=done))
    engine.advance_to(1.0)
    inside = [(window, min(left)) for window, left in seen if left]
    assert inside
    for (bound, inclusive), head in inside:
        assert bound < head or (bound == head and not inclusive)


@pytest.mark.parametrize("waves", [3, 4, 5, 6])
def test_a_waiting_group_below_keeps_rotating(waves):
    """A high-priority grid of 1024-thread blocks takes every thread but
    leaves slots free, so each of its boundaries dispatches on into the
    level below, where two launches wait and their group dispatch
    rotates the round-robin cursor without starting anything.  The
    rotations decide which of them gets the device first once the grid
    is done, so those boundaries are not pure refills."""
    def outcome():
        engine = EventLoop()
        device = GPUDevice(SPEC, engine)
        launches = [DeviceLaunch(
            KernelDescriptor("high", num_blocks=216 * waves,
                             threads_per_block=1024, block_duration=2e-5),
            client_id="high", priority=0)]
        launches += [DeviceLaunch(
            KernelDescriptor(f"low{i}", num_blocks=2_000,
                             threads_per_block=256, block_duration=1e-5),
            client_id=f"low{i}", priority=1) for i in range(2)]
        for launch in launches:
            device.submit(launch)
        engine.run()
        return ([(l.started_at, l.finished_at) for l in launches],
                engine.events_processed, device.utilization())

    walk = outcome()
    with pytest.MonkeyPatch.context() as mp:
        _no_walk(mp)
        assert walk == outcome()


@pytest.mark.parametrize("act", ["preempt", "kill"])
def test_a_chunk_left_alone_becomes_a_wave_chain(act):
    """A grid whose single chunk fills the device restarted it while
    another launch waited, by full bodies; once that launch stops
    waiting (unstarted), the chunk's next boundaries are pure refills,
    which the loop walks in one step."""
    def outcome():
        engine = EventLoop()
        device = GPUDevice(SPEC, engine)
        grid = DeviceLaunch(
            KernelDescriptor("grid", num_blocks=216 * 6,
                             threads_per_block=1024, block_duration=2e-5),
            client_id="grid", priority=0)
        other = DeviceLaunch(
            KernelDescriptor("other", num_blocks=500, threads_per_block=256,
                             block_duration=1e-5),
            client_id="other", priority=1)
        device.submit(grid)
        engine.schedule_at(1e-5, lambda: device.submit(other))
        stop = device.preempt if act == "preempt" else device.kill
        engine.schedule_at(7e-5, lambda: stop(other))
        engine.run()
        return _result(engine, device, [grid, other])[:3]

    walk = outcome()
    with pytest.MonkeyPatch.context() as mp:
        _no_walk(mp)
        assert walk == outcome()


# ----------------------------------------------------------------------
# The verdict cache: _pure_refill runs at most once per launch between
# two full bodies of the settle loop
# ----------------------------------------------------------------------
def _probe(device, log):
    """Log the settle loop's stretches (``stretch``), full bodies
    (``full``: launch name, ``blocks_to_start`` and wave size before
    it), ``_pure_refill`` verdicts (``verdict``: the same and the
    verdict) and launches leaving the waiting list by a pure refill
    (``pure-unwait``: inside a stretch, outside a full body)."""
    settle, refill = device._settle_waves, device._pure_refill
    finish, unwait = device._finish_batch, device._unwait
    depth = {"stretch": 0, "full": 0}

    def stretch():
        log.append(("stretch",))
        depth["stretch"] += 1
        try:
            settle()
        finally:
            depth["stretch"] -= 1

    def verdict(launch, count):
        result = refill(launch, count)
        log.append(("verdict", launch.descriptor.name,
                    launch.blocks_to_start, count, result))
        return result

    def full(launch, count, threads):
        log.append(("full", launch.descriptor.name, launch.blocks_to_start,
                    count))
        depth["full"] += 1
        try:
            finish(launch, count, threads)
        finally:
            depth["full"] -= 1

    def leave(launch):
        if depth["stretch"] and not depth["full"]:
            log.append(("pure-unwait", launch.descriptor.name))
        unwait(launch)

    device._settle_waves = stretch
    device._pure_refill = verdict
    device._finish_batch = full
    device._unwait = leave


def _cache_run(launches, *, walk=True, log=None):
    """Submit ``(name, blocks, tpb, shared_mem, duration, priority,
    at)`` launches to a fresh device and run it to the end; return the
    outcome, ``events`` and ``utilization()``."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    if log is not None:
        _probe(device, log)
    made = []
    for name, blocks, tpb, smem, duration, priority, at in launches:
        launch = DeviceLaunch(
            KernelDescriptor(name, num_blocks=blocks, threads_per_block=tpb,
                             block_duration=duration,
                             shared_mem_per_block=smem),
            client_id=name, priority=priority)
        made.append(launch)
        engine.schedule_at(at, lambda l=launch: device.submit(l))
    if walk:
        engine.run()
    else:
        with pytest.MonkeyPatch.context() as mp:
            _no_walk(mp)
            engine.run()
    return _result(engine, device, made)[:3]


@pytest.mark.parametrize("blocks", [264 * 5, 264 * 4 + 100])
def test_a_cached_verdict_runs_out_within_one_stretch(blocks):
    """A long-block grid holds most of the device; grid ``a`` fits 264
    blocks beside it and refills that chunk by itself.  Its one verdict
    covers every later refill of the stretch, through the one where
    ``blocks_to_start`` equals the chunk; the next boundary, with fewer
    blocks left than the chunk, takes the full body."""
    launches = [("b", 150, 1024, 0, 1e-2, 1, 0.0),
                ("a", blocks, 256, 0, 1e-5, 0, 1e-6)]
    log: list = []
    walk = _cache_run(launches, log=log)
    assert walk == _cache_run(launches, walk=False)
    assert sum(1 for e in log if e[0] == "stretch") == 1
    verdicts = [e for e in log if e[0] == "verdict"]
    assert verdicts == [("verdict", "a", blocks - 264, 264, True)]
    last = [e for e in log if e[0] == "full" and e[1] == "a"][0]
    assert last[2] < last[3]
    if blocks % 264 == 0:  # the cached refill at == count left 0
        assert ("pure-unwait", "a") in log
        assert last[2] == 0


def test_another_launchs_last_pure_refill_lands_mid_stretch():
    """``x`` refills its chunk by itself while ``y`` waits below it, so
    ``y``'s boundaries take the full body and refill ``y`` (freed ``y``
    slots are too few for a chunk of ``x``).  ``x``'s last pure refill
    takes it off the waiting list in the middle of a stretch; ``y``'s
    next boundary, before any full body, is then a pure refill too."""
    launches = [("b1", 500, 256, 0, 1e-2, 2, 0.0),
                ("b2", 60, 256, 0, 5e-5, 3, 0.0),
                ("x", 760, 1024, 0, 3e-5, 0, 1e-6),
                ("y", 3000, 256, 48 * 1024, 1.3e-5, 1, 1e-6)]
    log: list = []
    walk = _cache_run(launches, log=log)
    assert walk == _cache_run(launches, walk=False)
    at = log.index(("pure-unwait", "x"))
    after = log[at + 1]
    assert after[:2] == ("verdict", "y") and after[4] is True
    assert not any(e[0] == "verdict" and e[1] == "y" and e[4]
                   for e in log[:at])


def test_pure_refill_runs_once_per_launch_between_full_bodies(monkeypatch):
    """On the TGS co-location inputs, ``_pure_refill`` runs at most once
    per launch between two full bodies of one stretch, and the cached
    verdicts cover more boundaries than were evaluated."""
    calls: dict = {}
    counts = {"repeat": 0, "verdicts": 0, "pure": 0, "inside": 0}
    refill = GPUDevice._pure_refill
    finish = GPUDevice._finish_batch
    settle = GPUDevice._settle_waves

    def verdict(self, launch, count):
        calls[launch] = calls.get(launch, 0) + 1
        counts["repeat"] += calls[launch] > 1
        counts["verdicts"] += 1
        return refill(self, launch, count)

    def full(self, launch, count, threads):
        calls.clear()
        counts["pure"] -= counts["inside"]
        finish(self, launch, count, threads)

    def stretch(self):
        calls.clear()
        # a stretch runs one boundary more than it credits; the ones
        # that take no full body are pure refills
        before = self.engine.events_credited
        counts["inside"] = 1
        settle(self)
        counts["inside"] = 0
        counts["pure"] += self.engine.events_credited - before + 1

    monkeypatch.setattr(GPUDevice, "_pure_refill", verdict)
    monkeypatch.setattr(GPUDevice, "_finish_batch", full)
    monkeypatch.setattr(GPUDevice, "_settle_waves", stretch)
    jobs = [JobSpec.inference("bert_infer", load=0.5),
            JobSpec.training("whisper_train")]
    run_colocation("TGS", jobs, RunConfig(duration=1.0, warmup=0.25))
    assert counts["verdicts"] > 0
    assert counts["repeat"] == 0
    # each verdict covers several pure refills
    assert counts["pure"] > 2 * counts["verdicts"], counts
