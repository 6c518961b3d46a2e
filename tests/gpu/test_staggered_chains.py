"""Staggered wave chains: chained ≡ per-wave, bit for bit.

When co-located grids fragment into chunks, a chunk whose completion
only restarts the same number of blocks of the same launch joins its
launch's *staggered chain*, and the chain's waves cost no events until
the cycle breaks or the world changes (see ``docs/performance.md``).
These tests run the same inputs with chaining on and with the formation
predicate (``GPUDevice._chainable``) patched to refuse every chain, and
demand identical results — ``==``, not ``approx`` — including when
arrivals, preemptions and kills land exactly on a chunk boundary.
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
)
from repro.harness import JobSpec, RunConfig, run_colocation

SPEC = A100_SXM4_40GB

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _per_wave(monkeypatch_context):
    monkeypatch_context.setattr(GPUDevice, "_chainable",
                                lambda self, *args: False)


@st.composite
def colocated_mix(draw):
    """2-3 ORIGINAL clients at two priority levels, plus disruptions
    placed on (or just past) a chunk boundary of the undisturbed run."""
    clients = []
    for i in range(draw(st.integers(min_value=2, max_value=3))):
        clients.append((
            draw(st.integers(min_value=200, max_value=30_000)),
            draw(st.sampled_from([64, 128, 256, 512, 1024])),
            draw(st.floats(min_value=5e-6, max_value=1e-4)),
            i % 2 if i < 2 else draw(st.integers(min_value=0, max_value=1)),
            draw(st.floats(min_value=0.0, max_value=3e-4)),
        ))
    disruptions = draw(st.lists(st.tuples(
        # "arrive" is scheduled by the submitting event itself (born on
        # the boundary); "arrive-early" a little before the boundary
        st.sampled_from(["arrive", "arrive-early", "preempt", "kill"]),
        st.integers(min_value=0, max_value=10_000),  # which boundary
        st.integers(min_value=0, max_value=2),       # which client
        st.booleans(),                               # exactly on it
    ), min_size=0, max_size=3))
    return clients, disruptions


def _simulate(clients, disruptions=(), boundaries=None, probe=None):
    """Run one mix; return per-launch outcomes, events and violations."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine,
                       check=InvariantChecker(raise_on_violation=False))
    if probe is not None:
        finish = device._finish_batch

        def record(launch, count, threads):
            probe.append(engine.now)
            finish(launch, count, threads)

        device._finish_batch = record
    launches = []
    for i, (blocks, tpb, duration, priority, at) in enumerate(clients):
        launch = DeviceLaunch(
            KernelDescriptor(f"k{i}", num_blocks=blocks,
                             threads_per_block=tpb, block_duration=duration),
            client_id=f"c{i}", priority=priority)
        launches.append(launch)
        engine.schedule_at(at, lambda l=launch: device.submit(l))
    for kind, which, target, exact in disruptions:
        if not boundaries:
            break
        when = boundaries[which % len(boundaries)]
        if not exact:
            when += 3.3e-7
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
    engine.run()

    def exact(x):
        return None if math.isnan(x) else x

    outcome = [(exact(l.started_at), exact(l.finished_at), l.blocks_done,
                l.status) for l in launches]
    return outcome, engine.events_processed, device.check.violations


class TestChainedMatchesPerWave:
    @given(colocated_mix())
    @_settings
    def test_chained_run_is_bit_identical(self, mix):
        clients, disruptions = mix
        boundaries: list[float] = []
        with pytest.MonkeyPatch.context() as mp:
            _per_wave(mp)
            _simulate(clients, probe=boundaries)
            per_wave = _simulate(clients, disruptions, boundaries)
        chained = _simulate(clients, disruptions, boundaries)
        assert chained[0] == per_wave[0]
        assert chained[1] <= per_wave[1]
        # The chained run reports no violation the per-wave run does not
        # (the per-wave model's own findings are pinned by other suites).
        assert chained[2] == per_wave[2]

    def test_fragmented_grids_chain_and_agree(self):
        # A small high-priority grid lands on a device full of a wide
        # best-effort grid: both fragment into chunks that refill
        # themselves, which the chain batches.
        clients = [
            (20_000, 256, 40e-6, 1, 0.0),
            (9_000, 128, 31e-6, 0, 57e-6),
        ]
        chained = _simulate(clients)
        with pytest.MonkeyPatch.context() as mp:
            _per_wave(mp)
            per_wave = _simulate(clients)
        assert chained[0] == per_wave[0]
        assert chained[2] == [] and per_wave[2] == []
        assert chained[1] * 2 < per_wave[1]


@pytest.mark.slow
def test_tgs_colocation_event_budget():
    """Chaining stays on the TGS co-location path: identical jobs, at
    most 60 % of the per-wave run's events."""
    jobs = [JobSpec.inference("bert_infer", load=0.5),
            JobSpec.training("whisper_train")]
    config = RunConfig(duration=1.0, warmup=0.25)
    chained = run_colocation("TGS", jobs, config)
    with pytest.MonkeyPatch.context() as mp:
        _per_wave(mp)
        per_wave = run_colocation("TGS", jobs, config)
    assert chained.jobs == per_wave.jobs
    assert chained.events <= 0.6 * per_wave.events


def test_waiting_higher_priority_launch_blocks_chaining():
    """A chunk small enough not to feed a waiting high-priority launch
    refills itself; a bigger chunk of the same launch would feed it.  A
    chain formed on the small chunk's refill would wrongly batch the big
    one, so no chain may form while a higher launch waits."""
    def outcome():
        engine = EventLoop()
        device = GPUDevice(SPEC, engine, check=InvariantChecker())
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
        return [(l.started_at, l.finished_at, l.blocks_done, l.status)
                for l in launches]

    chained = outcome()
    with pytest.MonkeyPatch.context() as mp:
        _per_wave(mp)
        assert chained == outcome()


def test_pending_counts_live_events_after_a_chain_breaks():
    """The event that breaks a staggered chain dissolves that chain
    while it runs; the loop must not count the running event as a
    cancelled one still queued, or ``pending`` under-reports."""
    engine = EventLoop()
    device = GPUDevice(SPEC, engine)
    seen = []
    done = device._staggered_done

    def record(chain):
        done(chain)
        live = sum(1 for entry in engine._heap if not entry[3].cancelled)
        seen.append((engine.pending, live))

    device._staggered_done = record
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
