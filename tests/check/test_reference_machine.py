"""GPUDevice against the naive reference device, driven by a Hypothesis
state machine.

Three worlds run the same operations in lockstep, each on its own
event loop: the device as runs use it (the settle loop walks pure
refills), the device with an invariant checker (every boundary takes
the full body), and :class:`~repro.check.reference.ReferenceDevice`
(one event per wave or PTB iteration).  Rules submit ORIGINAL and PTB
launches at random priorities for a few clients, preempt, kill, fire
slot faults (a kill of the victim ``repro.faults`` would pick), change
the speed factor and observe the device — at times on a coarse grid or
exactly on a pending event's time, or one ulp either side of it, some
scheduled from an earlier event — and drain the loops in bounded
(exclusive or inclusive, with or without an event budget), stepped and
unbounded drains.  After every rule all three must agree exactly
(``==``, not ``approx``): the clock, ``events_processed`` (executed
plus credited), every launch's counters and times, the free pools,
``utilization()`` and what every observation saw; and the checker
must have found nothing.

The reference keeps strict priority where the device's group dispatch
inverts it (ROADMAP item 8); from such a dispatch on, the worlds are
no longer compared (``test_group_dispatch_keeps_strict_priority``
records the divergence).
"""

import math

import pytest
from hypothesis import HealthCheck, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.check import InvariantChecker
from repro.check.reference import ReferenceDevice
from repro.faults.scenarios import _slot_fault_victim
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
#: grid step of scheduled times (exact in binary)
Q = 2.0 ** -15
#: block durations: dyadic ones make ties between chunks common
DURATIONS = (2.0 ** -15, 3 * 2.0 ** -17, 1e-5, 2.2e-5, 3.7e-5)
#: an event budget no drain here comes near: it only changes the
#: drain's limits
BUDGET = 10_000_000
WORLDS = ("walk", "checked", "reference")


def _exact(x):
    return None if isinstance(x, float) and math.isnan(x) else x


class ReferenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engines = [EventLoop() for _ in WORLDS]
        walk, checked, reference = self.engines
        self.devices = [
            GPUDevice(SPEC, walk),
            GPUDevice(SPEC, checked,
                      check=InvariantChecker(raise_on_violation=False)),
            ReferenceDevice(SPEC, reference),
        ]
        self.launches = []  # one tuple of launches (one per world) each
        self.looks = [[] for _ in WORLDS]

    # -- helpers -------------------------------------------------------
    @property
    def reference(self):
        return self.devices[2]

    def _time(self, data):
        """A time at or after ``now``: on the grid, or on a pending
        event's time, possibly one ulp off it."""
        engine = self.engines[2]
        now = engine.now
        pending = sorted({entry[0] for entry in engine._heap
                          if not entry[3].cancelled and entry[0] < math.inf})
        pick = data.draw(st.integers(0, 40), label="pick")
        if pending and data.draw(st.booleans(), label="on an event"):
            when = pending[pick % len(pending)]
            ulps = data.draw(st.sampled_from([-1, 0, 1]), label="ulps")
            if ulps:
                when = math.nextafter(when, ulps * math.inf)
        else:
            when = now + (pick % 9) * Q
        return max(when, now)

    def _at(self, data, act):
        """Schedule ``act(world)`` in every world at a drawn time, born
        now or at an earlier pending event's time."""
        when = self._time(data)
        relay = data.draw(st.booleans(), label="relay")
        born = self.engines[2].now
        if relay:
            earlier = [entry[0] for entry in self.engines[2]._heap
                       if not entry[3].cancelled and entry[0] <= when]
            if earlier:
                born = data.draw(st.sampled_from(sorted(earlier)),
                                 label="born")
        for world, engine in enumerate(self.engines):
            fire = lambda w=world: act(w)
            if relay:
                engine.schedule_at(
                    born, lambda e=engine, f=fire: e.schedule_at(when, f))
            else:
                engine.schedule_at(when, fire)

    # -- operations ----------------------------------------------------
    @rule(data=st.data(), ptb=st.booleans(),
          blocks=st.integers(1, 20_000),
          tpb=st.sampled_from([128, 256, 512, 1024]),
          smem=st.sampled_from([0, 0, 48 * 1024]),
          duration=st.sampled_from(DURATIONS),
          priority=st.integers(0, 2),
          client=st.sampled_from("abc"),
          workers=st.sampled_from([64, 300, 1_000]))
    def submit(self, data, ptb, blocks, tpb, smem, duration, priority,
               client, workers):
        descriptor = KernelDescriptor(
            f"k{len(self.launches)}", num_blocks=blocks,
            threads_per_block=tpb, block_duration=duration,
            shared_mem_per_block=smem)
        config = (LaunchConfig(LaunchKind.PTB, workers) if ptb
                  else LaunchConfig())
        made = tuple(DeviceLaunch(descriptor, config, client_id=client,
                                  priority=priority) for _ in WORLDS)
        self.launches.append(made)
        self._at(data, lambda w: self.devices[w].submit(made[w]))

    def _pick(self, data):
        """A launch the reference has not finished, if any."""
        live = [i for i, made in enumerate(self.launches)
                if not made[2].done]
        return data.draw(st.sampled_from(live), label="launch") if live \
            else None

    @rule(data=st.data())
    def preempt(self, data):
        index = self._pick(data)
        if index is not None:
            self._at(data, lambda w: self.devices[w].preempt(
                self.launches[index][w]))

    @rule(data=st.data())
    def kill(self, data):
        index = self._pick(data)
        if index is not None:
            self._at(data, lambda w: self.devices[w].kill(
                self.launches[index][w]))

    @rule(data=st.data())
    def slot_fault(self, data):
        def fire(world):
            victim = _slot_fault_victim(self.devices[world])
            if victim is not None:
                self.devices[world].kill(victim)
        self._at(data, fire)

    @rule(data=st.data(), factor=st.sampled_from([1.0, 0.5, 1.7]))
    def speed(self, data, factor):
        self._at(data, lambda w: self.devices[w].set_speed_factor(factor))

    @rule(data=st.data())
    def observe(self, data):
        def look(world):
            device = self.devices[world]
            self.looks[world].append((
                self.engines[world].now, device.threads_free,
                device.slots_free, device.utilization(),
                [(l.blocks_done, l.blocks_inflight, l.blocks_to_start)
                 for l in device.resident_launches]))
        self._at(data, look)

    # -- draining ------------------------------------------------------
    @rule(data=st.data(), inclusive=st.booleans(), budget=st.booleans())
    def advance(self, data, inclusive, budget):
        when = self._time(data)
        for engine in self.engines:
            engine.advance_to(when, inclusive=inclusive,
                              max_events=BUDGET if budget else None)

    @rule()
    def step(self):
        ran = [engine.step() for engine in self.engines]
        assert ran[0] == ran[1] == ran[2]

    @rule()
    def run(self):
        for engine in self.engines:
            engine.run(max_events=BUDGET)

    # -- checks --------------------------------------------------------
    def _state(self, world):
        engine = self.engines[world]
        device = self.devices[world]
        launches = [made[world] for made in self.launches]
        index = {id(l): i for i, l in enumerate(launches)}
        return (
            engine.now, engine.events_processed,
            device.threads_free, device.slots_free,
            device.launches_completed, device.utilization(),
            [(l.status, _exact(l.submitted_at), _exact(l.arrived_at),
              _exact(l.started_at), _exact(l.finished_at), l.blocks_done,
              l.blocks_inflight, l.blocks_to_start, l.blocks_killed,
              l.tasks_done, l.preempt_requested) for l in launches],
            [index[id(l)] for l in device.resident_launches],
            self.looks[world],
        )

    @invariant()
    def worlds_agree(self):
        if self.reference.diverged:
            event(self.reference.diverged)
            return
        reference = self._state(2)
        assert self._state(0) == reference
        assert self._state(1) == reference
        assert self.devices[1].check.violations == []

    def teardown(self):
        """Run what is left, so every scheduled operation fires."""
        self.run()
        self.worlds_agree()


ReferenceMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestReferenceMachine = ReferenceMachine.TestCase


# ----------------------------------------------------------------------
# Known divergences
# ----------------------------------------------------------------------
def _lockstep(submissions, until=1.0):
    """Run ``(blocks, tpb, duration, priority, client, at)`` ORIGINAL
    submissions on the device (with a checker) and on the reference;
    return both outcomes, the checker's findings and the reference's
    ``diverged``."""
    outcomes = []
    worlds = []
    for make in (lambda e: GPUDevice(
            SPEC, e, check=InvariantChecker(raise_on_violation=False)),
                 lambda e: ReferenceDevice(SPEC, e)):
        engine = EventLoop()
        device = make(engine)
        made = []
        for i, (blocks, tpb, duration, priority, client, at) in enumerate(
                submissions):
            launch = DeviceLaunch(
                KernelDescriptor(f"k{i}", num_blocks=blocks,
                                 threads_per_block=tpb,
                                 block_duration=duration),
                client_id=client, priority=priority)
            made.append(launch)
            engine.schedule_at(at, lambda l=launch, d=device: d.submit(l))
        engine.run_until(until)
        outcomes.append([(l.status, _exact(l.started_at),
                          _exact(l.finished_at), l.blocks_done)
                         for l in made])
        worlds.append(device)
    return outcomes, worlds[0].check.violations, worlds[1].diverged


#: Two long grids of 32-thread blocks hold every slot; when the short
#: one ends it frees 156 slots.  Two 256-thread launches wait at
#: priority 0: either alone could start 156 blocks, over its coalescing
#: minimum of 108, but their fair shares of 78 fall below it, so
#: neither starts, and a 50-block launch at priority 1 takes the slots.
ITEM_8 = [
    (3_300, 32, 1e-3, 0, "long", 0.0),
    (156, 32, 5e-5, 0, "short", 0.0),
    (400, 256, 1e-5, 0, "a", 1e-5),
    (400, 256, 1e-5, 0, "b", 1e-5),
    (50, 128, 1e-5, 1, "low", 1e-5),
]


def test_the_item_8_case_inverts_priority_on_the_device():
    """The pinned case is the inversion the checker reports, and the
    reference flags it."""
    _outcomes, violations, diverged = _lockstep(ITEM_8)
    assert any("priority inversion" in v for v in violations)
    assert diverged == "ROADMAP item 8"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 8: two launches waiting at one level whose fair shares "
    "fall below the coalescing minimum start nothing, and the group "
    "dispatch lets a lower level take the slots"))
def test_group_dispatch_keeps_strict_priority():
    outcomes, violations, _diverged = _lockstep(ITEM_8)
    assert violations == []
    assert outcomes[0] == outcomes[1]
