"""EventLoop against a sorted-list model, driven by a Hypothesis state
machine.

The model keeps every live event in a list sorted by its ordering key
``(time, born, seq)`` and runs the head.  Rules schedule (plainly, and
under cancelled events' keys via :meth:`EventLoop.schedule_as`), cancel live,
cancelled and already-fired handles, step, drain exclusively and
inclusively, with and without an event budget, and credit run-ahead
events.  Callbacks record what the loop tells them while they run —
``quiet_until()``, ``peek_time()``, ``pending`` — and some cancel
themselves, schedule a follow-up or credit events.  After every rule
the firing log, ``now``, ``pending``, ``events_processed`` and
``events_credited`` must match the model.  Times sit on a coarse grid
so that ties, and drain limits landing exactly on event times, are
common; floods of cancellations push the loop past
``EventLoop.COMPACT_THRESHOLD`` so compaction runs mid-sequence.
"""

from bisect import insort

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.gpu import EventLoop

#: grid step of every scheduled time and drain limit (exact in binary)
Q = 0.25
KINDS = ("plain", "cancel-self", "spawn", "credit")
#: events a "credit" callback credits
CREDIT = 2
#: an event budget no drain here comes near: it only switches the
#: run-ahead window off
BUDGET = 100_000

offsets = st.integers(min_value=0, max_value=6)
kinds = st.sampled_from(KINDS)


class EventLoopMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = EventLoop()
        self.handles = {}  # id -> Event
        self.ids = []      # every id scheduled, in scheduling order
        self.log = []      # what callbacks recorded, in firing order
        # the model
        self.now = 0.0
        self.seq = 0
        self.queue = []    # sorted [((time, born, seq), id)] of live events
        self.keys = {}     # id -> key, while live
        self.kinds = {}    # id -> (kind, spawn offset)
        self.processed = 0
        self.credited = 0
        self.expected = []

    # -- scheduling ----------------------------------------------------
    def _callback(self, id_):
        loop = self.loop

        def fire():
            self.log.append((id_, loop.now, loop.quiet_until(),
                             loop.peek_time(), loop.pending,
                             loop.events_processed))
            kind, offset = self.kinds[id_]
            if kind == "cancel-self":
                self.handles[id_].cancel()
            elif kind == "spawn":
                child = ("child", id_)
                self.handles[child] = loop.schedule_at(
                    loop.now + offset * Q, self._callback(child))
            elif kind == "credit":
                loop.credit(CREDIT)
        return fire

    def _add(self, id_, key, kind=("plain", 0)):
        self.ids.append(id_)
        self.kinds[id_] = kind
        self.keys[id_] = key
        insort(self.queue, (key, id_))

    @rule(offset=offsets, kind=kinds, spawn=offsets, relative=st.booleans())
    def schedule(self, offset, kind, spawn, relative):
        id_ = len(self.ids)
        self._add(id_, (self.now + offset * Q, self.now, self.seq),
                  (kind, spawn))
        self.seq += 1
        fn = self._callback(id_)
        self.handles[id_] = (self.loop.schedule(offset * Q, fn) if relative
                             else self.loop.schedule_at(
                                 self.now + offset * Q, fn))

    @rule(slots=st.lists(st.tuples(offsets, st.integers(0, 8)),
                         min_size=1, max_size=3),
          unused=st.integers(0, 2))
    def schedule_as(self, slots, unused):
        """Schedule placeholders, cancel them and schedule under their
        sequence numbers, born at or before the event's time — possibly
        before or after ``now``."""
        placeholders = [self.loop.schedule_at(self.now, lambda: None)
                        for _ in range(len(slots) + unused)]
        for placeholder in placeholders:
            placeholder.cancel()
        first = placeholders[0].seq
        assert first == self.seq
        self.seq += len(slots) + unused
        for i, (offset, back) in enumerate(slots):
            id_ = len(self.ids)
            time = self.now + offset * Q
            born = time - back * Q
            self._add(id_, (time, born, first + i))
            self.handles[id_] = self.loop.schedule_as(
                time, born, first + i, self._callback(id_))

    @rule(count=st.integers(2, 3), keep=st.integers(2, 4))
    def flood(self, count, keep):
        """Schedule a burst of events and cancel all but every
        ``keep``-th: enough cancellations to cross the compaction
        threshold."""
        n = count * EventLoop.COMPACT_THRESHOLD
        burst = []
        for i in range(n):
            id_ = len(self.ids)
            time = self.now + (i % 7) * Q
            self._add(id_, (time, self.now, self.seq))
            self.seq += 1
            self.handles[id_] = self.loop.schedule_at(
                time, self._callback(id_))
            burst.append(id_)
        for i, id_ in enumerate(burst):
            if i % keep:
                self._cancel(id_)

    def _cancel(self, id_):
        self.handles[id_].cancel()
        key = self.keys.pop(id_, None)
        if key is not None:  # live: cancelled or fired handles are no-ops
            self.queue.remove((key, id_))

    @precondition(lambda self: self.ids)
    @rule(data=st.data())
    def cancel(self, data):
        self._cancel(data.draw(st.sampled_from(self.ids)))

    @rule(count=st.integers(0, 5))
    def credit(self, count):
        self.loop.credit(count)
        self.processed += count
        self.credited += count

    # -- draining ------------------------------------------------------
    def _run(self, limit, inclusive, horizon, max_events=None):
        """The model's drain: fire the head while it lies within
        ``limit``; return the number of events fired."""
        fired = 0
        while self.queue:
            (time, _born, _seq), id_ = self.queue[0]
            if limit is not None and (
                    time > limit or (time == limit and not inclusive)):
                break
            del self.queue[0]
            del self.keys[id_]
            self.now = time
            self.processed += 1
            fired += 1
            head = self.queue[0][0][0] if self.queue else None
            if horizon is None:
                window = None
            elif head is not None and head <= horizon[0]:
                window = (head, False)
            else:
                window = horizon
            self.expected.append((id_, time, window, head, len(self.queue),
                                  self.processed))
            kind, offset = self.kinds[id_]
            if kind == "spawn":
                self._add(("child", id_), (time + offset * Q, time, self.seq))
                self.seq += 1
            elif kind == "credit":
                self.processed += CREDIT
                self.credited += CREDIT
            if max_events is not None and fired >= max_events:
                break
        return fired

    def _advance(self, offset, inclusive, budget):
        limit = self.now + offset * Q
        fired = self._run(limit, inclusive,
                          None if budget else (limit, inclusive))
        self.now = max(self.now, limit)
        return limit, fired

    @rule()
    def step(self):
        expected = bool(self.queue)
        if expected:
            self._run(None, True, None, max_events=1)
        assert self.loop.step() is expected

    @rule(offset=offsets, budget=st.booleans())
    def advance_to(self, offset, budget):
        limit, fired = self._advance(offset, False, budget)
        assert self.loop.advance_to(
            limit, max_events=BUDGET if budget else None) == fired

    @rule(offset=offsets, budget=st.booleans())
    def advance_to_inclusive(self, offset, budget):
        limit, fired = self._advance(offset, True, budget)
        assert self.loop.advance_to(
            limit, inclusive=True,
            max_events=BUDGET if budget else None) == fired

    @rule(offset=offsets, budget=st.booleans())
    def run_until(self, offset, budget):
        limit, _fired = self._advance(offset, True, budget)
        self.loop.run_until(limit, max_events=BUDGET if budget else None)

    @rule()
    def run(self):
        self._run(None, True, None)
        self.loop.run()

    @rule()
    def peek_time(self):
        head = self.queue[0][0][0] if self.queue else None
        assert self.loop.peek_time() == head

    # -- checks --------------------------------------------------------
    @invariant()
    def matches_model(self):
        loop = self.loop
        assert self.log == self.expected
        assert loop.now == self.now
        assert loop.pending == len(self.queue)
        assert loop.events_processed == self.processed
        assert loop.events_credited == self.credited
        assert loop.quiet_until() is None  # between drains


EventLoopMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEventLoopMachine = EventLoopMachine.TestCase
