"""Discrete-event simulation engine.

A minimal, fast event loop.  All simulated time is in **seconds**
(floats).  The engine is deliberately free of domain knowledge — the
GPU device, schedulers, and workload drivers all build on it.

Hot-path design (see ``docs/performance.md``):

* heap entries are ``(time, born, seq, event)`` **tuples**, so every
  heap sift compares in C (tuple comparison) instead of calling a
  Python ``__lt__`` — on real runs this removes millions of interpreted
  calls.  ``born`` is the simulated time the event was scheduled at;
  for ordinary events it rises with ``seq``, so the order is plain
  ``(time, seq)``.  :meth:`EventLoop.schedule_as` lets the device
  schedule its proxy event under the key of the wave record it stands
  for, which may have been born earlier;
* :class:`Event` handles are slotted and carry only what cancellation
  needs; the heap never compares them (the ``(time, born, seq)``
  prefix is unique);
* cancellation is O(1) and lazy, with an in-place compaction sweep once
  dead entries dominate, so drivers polling :attr:`EventLoop.pending`
  never spin over a graveyard;
* **run-ahead support**: :meth:`EventLoop._drain` records its limit on
  entry, and :meth:`EventLoop.quiet_until` tells a callback how far
  simulated time may advance before anything else could run — the
  window in which a policy settles an idle device's kernel stream
  inline (see ``docs/performance.md``, "Solo run-ahead").
  :meth:`EventLoop.credit` counts the events such a stretch stands for,
  so ``events_processed`` never depends on the drain horizons.  Nothing
  is added per event;
* **device settle loop**: the device keeps its co-resident wave
  boundaries in a private heap behind one proxy event, and settles
  them in one loop while :meth:`EventLoop.settle_limit` says nothing
  else would run first; each boundary after the first is credited
  (see ``docs/performance.md``, "Wave records").
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable

from ..errors import GPUSimError

__all__ = ["Event", "EventLoop", "credited_total"]

_INF = float("inf")
_NEG_INF = float("-inf")
#: a settle limit no key lies below: outside drains (so in
#: :meth:`EventLoop.step`) the device settles the proxy's boundary only
_NOTHING = (_NEG_INF,)

#: events credited by every loop in this process (see
#: :meth:`EventLoop.credit`).  A list cell: counting must not assign to
#: a class or module attribute, which would invalidate the
#: interpreter's attribute caches for every loop.
_CREDITED = [0]


def credited_total() -> int:
    """Events credited by every loop in this process so far;
    benchmarks read its change across a phase."""
    return _CREDITED[0]


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "seq", "fn", "cancelled", "loop")

    def __init__(self, time: float, seq: int, fn: Callable[[], None],
                 loop: "EventLoop | None" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.loop = loop

    def cancel(self) -> None:
        """Prevent the event from firing (O(1); removed lazily).  Once
        the event has fired, the loop no longer holds it (``loop`` is
        None), so a late cancel leaves the loop's counts alone."""
        if not self.cancelled:
            self.cancelled = True
            loop = self.loop
            if loop is not None:
                loop._cancelled += 1
                if loop._cancelled >= loop.COMPACT_THRESHOLD:
                    loop._compact()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f}{state}>"


class EventLoop:
    """A deterministic discrete-event loop.

    Ties are broken by scheduling order, so runs are reproducible.
    """

    #: cancelled-event count past which the heap is compacted in place
    #: (only when at least half the queue is dead), so drivers polling
    #: :attr:`pending` never spin over an ever-growing graveyard
    COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        self.now = 0.0
        #: heap of ``(time, born, seq, Event)`` — C-speed tuple comparisons
        self._heap: list[tuple[float, float, int, Event]] = []
        self._seq = 0
        self._cancelled = 0  # cancelled events still sitting in the heap
        #: ``(limit, inclusive)`` of the drain in progress; None outside
        #: a drain and in drains without a finite limit or with an
        #: event budget (see :meth:`quiet_until`)
        self._horizon: tuple[float, bool] | None = None
        #: the key below which the drain in progress would run an event
        #: (also under an event budget), see :meth:`settle_limit`
        self._stop: tuple = _NOTHING
        #: the record heap of a device settle loop in progress: while the
        #: loop runs, its proxy event is not queued, and the earliest
        #: record left stands for it (see :meth:`quiet_until`)
        self.settling: list | None = None
        self.events_processed = 0
        #: the part of ``events_processed`` credited by run-ahead
        #: stretches and device settle loops (events settled inline,
        #: never executed by the heap)
        self.events_credited = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run at absolute simulation time ``time``."""
        now = self.now
        if not time >= now:  # also rejects NaN; ``inf`` stays legal
            raise GPUSimError(
                f"cannot schedule event at {time:.9f} before now ({now:.9f})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, self)
        heappush(self._heap, (time, now, seq, event))
        return event

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise GPUSimError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, fn)

    def schedule_as(self, time: float, born: float, seq: int,
                    fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at ``time`` under the ordering key of an
        event scheduled at simulated time ``born`` with sequence number
        ``seq`` (one the loop handed out, such as a cancelled
        event's own).

        The device schedules its proxy event under the key of the wave
        record it stands for, so equal-time ties fall exactly as the
        wave's own event would have.  Each ``(born, seq)`` pair must be
        used by at most one live event.
        """
        if not (time >= self.now and born <= time):
            raise GPUSimError(
                f"cannot schedule event at {time!r} born {born!r} "
                f"(now {self.now!r})")
        event = Event(time, seq, fn, self)
        heappush(self._heap, (time, born, seq, event))
        return event

    def call_soon(self, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at the current time (after pending same-time events)."""
        return self.schedule_at(self.now, fn)

    # ------------------------------------------------------------------
    # Internal bookkeeping
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled entries once they are half the queue."""
        heap = self._heap
        if self._cancelled * 2 >= len(heap):
            # Rebuild in place: run loops hold a reference to the list.
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapify(heap)
            self._cancelled = 0

    def credit(self, count: int) -> None:
        """Count ``count`` events that a run-ahead stretch or a device
        settle loop settled inline as processed (once per stretch or
        loop)."""
        self.events_processed += count
        self.events_credited += count
        _CREDITED[0] += count

    @property
    def pending(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return len(self._heap) - self._cancelled

    # ------------------------------------------------------------------
    # Inspection / draining
    # ------------------------------------------------------------------
    def _live_head(self) -> tuple | None:
        """The next live heap entry, dropping cancelled heads, or None."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._cancelled -= 1
        return heap[0] if heap else None

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is empty."""
        entry = self._live_head()
        return None if entry is None else entry[0]

    def quiet_until(self) -> tuple[float, bool] | None:
        """How far the running callback may advance simulated time on
        its own: ``(bound, inclusive)`` such that no other event runs,
        and the drain in progress does not return, before any time
        ``t`` with ``t < bound`` (or ``t == bound`` when
        ``inclusive``).

        ``bound`` is the next live event's time (exclusive) or the
        drain's limit, whichever is earlier; while a device's settle
        loop runs, its earliest record counts as a live event.  None
        outside a drain (:meth:`step`, calls between drains) and in
        drains without a finite limit (:meth:`run`) or with an event
        budget — there the loop cannot vouch for any stretch of time.
        """
        horizon = self._horizon
        if horizon is None:
            return None
        entry = self._live_head()
        if entry is not None and entry[0] <= horizon[0]:
            horizon = entry[0], False
        records = self.settling
        if records and records[0][0] <= horizon[0]:
            return records[0][0], False
        return horizon

    def settle_limit(self) -> tuple:
        """The key below which a device boundary would run before
        anything else: the next live event's ``(time, born, seq, ...)``
        key, or the drain's limit — ``(limit, inf, inf)`` inclusive,
        ``(limit, -inf, -1)`` exclusive — whichever is lower.  Unlike
        :meth:`quiet_until` it holds under an event budget too; between
        drains, and so in :meth:`step`, nothing lies below it."""
        entry = self._live_head()
        stop = self._stop
        if entry is not None and entry < stop:
            return entry
        return stop

    def step(self) -> bool:
        """Run the next event; return False if none remain."""
        entry = self._live_head()
        if entry is None:
            return False
        heappop(self._heap)
        event = entry[3]
        event.loop = None
        self.now = entry[0]
        self.events_processed += 1
        event.fn()
        return True

    def _drain(self, limit: float | None, inclusive: bool,
               max_events: int | None) -> int:
        """Run events until ``limit`` (or forever when None), with the
        limit recorded for :meth:`quiet_until` meanwhile."""
        outer = self._horizon, self._stop
        self._horizon = ((limit, inclusive)
                         if limit is not None and limit < _INF
                         and max_events is None else None)
        if limit is None:
            self._stop = (_INF, _INF, _INF)
        else:
            self._stop = ((limit, _INF, _INF) if inclusive
                          else (limit, _NEG_INF, -1))
        try:
            return self._drain_events(limit, inclusive, max_events)
        finally:
            self._horizon, self._stop = outer

    def _drain_events(self, limit: float | None, inclusive: bool,
                      max_events: int | None) -> int:
        """The single inner loop behind :meth:`advance_to`,
        :meth:`run_until`, and :meth:`run` — per-event overhead is what
        macro benchmarks measure.
        """
        heap = self._heap
        pop = heappop
        processed = 0
        bound = _INF if max_events is None else max_events
        while heap:
            when = heap[0][0]
            if limit is not None and (
                    when > limit or (when == limit and not inclusive)):
                break
            entry = pop(heap)
            event = entry[3]
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.loop = None  # fired: a late cancel is a no-op
            self.now = when
            self.events_processed += 1
            event.fn()
            processed += 1
            if processed >= bound:
                raise GPUSimError(
                    f"exceeded {max_events} events"
                    + (f" before reaching t={limit}"
                       if limit is not None else ""))
        return processed

    def advance_to(self, time: float, *, inclusive: bool = False,
                   max_events: int | None = None) -> int:
        """Run events below ``time`` and advance the clock to ``time``.

        The exclusive form (the default) leaves events at exactly
        ``time`` pending: the parallel engine's horizon grants advance a
        shard *to* a barrier without consuming barrier-time events, so
        cross-shard operations issued at the barrier always apply before
        same-time local events.  With ``inclusive=True`` events at
        ``time`` run too (:meth:`run_until` semantics).  Returns the
        number of events executed (events a run-ahead stretch or a
        device settle loop credits are not executed).
        """
        if not time >= self.now:  # also rejects NaN
            raise GPUSimError(
                f"cannot advance to {time:.9f} before now ({self.now:.9f})")
        processed = self._drain(time, inclusive, max_events)
        if time > self.now:
            self.now = time
        return processed

    def run_until(self, time: float, *, max_events: int | None = None) -> None:
        """Run all events up to and including ``time``.

        The clock is advanced to ``time`` afterwards even if the queue
        drained earlier.
        """
        self.advance_to(time, inclusive=True, max_events=max_events)

    def run(self, *, max_events: int = 50_000_000) -> None:
        """Run until the event queue drains."""
        self._drain(None, True, max_events)
