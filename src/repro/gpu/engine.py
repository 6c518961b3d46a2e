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
  re-create an event that *would have been* scheduled earlier (a
  batched interval boundary) under its original tie-breaking key;
* :class:`Event` handles are slotted and carry only what cancellation
  needs; the heap never compares them (the ``(time, born, seq)``
  prefix is unique);
* cancellation is O(1) and lazy, with an in-place compaction sweep once
  dead entries dominate, so drivers polling :attr:`EventLoop.pending`
  never spin over a graveyard;
* a **sorted-run fast path**: while every ``schedule_at`` so far has
  been non-decreasing in time, the backing array *is* the sorted event
  order (a monotone ``heappush`` never sifts), which is exactly
  ``heappop``'s worst case — each pop moves the array's largest entry
  to the root and sifts it all the way back down.  The loop tracks that
  monotone run and drains it by index instead, so fanout-shaped phases
  (many pre-scheduled timers) cost the same per event as a
  self-rescheduling chain.  The first out-of-order push compacts and
  re-heapifies, falling back to classic heap behaviour;
* **run-ahead support**: :meth:`EventLoop._drain` records its limit on
  entry, and :meth:`EventLoop.quiet_until` tells a callback how far
  simulated time may advance before anything else could run — the
  window in which a passthrough policy settles an idle device's kernel
  stream inline (see ``docs/performance.md``, "Solo run-ahead").
  :meth:`EventLoop.credit` counts the events such a stretch stands for,
  so ``events_processed`` never depends on the drain horizons.  Nothing
  is added per event.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable

from ..errors import GPUSimError

__all__ = ["Event", "EventLoop", "credited_total"]

_INF = float("inf")
_NEG_INF = float("-inf")

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
        """Prevent the event from firing (O(1); removed lazily)."""
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
    #: live sorted-run length below which draining falls back to the
    #: classic heap loop — index iteration only pays for itself once
    #: heappop's sift depth (log n) dominates the per-event bookkeeping
    SORTED_DRAIN_MIN = 64

    def __init__(self) -> None:
        self.now = 0.0
        #: ordering key ``(time, born, seq, event)`` of the event being
        #: run; between drains, a key just below (exclusive
        #: :meth:`advance_to`) or just above (inclusive) every event at
        #: ``now``.  Batched device schedules compare their virtual
        #: interval boundaries against it to resolve equal-time ties.
        self.current: tuple = (0.0, _NEG_INF, -1, None)
        #: heap of ``(time, born, seq, Event)`` — C-speed tuple comparisons.
        #: While ``_sorted`` is True the array is fully sorted and
        #: ``_head`` entries at the front have already been consumed.
        self._heap: list[tuple[float, float, int, Event]] = []
        self._seq = 0
        self._cancelled = 0  # cancelled events still sitting in the heap
        self._sorted = True  # every push so far non-decreasing in time
        self._head = 0       # consumed prefix length (sorted mode only)
        #: ``(limit, inclusive)`` of the drain in progress; None outside
        #: a drain and in drains without a finite limit or with an
        #: event budget (see :meth:`quiet_until`)
        self._horizon: tuple[float, bool] | None = None
        self.events_processed = 0
        #: the part of ``events_processed`` credited by run-ahead
        #: stretches (events settled inline, never scheduled)
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
        heap = self._heap
        if self._sorted:
            # Monotone run: a push at/after the current tail keeps the
            # array sorted, so it is a plain append (no sift at all).
            # ``seq`` is the largest yet, so only an equal time needs
            # ``born`` (a :meth:`schedule_as` tail may be born later).
            if (not heap or len(heap) == self._head
                    or time > heap[-1][0]
                    or (time == heap[-1][0] and now >= heap[-1][1])):
                heap.append((time, now, seq, event))
            else:
                self._exit_sorted_mode()
                heappush(heap, (time, now, seq, event))
        else:
            heappush(heap, (time, now, seq, event))
        return event

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise GPUSimError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, fn)

    def reserve(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; return the
        first.  Every later :meth:`schedule_at` gets a larger one."""
        seq = self._seq
        self._seq = seq + count
        return seq

    def schedule_as(self, time: float, born: float, seq: int,
                    fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at ``time`` under the ordering key of an
        event scheduled at simulated time ``born`` with sequence number
        ``seq`` (from :meth:`reserve`, or a cancelled event's own).

        The device uses this to turn a batched interval boundary back
        into the event the per-interval model would have scheduled, so
        equal-time ties fall exactly as they would have; ``born`` may
        lie ahead of ``now`` for a boundary whose wave has not started
        yet.  Each ``(born, seq)`` pair must be used by at most one live
        event.
        """
        if not (time >= self.now and born <= time):
            raise GPUSimError(
                f"cannot schedule event at {time!r} born {born!r} "
                f"(now {self.now!r})")
        event = Event(time, seq, fn, self)
        entry = (time, born, seq, event)
        heap = self._heap
        if self._sorted and heap and len(heap) != self._head \
                and entry[:3] < heap[-1][:3]:
            self._exit_sorted_mode()
        if self._sorted:
            heap.append(entry)
        else:
            heappush(heap, entry)
        return event

    def call_soon(self, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at the current time (after pending same-time events)."""
        return self.schedule_at(self.now, fn)

    # ------------------------------------------------------------------
    # Internal bookkeeping
    # ------------------------------------------------------------------
    def _exit_sorted_mode(self) -> None:
        """An out-of-order push: drop the consumed prefix and re-heapify.

        A sorted array already satisfies the heap invariant, so the
        surviving suffix needs no sifting — but the consumed ``_head``
        prefix must go first or dead entries would resurface.
        """
        if self._head:
            del self._heap[:self._head]
            self._head = 0
        self._sorted = False

    def _compact(self) -> None:
        """Drop cancelled entries once they are half the queue."""
        heap = self._heap
        if self._cancelled * 2 >= len(heap) - self._head:
            # Rebuild in place: run loops hold a reference to the list.
            # A filtered sorted array stays sorted, so sorted mode (and
            # its no-sift pushes) survives the sweep.
            heap[:] = [entry for entry in heap[self._head:]
                       if not entry[3].cancelled]
            self._head = 0
            if not self._sorted:
                heapify(heap)
            self._cancelled = 0

    def credit(self, count: int) -> None:
        """Count ``count`` events that a run-ahead stretch settled
        inline as processed (once per stretch)."""
        self.events_processed += count
        self.events_credited += count
        _CREDITED[0] += count

    @property
    def pending(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return len(self._heap) - self._head - self._cancelled

    # ------------------------------------------------------------------
    # Inspection / draining
    # ------------------------------------------------------------------
    def _live_head(self) -> tuple | None:
        """The next live heap entry, dropping cancelled heads, or None.
        Never changes the storage mode: a drain may be running."""
        heap = self._heap
        if self._sorted:
            head = self._head
            n = len(heap)
            while head < n and heap[head][3].cancelled:
                head += 1
                self._cancelled -= 1
            self._head = head
            return heap[head] if head < n else None
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._cancelled -= 1
        return heap[0] if heap else None

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is empty."""
        entry = self._live_head()
        if entry is None:
            # an empty queue is a sorted run again
            del self._heap[:]
            self._head = 0
            self._cancelled = 0
            self._sorted = True
            return None
        return entry[0]

    def quiet_until(self) -> tuple[float, bool] | None:
        """How far the running callback may advance simulated time on
        its own: ``(bound, inclusive)`` such that no other event runs,
        and the drain in progress does not return, before any time
        ``t`` with ``t < bound`` (or ``t == bound`` when
        ``inclusive``).

        ``bound`` is the next live event's time (exclusive) or the
        drain's limit, whichever is earlier.  None outside a drain
        (:meth:`step`, calls between drains) and in drains without a
        finite limit (:meth:`run`) or with an event budget — there the
        loop cannot vouch for any stretch of time.
        """
        horizon = self._horizon
        if horizon is None:
            return None
        entry = self._live_head()
        if entry is not None and entry[0] <= horizon[0]:
            return entry[0], False
        return horizon

    def _pop_next(self) -> tuple | None:
        """Remove and return the next live heap entry, or None."""
        heap = self._heap
        if self._sorted:
            head = self._head
            n = len(heap)
            while head < n:
                entry = heap[head]
                head += 1
                if entry[3].cancelled:
                    self._cancelled -= 1
                    continue
                self._head = head
                return entry
            del heap[:]
            self._head = 0
            self._cancelled = 0
            return None
        while heap:
            entry = heappop(heap)
            if entry[3].cancelled:
                self._cancelled -= 1
                continue
            return entry
        self._sorted = True
        self._cancelled = 0
        return None

    def step(self) -> bool:
        """Run the next event; return False if none remain."""
        entry = self._pop_next()
        if entry is None:
            return False
        self.now = entry[0]
        self.current = entry
        self.events_processed += 1
        entry[3].fn()
        return True

    def _drain(self, limit: float | None, inclusive: bool,
               max_events: int | None) -> int:
        """Run events until ``limit`` (or forever when None), with the
        limit recorded for :meth:`quiet_until` meanwhile."""
        outer = self._horizon
        self._horizon = ((limit, inclusive)
                         if limit is not None and limit < _INF
                         and max_events is None else None)
        try:
            return self._drain_events(limit, inclusive, max_events)
        finally:
            self._horizon = outer

    def _drain_events(self, limit: float | None, inclusive: bool,
                      max_events: int | None) -> int:
        """The single inner loop behind :meth:`advance_to`,
        :meth:`run_until`, and :meth:`run`, with both storage modes
        inlined — per-event overhead is what macro benchmarks measure.
        """
        heap = self._heap
        pop = heappop
        processed = 0
        bound = float("inf") if max_events is None else max_events
        while True:
            if self._sorted and len(heap) - self._head < self.SORTED_DRAIN_MIN:
                # Shallow queues drain faster through the classic heap
                # loop (heappop on a near-empty heap is pure C); convert
                # once and stay there until the queue fully drains.
                self._exit_sorted_mode()
            if self._sorted:
                head = self._head
                n = len(heap)
                while head < n:
                    entry = heap[head]
                    event = entry[3]
                    if event.cancelled:
                        head += 1
                        self._cancelled -= 1
                        continue
                    when = entry[0]
                    if limit is not None and (
                            when > limit
                            or (when == limit and not inclusive)):
                        self._head = head
                        return processed
                    head += 1
                    self._head = head
                    self.now = when
                    self.current = entry
                    self.events_processed += 1
                    event.fn()
                    processed += 1
                    if processed >= bound:
                        raise GPUSimError(
                            f"exceeded {max_events} events"
                            + (f" before reaching t={limit}"
                               if limit is not None else ""))
                    if not self._sorted:
                        break  # out-of-order push re-heapified the array
                    # callbacks may append events or trigger a
                    # compaction sweep; re-read both cursors
                    head = self._head
                    n = len(heap)
                else:
                    # drained the whole sorted run
                    del heap[:]
                    self._head = 0
                    self._cancelled = 0
                    return processed
                continue  # fell out via mode flip: enter the heap loop
            while heap:
                when = heap[0][0]
                if limit is not None and (
                        when > limit or (when == limit and not inclusive)):
                    return processed
                entry = pop(heap)
                event = entry[3]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self.now = when
                self.current = entry
                self.events_processed += 1
                event.fn()
                processed += 1
                if processed >= bound:
                    raise GPUSimError(
                        f"exceeded {max_events} events"
                        + (f" before reaching t={limit}"
                           if limit is not None else ""))
            # fully drained: a fresh queue is a sorted run again
            self._sorted = True
            self._head = 0
            self._cancelled = 0
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
        number of events executed (events a run-ahead stretch credits
        are not executed).
        """
        if not time >= self.now:  # also rejects NaN
            raise GPUSimError(
                f"cannot advance to {time:.9f} before now ({self.now:.9f})")
        processed = self._drain(time, inclusive, max_events)
        if time > self.now:
            self.now = time
        # Between drains the clock sits just past every event at ``time``
        # (inclusive) or just before them (exclusive: they stay pending).
        self.current = ((time, _INF, _INF, None) if inclusive
                        else (time, _NEG_INF, -1, None))
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
