"""GVT commit: deterministic trace ordering across shards.

Shards emit trace events into private buffers; the coordinator emits
its own control events.  Neither order is globally meaningful until
GVT — the last horizon every shard acknowledged — passes an event's
timestamp: below GVT no earlier event can still appear.
:class:`CommitTracer` buffers both streams and flushes them to the
real tracer in a deterministic merge order:

``(ts, source, arrival)`` — timestamp first; the coordinator (source
``-1``) before shards at equal timestamps (control events schedule the
work shards then perform); per-source arrival order last.
Cross-source ties at *identical float timestamps* are measure-zero
between continuous processes, so this normalized order makes the
committed trace the same on either backend, up to same-timestamp
permutation — summaries (which count, not order) are bit-identical,
and the bit-identity suite asserts exactly that.
"""

from __future__ import annotations

__all__ = ["CommitTracer", "ShardBuffer"]

#: merge rank of coordinator-emitted events (before any shard)
COORDINATOR_SOURCE = -1


class ShardBuffer(list):
    """A :class:`~repro.trace.Tracer`-shaped list of one shard's events,
    held for the commit merge."""

    enabled = True
    emit = list.append


class CommitTracer:
    """A :class:`~repro.trace.Tracer`-shaped buffer with GVT commit."""

    def __init__(self, sink) -> None:
        self.sink = sink
        self._pending: list[tuple[float, int, int, object]] = []
        self._arrivals = 0
        self.gvt = 0.0
        self.committed = 0

    @property
    def enabled(self) -> bool:
        return self.sink.enabled

    def emit(self, event) -> None:
        """Buffer a coordinator-side event (source rank -1)."""
        self._pending.append(
            (event.ts, COORDINATOR_SOURCE, self._arrivals, event))
        self._arrivals += 1

    def add_shard_events(self, shard: int, events: list) -> None:
        """Buffer a batch of shard outputs (already final below GVT)."""
        for event in events:
            self._pending.append((event.ts, shard, self._arrivals, event))
            self._arrivals += 1

    def commit(self, gvt: float) -> int:
        """Flush every buffered event with ``ts < gvt`` to the sink.

        Returns the number committed.  Buffers at-or-above ``gvt``
        survive to the next round; committed entries are freed — the
        coordinator half of fossil collection.
        """
        self.gvt = max(self.gvt, gvt)
        if not self._pending:
            return 0
        ready = [e for e in self._pending if e[0] < gvt]
        if not ready:
            return 0
        self._pending = [e for e in self._pending if e[0] >= gvt]
        ready.sort()
        if self.sink.enabled:
            emit = self.sink.emit
            for _ts, _src, _idx, event in ready:
                emit(event)
        self.committed += len(ready)
        return len(ready)

    def close(self) -> int:
        """Commit everything (end of run)."""
        return self.commit(float("inf"))
