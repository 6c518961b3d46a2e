"""Ring-buffer event collector with pluggable sinks.

A :class:`Tracer` is handed to :class:`~repro.gpu.device.GPUDevice`
(and from there reaches every policy and driver).  Emission sites are
guarded by ``tracer.enabled`` so that the disabled path — the module
singleton :data:`NULL_TRACER` — costs one attribute load and a branch
per candidate event and allocates nothing.

Untraced runs never load :mod:`repro.trace.events`: emission sites
name event classes through the lazy :mod:`repro.trace` package, and a
live :class:`Tracer` loads them when it is built.

Events land in a bounded ring buffer (oldest dropped first) and are
simultaneously forwarded to any attached sinks, so a long run can
stream to disk while tests read the in-memory tail.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, Iterable

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import TraceEvent
    from .summary import TraceSummary

__all__ = [
    "TraceSink",
    "MemorySink",
    "JSONLSink",
    "Tracer",
    "NULL_TRACER",
    "load_jsonl",
]


class TraceSink:
    """Receives every emitted event; subclass to add a destination."""

    def on_event(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (default: nothing)."""


class MemorySink(TraceSink):
    """Keeps every event in a list (unbounded; for tests and analysis)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def on_event(self, event: TraceEvent) -> None:
        self.events.append(event)


class JSONLSink(TraceSink):
    """Streams events to ``path`` as newline-delimited JSON objects."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "w", encoding="utf-8")
        self.written = 0

    def on_event(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.to_dict()))
        self._file.write("\n")
        self.written += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


def load_jsonl(path: str) -> list[TraceEvent]:
    """Read a :class:`JSONLSink` file back into typed events."""
    from .events import event_from_dict

    events: list[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{line_no}: not valid JSON: {exc}"
                ) from None
            events.append(event_from_dict(data))
    return events


class Tracer:
    """Collects trace events in a ring buffer and fans out to sinks."""

    #: class attribute so the guard ``tracer.enabled`` is a plain load
    enabled = True

    def __init__(self, capacity: int | None = 65536,
                 sinks: Iterable[TraceSink] = ()) -> None:
        """``capacity=None`` keeps every event (full exports)."""
        if capacity is not None and capacity < 1:
            raise ReproError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self._sinks: list[TraceSink] = list(sinks)
        self.emitted = 0
        if self.enabled:
            # Emission sites reach the event classes through the lazy
            # :mod:`repro.trace` package; load them with the live tracer
            # so that a traced run imports nothing once it has started.
            from . import events  # noqa: F401

    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        """Record one event (ring buffer + every sink)."""
        self.emitted += 1
        self._buffer.append(event)
        for sink in self._sinks:
            sink.on_event(event)

    def add_sink(self, sink: TraceSink) -> TraceSink:
        self._sinks.append(sink)
        return sink

    @property
    def events(self) -> list[TraceEvent]:
        """The buffered (most recent) events, oldest first."""
        return list(self._buffer)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer (sinks still saw them)."""
        return self.emitted - len(self._buffer)

    def clear(self) -> None:
        """Empty the ring buffer and reset counters (sinks untouched)."""
        self._buffer.clear()
        self.emitted = 0

    # ------------------------------------------------------------------
    def export_chrome(self, path: str) -> None:
        """Write the buffered events as Chrome/Perfetto trace JSON."""
        from .chrome import write_chrome_trace

        write_chrome_trace(self.events, path)

    def summary(self) -> "TraceSummary":
        """Derive counters from the buffered events."""
        from .summary import summarize

        return summarize(self)

    # ------------------------------------------------------------------
    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _NullTracer(Tracer):
    """The disabled tracer: emission sites skip it via ``enabled``."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def emit(self, event: TraceEvent) -> None:
        """No-op (call sites should not even get here)."""


#: Shared disabled tracer; components default to it so the hot path is
#: a single ``if self.tracer.enabled:`` branch.
NULL_TRACER = _NullTracer()
