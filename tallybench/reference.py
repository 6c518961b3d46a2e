"""A fixed pure-Python stand-in for the simulator's work.

The single-workload form of ``run.py`` times :func:`reference` next to
every repetition and reports the workload's wall time as a multiple of
it (``wall_ratio``).  On a shared machine the same repetition runs up to
1.7x slower while other tenants load the host, in phases that last
from seconds to minutes; the reference slows with it, so the ratio
keeps to the program's own cost.

The reference is a closed discrete-event loop of the simulator's shape
(a heap of timestamped callbacks, small slotted objects, dict lookups,
float arithmetic) over a working set of a few megabytes.  It never
changes with the program, so a change to ``src/repro`` moves only the
numerator.
"""

from __future__ import annotations

import heapq
import time

#: events per call; about 0.3 s on a 2-vCPU x86 VM
EVENTS = 250_000
_DEVICES = 64
_REQUESTS = 20_000


class _Device:
    __slots__ = ("busy_until", "served", "queue")

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.served = 0
        self.queue: list[_Request] = []


class _Request:
    __slots__ = ("ident", "size", "arrived", "done")

    def __init__(self, ident: int, size: float) -> None:
        self.ident = ident
        self.size = size
        self.arrived = 0.0
        self.done = 0.0


def _run(events: int) -> float:
    devices = [_Device() for _ in range(_DEVICES)]
    requests = [_Request(i, 1e-4 * (1 + (i * 7919) % 13))
                for i in range(_REQUESTS)]
    latency: dict[int, float] = {}
    heap: list = []
    seq = 0

    def at(when: float, fn, arg) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (when, seq, fn, arg))

    def arrive(now: float, request: _Request) -> None:
        device = devices[request.ident % _DEVICES]
        request.arrived = now
        device.queue.append(request)
        if device.busy_until <= now:
            at(now, serve, device)

    def serve(now: float, device: _Device) -> None:
        if not device.queue:
            return
        request = device.queue.pop(0)
        device.busy_until = now + request.size
        device.served += 1
        request.done = device.busy_until
        latency[request.ident] = request.done - request.arrived
        at(device.busy_until, serve, device)
        at(device.busy_until + 3e-4, arrive,
           requests[(request.ident * 31 + 7) % _REQUESTS])

    for request in requests[:_DEVICES * 4]:
        at(request.size * request.ident, arrive, request)
    for _ in range(events):
        now, _seq, fn, arg = heapq.heappop(heap)
        fn(now, arg)
    return sum(latency.values())


def reference(events: int = EVENTS) -> float:
    """Host seconds one fixed reference run takes now."""
    start = time.perf_counter()
    _run(events)
    return time.perf_counter() - start
