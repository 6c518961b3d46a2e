"""Unit tests for the conservative engine core (`repro.engine`).

A toy counting domain stands in for the cluster: one tick per second
increments a counter and emits an output event, and cross-shard ops
add to the counter.  These tests assert the horizon protocol's
mechanics on the in-process shard host: exclusive grants, ops coasting
forward (and refusing to land behind a shard's clock), exactly-once
output shipping and GVT ordering; and that the process backend gives
the same results, applying batched ops in push order.
"""

from dataclasses import dataclass

import pytest

from repro.engine import CommitTracer, Op, ShardHost
from repro.engine.process import ProcessBackend
from repro.gpu import EventLoop


@dataclass(frozen=True)
class _Evt:
    ts: float
    shard: int
    value: int


class _ToyDomain:
    """Deterministic counter: +1 per tick at t=1..until, ops add more."""

    def __init__(self, index: int, until: float) -> None:
        self.loop = EventLoop()
        self.index = index
        self.outputs: list[_Evt] = []
        self.value = 0
        self.added: list[tuple[float, int]] = []
        t = 1.0
        while t <= until:
            self.loop.schedule_at(t, self._tick)
            t += 1.0

    def _tick(self) -> None:
        self.value += 1
        self.outputs.append(_Evt(self.loop.now, self.index, self.value))

    def apply(self, kind: str, payload, at: float):
        if kind == "add":
            self.value += payload
            self.added.append((at, payload))
            return None
        if kind == "read":
            return self.value
        raise AssertionError(f"unknown op {kind!r}")

    def query(self, kind: str, payload):
        if kind == "added":
            return self.added
        assert kind == "value"
        return self.value

    def finalize(self, at: float):
        self.loop.run_until(at)
        return (self.value, self.loop.events_processed)


@dataclass(frozen=True)
class _ToyProgram:
    until: float = 10.0

    def build(self, index: int) -> _ToyDomain:
        return _ToyDomain(index, self.until)


def _op(seq, shard, at, kind="add", payload=1, want_result=False):
    return Op(seq=seq, shard=shard, at=at, kind=kind, payload=payload,
              want_result=want_result)


# ---------------------------------------------------------------------------
# CommitTracer: GVT merge order and fossil collection
# ---------------------------------------------------------------------------

class _Recorder:
    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


def test_commit_tracer_orders_by_ts_then_source():
    sink = _Recorder()
    commit = CommitTracer(sink)
    commit.add_shard_events(1, [_Evt(2.0, 1, 1)])
    commit.add_shard_events(0, [_Evt(1.0, 0, 1), _Evt(2.0, 0, 2)])
    commit.emit(_Evt(2.0, -1, 0))  # coordinator event, same ts
    assert commit.commit(2.0) == 1  # only ts < 2.0 commits
    assert [e.ts for e in sink.events] == [1.0]
    assert commit.close() == 3
    # at equal ts: coordinator (source -1) first, then shard 0, shard 1
    assert [(e.ts, e.shard) for e in sink.events] == [
        (1.0, 0), (2.0, -1), (2.0, 0), (2.0, 1)]
    assert commit.committed == 4


def test_commit_tracer_frees_committed_buffers():
    commit = CommitTracer(_Recorder())
    commit.add_shard_events(0, [_Evt(float(t), 0, t) for t in range(10)])
    commit.commit(5.0)
    assert len(commit._pending) == 5  # fossil-collected below GVT
    commit.commit(5.0)  # idempotent
    assert len(commit._pending) == 5


# ---------------------------------------------------------------------------
# ShardHost: exclusive grants, coasting ops, exactly-once outputs
# ---------------------------------------------------------------------------

def _host(shards: int = 1) -> ShardHost:
    host = ShardHost(_ToyProgram(), range(shards))
    host.start()
    return host


def test_advance_never_runs_a_grant_time_event():
    host = _host()
    domain = host.domains[0]
    host.advance(2.0)
    # exclusive: the tick at exactly 2.0 has not run
    assert domain.value == 1
    assert domain.loop.now == 2.0
    assert domain.loop.peek_time() == 2.0
    # an op issued at the grant applies before the grant-time tick
    assert host.op(_op(0, 0, 2.0, kind="read", want_result=True)) == 1
    host.advance(2.0)  # re-granting the same horizon runs nothing
    assert domain.value == 1
    host.advance(4.5)
    assert domain.value == 4
    assert domain.loop.events_processed == 4


def test_apply_in_the_future_coasts_forward():
    host = _host()
    result = host.op(_op(0, 0, 3.5, kind="read", want_result=True))
    assert result == 3  # ticks 1..3 ran on the way
    assert host.domains[0].loop.now == 3.5
    # an op without want_result returns nothing
    assert host.op(_op(1, 0, 3.5, kind="read")) is None


def test_op_behind_the_shard_clock_raises():
    """A shard never runs past its grant, so an op timestamped before
    its clock means the horizon protocol is broken."""
    host = _host()
    host.advance(4.5)
    with pytest.raises(RuntimeError, match="horizon protocol broken"):
        host.op(_op(7, 0, 3.5, payload=10))
    assert host.domains[0].value == 4  # the op never applied
    # an op exactly at the clock is fine
    host.op(_op(8, 0, 4.5, payload=10))
    assert host.domains[0].value == 14


def test_drain_outputs_ships_each_output_once():
    host = _host()
    shipped = host.advance(4.5)
    assert [e.ts for e in shipped[0]] == [1.0, 2.0, 3.0, 4.0]
    assert host.advance(4.5) == {}
    # the grant-time tick at 6.0 has not run; 5.0 ships alone
    assert [e.ts for e in host.advance(6.0)[0]] == [5.0]
    assert host.domains[0].outputs == []  # shipped buffers are freed


def _drive(host) -> dict[int, list]:
    """The protocol end to end on two shards; returns what shipped."""
    shipped = {0: [], 1: []}

    def collect(outputs):
        for index, events in outputs.items():
            shipped[index].extend(events)

    host.start()
    try:
        collect(host.advance(2.5))
        assert host.op(_op(0, 0, 2.5, payload=10)) is None
        collect(host.advance(4.0))
        assert host.query(0, "value", None) == 13
        collect(host.advance(4.0))  # same grant again: nothing new
        reports, outputs, stats = host.finalize(10.0)
        collect(outputs)
    finally:
        host.stop()
    assert reports[0] == (20, 10)
    assert reports[1] == (10, 10)
    assert stats == {0: 10, 1: 10}
    return shipped


def test_host_ships_outputs_exactly_once():
    shipped = _drive(ShardHost(_ToyProgram(), range(2)))
    for index in (0, 1):
        assert [e.ts for e in shipped[index]] == [
            float(t) for t in range(1, 11)]


# ---------------------------------------------------------------------------
# ProcessBackend: the same verbs over worker pipes
# ---------------------------------------------------------------------------

def test_process_backend_matches_the_host():
    inline = _drive(ShardHost(_ToyProgram(), range(2)))
    assert _drive(ProcessBackend(_ToyProgram(), 2, workers=2)) == inline


def test_process_backend_applies_batched_ops_in_push_order():
    """Ops sent without a reply wait in their worker's outbox; a
    blocking query flushes them first, and the worker applies them in
    push order before it answers."""
    backend = ProcessBackend(_ToyProgram(), 2, workers=2)
    backend.start()
    try:
        backend.advance(2.5)
        pushed = [(2.5, 3), (2.5, 1), (3.5, 2), (3.5, 7)]
        for seq, (at, payload) in enumerate(pushed):
            assert backend.op(_op(seq, 0, at, payload=payload)) is None
        assert len(backend._outboxes[0]) == len(pushed)  # nothing sent
        assert backend.query(0, "added", None) == pushed
        assert backend.query(0, "value", None) == 3 + 13
        assert backend.query(1, "added", None) == []
    finally:
        backend.stop()
