"""EventLoop behavior at shard boundaries (parallel-engine contract).

The shard engine leans on three loop properties the colocation
harness never stressed: exclusive :meth:`EventLoop.advance_to` grants
that leave boundary-time events pending, cancel-then-reschedule at
*identical* timestamps (migration freeze/thaw does exactly this), and
in-place heap compaction staying correct while a boundary is held.
Sequence numbers break every tie, so two loops fed the same schedule
calls replay in the same order — the cross-shard determinism the
bit-identity suite depends on.
"""

import math

import pytest

from repro.errors import GPUSimError
from repro.gpu import EventLoop


def test_advance_to_is_exclusive_at_the_boundary():
    loop = EventLoop()
    ran = []
    loop.schedule_at(1.0, lambda: ran.append("a"))
    loop.schedule_at(2.0, lambda: ran.append("b"))
    assert loop.advance_to(2.0) == 1
    assert ran == ["a"]
    assert loop.now == 2.0
    assert loop.peek_time() == 2.0  # boundary event still pending
    assert loop.advance_to(2.0, inclusive=True) == 1
    assert ran == ["a", "b"]


def test_advance_to_moves_clock_past_drained_queue():
    loop = EventLoop()
    loop.schedule_at(0.5, lambda: None)
    loop.advance_to(3.0)
    assert loop.now == 3.0
    assert loop.peek_time() is None
    with pytest.raises(GPUSimError):
        loop.advance_to(2.0)  # the clock never goes backwards


def test_cancel_then_reschedule_at_identical_timestamp():
    loop = EventLoop()
    ran = []
    first = loop.schedule_at(1.0, lambda: ran.append("first"))
    loop.schedule_at(1.0, lambda: ran.append("second"))
    first.cancel()
    # freeze/thaw shape: re-arm at exactly the cancelled time
    loop.schedule_at(1.0, lambda: ran.append("rearmed"))
    loop.run_until(1.0)
    # scheduling order, not cancellation order, decides ties
    assert ran == ["second", "rearmed"]
    assert loop.events_processed == 2  # cancelled events never count


def test_seq_tiebreak_replays_identically_across_loops():
    def drive(loop: EventLoop) -> list[str]:
        ran: list[str] = []
        events = {}
        for name in ("a", "b", "c", "d"):
            events[name] = loop.schedule_at(
                2.0, lambda n=name: ran.append(n))
        events["b"].cancel()
        loop.schedule_at(2.0, lambda: ran.append("e"))
        loop.schedule_at(1.0, lambda: ran.append("early"))
        loop.run_until(2.0)
        return ran

    # two "shards" given the same schedule sequence: identical replay
    assert drive(EventLoop()) == drive(EventLoop())
    assert drive(EventLoop()) == ["early", "a", "c", "d", "e"]


def test_compaction_preserves_pending_boundary_events():
    loop = EventLoop()
    ran = []
    keep = []
    cancelled = []
    for i in range(3 * loop.COMPACT_THRESHOLD):
        t = 1.0 + i * 0.001
        if i % 3 == 0:
            keep.append(t)
            loop.schedule_at(t, lambda t=t: ran.append(t))
        else:
            cancelled.append(loop.schedule_at(t, lambda: ran.append(-1.0)))
    boundary = loop.schedule_at(5.0, lambda: ran.append(5.0))
    for event in cancelled:
        event.cancel()  # bulk cancel crosses the compaction threshold
    assert loop.pending == len(keep) + 1
    loop.advance_to(5.0)  # exclusive: the boundary event survives
    assert ran == keep
    assert loop.peek_time() == 5.0
    assert not boundary.cancelled
    loop.advance_to(5.0, inclusive=True)
    assert ran[-1] == 5.0


def test_compaction_in_heap_mode_keeps_order():
    loop = EventLoop()
    ran = []
    # out-of-order pushes: every one sifts to the root
    events = [loop.schedule_at(10.0 - i * 0.01, lambda i=i: ran.append(i))
              for i in range(3 * loop.COMPACT_THRESHOLD)]
    for event in events[::2]:
        event.cancel()
    expected = [i for i in range(len(events)) if i % 2 == 1]
    loop.run_until(10.0)
    # later-scheduled events had earlier times: reverse order runs
    assert ran == expected[::-1]
    assert loop.events_processed == len(expected)


@pytest.mark.parametrize("times", [(1.0, 2.0), (2.0, 1.0)],
                         ids=["in-order", "out-of-order"])
def test_peek_time_skips_cancelled_heads(times):
    loop = EventLoop()
    events = {t: loop.schedule_at(t, lambda: None) for t in times}
    events[1.0].cancel()
    assert loop.peek_time() == 2.0
    assert loop.pending == 1


def test_boundary_grant_then_same_time_schedule():
    # the coordinator advances a shard to a grant, then an op applied
    # AT the grant schedules more work at that exact time: it must run
    # before later events, after the already-pending boundary event
    loop = EventLoop()
    ran = []
    loop.schedule_at(2.0, lambda: ran.append("local"))
    loop.schedule_at(3.0, lambda: ran.append("later"))
    loop.advance_to(2.0)
    loop.schedule_at(2.0, lambda: ran.append("op"))
    loop.run_until(3.0)
    assert ran == ["local", "op", "later"]


@pytest.mark.parametrize("call", [
    lambda loop: loop.schedule_at(float("nan"), lambda: None),
    lambda loop: loop.schedule(float("nan"), lambda: None),
    lambda loop: loop.advance_to(float("nan")),
    lambda loop: loop.advance_to(float("nan"), inclusive=True),
], ids=["schedule_at", "schedule", "advance_to", "advance_to-inclusive"])
def test_nan_times_are_rejected(call):
    loop = EventLoop()
    ran = []
    loop.schedule_at(1.0, lambda: ran.append(1.0))
    loop.schedule_at(2.0, lambda: ran.append(2.0))
    with pytest.raises(GPUSimError):
        call(loop)
    # nothing ran, the clock did not move, the queue kept its order
    assert ran == [] and loop.now == 0.0 and loop.pending == 2
    loop.run()
    assert ran == [1.0, 2.0]


def test_infinite_time_stays_legal():
    loop = EventLoop()
    ran = []
    loop.schedule_at(float("inf"), lambda: ran.append("never"))
    loop.schedule(1.0, lambda: ran.append("once"))
    loop.advance_to(10.0)
    assert ran == ["once"] and loop.pending == 1
    loop.run_until(float("inf"))
    assert ran == ["once", "never"]


def test_schedule_as_orders_by_birth_then_sequence():
    # an event re-created under an earlier key (a cancelled event's
    # sequence number) runs before same-time events scheduled after
    # that key, on a fresh and on a used loop
    for warm in (False, True):
        loop = EventLoop()
        ran = []
        first = loop.schedule_at(0.25, lambda: ran.append("cancelled"))
        first.cancel()
        if warm:
            loop.schedule_at(0.5, lambda: None)
        loop.schedule_at(1.0, lambda: ran.append("early"))
        loop.advance_to(0.75)
        loop.schedule_at(2.0, lambda: ran.append("late"))
        second = loop.schedule_at(2.0, lambda: ran.append("cancelled"))
        second.cancel()
        loop.schedule_as(2.0, 0.25, first.seq, lambda: ran.append("rearmed"))
        loop.schedule_as(2.0, 1.5, second.seq,
                         lambda: ran.append("future-born"))
        loop.run()
        assert ran == ["early", "rearmed", "late", "future-born"]


# ---------------------------------------------------------------------------
# Run-ahead windows (EventLoop.quiet_until): when a passthrough policy may
# settle an idle device's kernels inline
# ---------------------------------------------------------------------------

def _probe(loop, when, seen):
    loop.schedule_at(when, lambda: seen.append(loop.quiet_until()))


def test_no_window_outside_a_bounded_drain():
    loop = EventLoop()
    seen = []
    assert loop.quiet_until() is None  # between drains
    _probe(loop, 1.0, seen)
    loop.step()  # a single step is no drain
    _probe(loop, 2.0, seen)
    loop.run()  # a drain without a limit
    _probe(loop, 3.0, seen)
    loop.run_until(10.0, max_events=5)  # a drain with an event budget
    _probe(loop, 12.0, seen)
    loop.advance_to(20.0)
    _probe(loop, 21.0, seen)
    loop.schedule_at(25.0, lambda: None)
    loop.run_until(30.0)
    assert loop.quiet_until() is None
    _probe(loop, 31.0, seen)
    loop.run_until(float("inf"))  # an infinite limit is no limit
    assert seen == [None, None, None, (20.0, False), (25.0, False), None]


def test_window_is_the_earlier_of_next_event_and_limit():
    loop = EventLoop()
    seen = []
    _probe(loop, 1.0, seen)
    loop.schedule_at(5.0, lambda: None)
    loop.run_until(5.0)  # the event at the limit bounds it exclusively
    _probe(loop, 6.0, seen)
    loop.run_until(8.0)
    _probe(loop, 9.0, seen)
    loop.advance_to(10.0)
    assert seen == [(5.0, False), (8.0, True), (10.0, False)]


@pytest.mark.parametrize("reverse", [False, True],
                         ids=["in-order", "out-of-order"])
def test_window_skips_cancelled_heads(reverse):
    loop = EventLoop()
    seen = []
    loop.schedule_at(1.0, lambda: seen.append(
        (loop.quiet_until(), loop.pending)))
    count = 128
    times = [2.0 + i for i in range(count)]
    if reverse:
        times.reverse()
    events = {t: loop.schedule_at(t, lambda: None) for t in times}
    for t in (2.0, 3.0, 4.0):
        events[t].cancel()
    loop.run_until(count + 2.0)
    # the query skipped the dead heads
    assert seen == [((5.0, False), count - 3)]
    assert loop.events_processed == 1 + count - 3


def _trainer():
    """An Ideal trainer whose iteration is one single-wave kernel."""
    from repro.baselines import Ideal
    from repro.gpu import A100_SXM4_40GB, GPUDevice, KernelDescriptor
    from repro.workloads import TrainingJob
    from repro.workloads.models import Trace, TraceOp

    loop = EventLoop()
    device = GPUDevice(A100_SXM4_40GB, loop)
    kernel = KernelDescriptor("k", num_blocks=100, threads_per_block=256,
                              block_duration=1e-5)
    trace = Trace("t", (TraceOp("kernel", kernel=kernel),), 1e-5, 0.0)
    return loop, TrainingJob(trace, Ideal(device, loop), "train")


def _kernel_ends(count):
    """The event path's completion times of the trainer's kernels."""
    from repro.baselines import PassthroughPolicy, SharingPolicy

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PassthroughPolicy, "run_ahead", SharingPolicy.run_ahead)
        loop, job = _trainer()
        job.start()
        while len(job.iteration_completions) < count:
            loop.step()
    return job.iteration_completions


def test_driver_start_and_step_never_run_ahead():
    loop, job = _trainer()
    job.start()  # outside a drain: the first kernel takes the event path
    assert loop.pending == 1
    for _ in range(20):
        loop.step()
    assert job.kernels_completed == 10
    assert loop.events_credited == 0
    assert loop.events_processed == 20


def test_unbounded_run_still_hits_its_event_budget():
    loop, job = _trainer()
    job.start()
    with pytest.raises(GPUSimError):
        loop.run(max_events=1000)  # a trainer never drains the queue
    assert loop.events_credited == 0


@pytest.mark.parametrize("blocker, inclusive, inline", [
    ("none", True, True),
    ("none", False, False),   # an exclusive limit at the end blocks it
    ("at-end", True, False),  # so does an event due exactly at the end
    ("after-end", True, True),
])
def test_stretch_end_against_events_and_limits(blocker, inclusive, inline):
    first, second = _kernel_ends(2)
    loop, job = _trainer()
    job.start()
    if blocker == "at-end":
        loop.schedule_at(second, lambda: None)
    elif blocker == "after-end":
        loop.schedule_at(math.nextafter(second, math.inf), lambda: None)
    # kernel 1 takes the event path and completes at ``first``; kernel 2
    # runs inline from there only if its completion at ``second`` fits
    # the window
    loop.advance_to(second, inclusive=inclusive)
    assert loop.events_credited == (1 if inline else 0)
    done = 2 if inline or inclusive else 1
    assert job.kernels_completed == done
    assert job.iteration_completions == [first, second][:done]
