"""Solo run-ahead: settle a trace driver's next ops without events.

Both kernel-trace drivers (:class:`~repro.workloads.TrainingJob`,
:class:`~repro.workloads.InferenceJob`) walk their ops through
:func:`run_ahead` before they submit the next kernel.  When the policy
grants a window (a passthrough policy, or Tally, on an idle,
uninstrumented device; see
:meth:`~repro.baselines.base.SharingPolicy.run_ahead`), each following
kernel — and host gap, unless the policy acts at one
(:meth:`~repro.baselines.base.SharingPolicy.run_ahead_crosses_gaps`) —
that ends inside it runs inline, and one resume event at the stretch's
end hands control back to the driver.  Inside the window nothing else
runs and the drain does not return, so nothing can observe the driver,
the policy or the device between the stretch and its end (see
``docs/performance.md``, "Solo run-ahead").

The stretch credits the events it stands for — two per device launch
(arrival, completion; a sliced kernel makes one launch per slice), one
per host gap, minus the resume event — so ``events_processed`` is the
same whatever horizons the drains use.
"""

from __future__ import annotations

__all__ = ["run_ahead"]


def run_ahead(job, completions: list[float] | None) -> int | None:
    """Run ``job``'s ops from ``job._op_index`` inline while they end
    inside its policy's run-ahead window.

    ``job`` is a trace driver: it has ``policy``, ``client_id``,
    ``engine``, ``trace``, ``_op_index``, and ``_gap_event`` and
    ``_advance`` for its host-gap timer, which the resume event reuses
    (wrapped by the policy's ``run_ahead_resume``).
    ``completions`` receives the end time of every pass over the trace
    the stretch completes (a trainer's iterations); with None the
    stretch stops at the end of the trace (an inference request, which
    the driver records itself).  Returns the number of kernels run, or
    None when nothing ran (the driver takes the event path).  Call only
    as the last thing an event does (outside a drain no window is
    granted): the window covers the events already queued, not ones
    the caller might schedule afterwards.
    """
    policy = job.policy
    client_id = job.client_id
    window = policy.run_ahead(client_id)
    if window is None:
        return None
    bound, inclusive = window
    run_inline = policy.run_inline
    crosses_gaps = policy.run_ahead_crosses_gaps(client_id)
    device = policy.device
    launches = device.launches_completed
    engine = job.engine
    ops = job.trace.ops
    last = len(ops)
    index = job._op_index
    now = engine.now
    kernels = gaps = 0
    while True:
        if index == last:
            if completions is None:
                break
            index = 0
            completions.append(now)
        op = ops[index]
        if op.kind == "gap":
            end = now + op.gap
            if (not crosses_gaps or end > bound
                    or (end == bound and not inclusive)):
                break
            gaps += 1
        else:
            end = run_inline(client_id, op.kernel, now, window)
            if end is None:
                break
            kernels += 1
        now = end
        index += 1
    if not kernels and not gaps:
        return None
    job._op_index = index
    engine.credit(2 * (device.launches_completed - launches) + gaps - 1)
    job._gap_event = engine.schedule_at(
        now, policy.run_ahead_resume(client_id, job._advance))
    return kernels
