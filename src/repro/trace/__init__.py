"""Tracing & observability for the timing simulator.

Typed events (:mod:`repro.trace.events`) are emitted by the device,
schedulers, and workload drivers into a :class:`Tracer` — a ring
buffer with pluggable sinks (in-memory, JSONL, and Chrome/Perfetto
``trace_event`` export).  :func:`summarize` derives the counters the
harness reports.  Tracing is off by default and the disabled path
(:data:`NULL_TRACER`) adds no measurable overhead.

Quick use::

    from repro.harness import JobSpec, RunConfig, run_colocation
    from repro.trace import Tracer, summarize

    tracer = Tracer(capacity=None)
    run_colocation("Tally", [JobSpec.inference("bert_infer"),
                             JobSpec.training("whisper_train")],
                   RunConfig(duration=5.0), tracer=tracer)
    tracer.export_chrome("out.json")   # load in ui.perfetto.dev
    print(summarize(tracer).format())

See ``docs/observability.md`` for the full event schema.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chrome": ("to_chrome_trace", "write_chrome_trace"),
    ".events": ("EVENT_CLASSES", "AdmissionDecision", "BreakerTransition",
                "BrownoutShift", "ChannelFault", "ClientCrash", "ClientGC",
                "DeadlineShed", "DeviceDrain", "DeviceFault", "EventType",
                "KernelComplete", "KernelStart", "KernelSubmit",
                "MigrationComplete", "MigrationStart", "PreemptAck",
                "PreemptLost", "PreemptRequest", "PtbDispatch",
                "QueueDepth", "Resume", "RetryBudgetExhausted",
                "ScaleDecision", "SchedDecision", "SliceDispatch",
                "SlotFault", "TraceEvent", "TransformCache",
                "TransformDegrade", "WatchdogReset", "event_from_dict"),
    ".summary": ("ClientCounters", "TraceSummary", "summarize"),
    ".tracer": ("JSONLSink", "MemorySink", "NULL_TRACER", "TraceSink",
                "Tracer", "load_jsonl"),
})
