"""Integration: traced runs emit the right events at the right times."""

import json

import pytest

from repro.baselines import Priority
from repro.core import Tally, TallyConfig
from repro.gpu import A100_SXM4_40GB, EventLoop, GPUDevice, KernelDescriptor
from repro.harness import JobSpec, RunConfig, run_colocation
from repro.trace import (
    EventType,
    KernelComplete,
    KernelStart,
    KernelSubmit,
    PreemptAck,
    PreemptRequest,
    PtbDispatch,
    Resume,
    SchedDecision,
    Tracer,
    summarize,
    to_chrome_trace,
)


def _of_type(events, cls):
    return [e for e in events if isinstance(e, cls)]


class TestDeviceLifecycle:
    def test_launch_lifecycle_timestamps(self):
        engine = EventLoop()
        tracer = Tracer()
        device = GPUDevice(A100_SXM4_40GB, engine, tracer=tracer)
        from repro.gpu import DeviceLaunch

        kernel = KernelDescriptor("k", num_blocks=64, threads_per_block=128,
                                  block_duration=50e-6)
        device.submit(DeviceLaunch(kernel, client_id="c"))
        engine.run()

        submit, = _of_type(tracer.events, KernelSubmit)
        start, = _of_type(tracer.events, KernelStart)
        complete, = _of_type(tracer.events, KernelComplete)
        assert submit.ts <= start.ts <= complete.ts
        assert submit.launch_seq == start.launch_seq == complete.launch_seq
        assert complete.status == "completed"
        assert complete.started_at == start.ts
        assert complete.duration == complete.ts - start.ts

    def test_disabled_tracer_emits_nothing(self):
        engine = EventLoop()
        device = GPUDevice(A100_SXM4_40GB, engine)
        from repro.gpu import DeviceLaunch

        kernel = KernelDescriptor("k", num_blocks=8, threads_per_block=128,
                                  block_duration=10e-6)
        device.submit(DeviceLaunch(kernel, client_id="c"))
        engine.run()
        assert device.tracer.enabled is False
        assert device.tracer.events == []


class TestTallyPreemption:
    """An HP arrival mid-best-effort execution must show up as
    preempt request (at the arrival instant) -> ack (within one PTB
    iteration) -> resume (after the HP kernel completes)."""

    def _run(self):
        engine = EventLoop()
        tracer = Tracer()
        device = GPUDevice(A100_SXM4_40GB, engine, tracer=tracer)
        # PTB-only candidates make the chosen transform deterministic.
        policy = Tally(device, engine, TallyConfig(
            slice_fractions=(), worker_sm_multiples=(1,)))
        policy.register_client("hp", priority=Priority.HIGH)
        policy.register_client("be", priority=Priority.BEST_EFFORT)

        be_kernel = KernelDescriptor("be_k", num_blocks=1000,
                                     threads_per_block=128,
                                     block_duration=50e-6)
        hp_kernel = KernelDescriptor("hp_k", num_blocks=10,
                                     threads_per_block=128,
                                     block_duration=20e-6)
        hp_arrival = 200e-6
        done = {"be": None, "hp": None}

        def be_done():
            done["be"] = engine.now

        def hp_done():
            done["hp"] = engine.now

        policy.submit("be", be_kernel, be_done)
        engine.schedule_at(
            hp_arrival, lambda: policy.submit("hp", hp_kernel, hp_done))
        engine.run()
        assert done["be"] is not None and done["hp"] is not None
        return tracer.events, hp_arrival, done, be_kernel

    def test_preemption_event_sequence(self):
        events, hp_arrival, done, be_kernel = self._run()

        requests = _of_type(events, PreemptRequest)
        assert len(requests) == 1
        request = requests[0]
        assert request.mechanism == "ptb-flag"
        assert request.client_id == "be"
        # The request fires exactly when the HP kernel arrives...
        assert request.ts == hp_arrival
        # ...and nothing was preempted before that.
        acks = _of_type(events, PreemptAck)
        assert len(acks) == 1
        assert acks[0].ts >= request.ts
        # Turnaround is bounded by one PTB iteration.
        iteration = be_kernel.ptb_iteration_duration()
        assert acks[0].ts - request.ts <= iteration + 1e-12

        resumes = _of_type(events, Resume)
        assert len(resumes) == 1
        assert resumes[0].ts >= done["hp"]
        assert resumes[0].tasks_remaining > 0
        assert resumes[0].transform.startswith("ptb(")

        # Two PTB segments: the original dispatch and the resume.
        dispatches = _of_type(events, PtbDispatch)
        assert [d.segment for d in dispatches] == [1, 2]

    def test_decision_recorded(self):
        events, *_ = self._run()
        decisions = [d for d in _of_type(events, SchedDecision)
                     if d.client_id == "be"]
        assert len(decisions) == 1
        assert decisions[0].transform == "ptb(108)"  # 1 x A100 SMs


class TestColocationTrace:
    @pytest.mark.slow
    def test_tally_colocation_emits_consistent_trace(self):
        config = RunConfig(duration=2.0, warmup=0.5)
        tracer = Tracer(capacity=None)
        jobs = [JobSpec.inference("resnet50_infer", load=0.3),
                JobSpec.training("pointnet_train")]
        result = run_colocation("Tally", jobs, config, tracer=tracer)
        events = tracer.events
        assert tracer.dropped == 0

        seen = {e.type for e in events}
        assert EventType.KERNEL_SUBMIT in seen
        assert EventType.KERNEL_COMPLETE in seen
        assert EventType.SCHED_DECISION in seen
        assert {EventType.SLICE_DISPATCH, EventType.PTB_DISPATCH} & seen
        assert EventType.PREEMPT_REQUEST in seen
        assert EventType.QUEUE_DEPTH in seen

        # Every timestamp lies within the simulated window.
        assert all(0.0 <= e.ts <= config.duration for e in events)

        # Best-effort preemptions coincide exactly with high-priority
        # kernel arrivals (Tally preempts in the submission path).
        hp_submits = {e.ts for e in _of_type(events, KernelSubmit)
                      if e.client_id == "resnet50_infer#0"}
        requests = _of_type(events, PreemptRequest)
        assert requests
        assert all(r.ts in hp_submits for r in requests)

        # Derived counters line up with the events.
        summary = summarize(tracer, config.spec)
        acks = _of_type(events, PreemptAck)
        assert summary.preemptions == len(acks)
        assert summary.clients["resnet50_infer#0"].submitted > 0

        # Latencies reported by the harness are consistent with the
        # per-request spans in the trace: no request can take longer
        # than the whole measurement window.
        inf = result.job("resnet50_infer#0")
        assert inf.latency is not None
        assert inf.latency.max <= config.duration

        # And the export is loadable, strictly valid JSON.
        doc = to_chrome_trace(events)
        json.dumps(doc, allow_nan=False)
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    @pytest.mark.slow
    def test_reef_and_time_slicing_emit_decisions(self):
        config = RunConfig(duration=1.0, warmup=0.2)
        jobs = [JobSpec.inference("resnet50_infer", load=0.3),
                JobSpec.training("pointnet_train")]
        transforms = {}
        for policy in ("REEF", "Time-Slicing"):
            tracer = Tracer(capacity=None)
            run_colocation(policy, jobs, config, tracer=tracer)
            transforms[policy] = {
                d.transform for d in tracer.events
                if isinstance(d, SchedDecision)
            }
        assert "reset" in transforms["REEF"]
        assert "context-switch" in transforms["Time-Slicing"]
