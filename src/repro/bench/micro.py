"""Micro benchmarks: the hot path in isolation.

Three components dominate every run's profile, so each gets a dedicated
throughput measurement:

* **event loop** — schedule/fire churn through
  :class:`~repro.gpu.engine.EventLoop`: a deep timer chain, the shape
  stream-ordered kernels produce, and a synthetic deep-heap stress in
  which every event is pre-scheduled (no simulator workload builds
  such a queue: arrival drivers schedule one arrival at a time);
* **device dispatch** — back-to-back ORIGINAL launches through
  :class:`~repro.gpu.device.GPUDevice`, plus a PTB stream, measuring
  the dispatch/complete cycle without any policy above it;
* **transform pipeline** — the PTX slicing/PTB transformations: a cold
  phase (the one-off compile per distinct kernel) followed by a
  memoized phase where fresh kernel objects and pipelines share the
  content-addressed transform memo, the steady-state server cost.

Scales: ``smoke`` sizes each benchmark for a CI gate (< a few seconds
total), ``quick``/``full`` grow the workloads for stable local numbers.
"""

from __future__ import annotations

import time

from ..gpu.device import DeviceLaunch, GPUDevice
from ..gpu.engine import EventLoop
from ..gpu.kernel import KernelDescriptor, LaunchConfig, LaunchKind
from ..gpu.specs import A100_SXM4_40GB
from .harness import BenchmarkResult, PhaseTimer

__all__ = ["MICRO_BENCHMARKS", "bench_event_loop", "bench_device_dispatch",
           "bench_transform_pipeline"]

_SIZES = {
    # (chained events, fan-out events, device launches, transforms)
    "smoke": (50_000, 50_000, 2_000, 60),
    "quick": (200_000, 200_000, 10_000, 200),
    "full": (1_000_000, 1_000_000, 50_000, 500),
}


def _sizes(scale: str) -> tuple[int, int, int, int]:
    return _SIZES.get(scale, _SIZES["smoke"])


def bench_event_loop(scale: str = "smoke") -> BenchmarkResult:
    """Raw engine throughput: timer chain + concurrent fan-out."""
    chain_n, fan_n, _launches, _transforms = _sizes(scale)
    timer = PhaseTimer()

    # Phase 1: a single deep chain — each event schedules the next,
    # the shape stream-ordered kernel completions produce.
    loop = EventLoop()
    remaining = [chain_n]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            loop.schedule(1e-6, tick)

    loop.schedule(1e-6, tick)
    start = time.perf_counter()
    loop.run()
    timer.add("chain", time.perf_counter() - start, chain_n)

    # Phase 2: wide fan-out — all events pre-scheduled, a synthetic
    # stress of heap push/pop at depth.  Not a simulator shape: arrival
    # drivers reschedule themselves one arrival at a time.
    loop2 = EventLoop()
    noop = lambda: None  # noqa: E731 - minimal callback on purpose
    start = time.perf_counter()
    for i in range(fan_n):
        loop2.schedule_at(i * 1e-6, noop)
    loop2.run()
    timer.add("fanout", time.perf_counter() - start, fan_n)

    wall = sum(p.wall_s for p in timer.phases)
    events = loop.events_processed + loop2.events_processed
    return BenchmarkResult(
        name="micro.event_loop", wall_s=wall, events=events,
        phases=timer.phases,
    )


def bench_device_dispatch(scale: str = "smoke") -> BenchmarkResult:
    """Device dispatch/complete cycle with no policy above it."""
    _chain, _fan, launches_n, _transforms = _sizes(scale)
    spec = A100_SXM4_40GB
    timer = PhaseTimer()

    # Phase 1: stream-ordered ORIGINAL launches (multi-wave grids).
    engine = EventLoop()
    device = GPUDevice(spec, engine)
    descriptor = KernelDescriptor(
        "bench_original", num_blocks=2048, threads_per_block=256,
        block_duration=2e-5,
    )
    remaining = [launches_n]

    def submit_next(_launch: DeviceLaunch | None = None) -> None:
        if remaining[0] <= 0:
            return
        remaining[0] -= 1
        device.submit(DeviceLaunch(
            descriptor, client_id="bench", on_complete=submit_next))

    start = time.perf_counter()
    submit_next()
    engine.run()
    timer.add("original", time.perf_counter() - start,
              engine.events_processed)
    events = engine.events_processed

    # Phase 2: a PTB stream (persistent workers iterating a large grid).
    engine2 = EventLoop()
    device2 = GPUDevice(spec, engine2)
    ptb_descriptor = KernelDescriptor(
        "bench_ptb", num_blocks=8192, threads_per_block=256,
        block_duration=2e-5,
    )
    ptb_remaining = [max(1, launches_n // 20)]

    def submit_ptb(_launch: DeviceLaunch | None = None) -> None:
        if ptb_remaining[0] <= 0:
            return
        ptb_remaining[0] -= 1
        device2.submit(DeviceLaunch(
            ptb_descriptor, LaunchConfig(LaunchKind.PTB, workers=432),
            client_id="bench", on_complete=submit_ptb))

    start = time.perf_counter()
    submit_ptb()
    engine2.run()
    timer.add("ptb", time.perf_counter() - start, engine2.events_processed)
    events += engine2.events_processed

    wall = sum(p.wall_s for p in timer.phases)
    return BenchmarkResult(
        name="micro.device_dispatch", wall_s=wall, events=events,
        phases=timer.phases,
        extra={"launches": launches_n + max(1, launches_n // 20)},
    )


def bench_transform_pipeline(scale: str = "smoke") -> BenchmarkResult:
    """PTX transformation cost: cold compiles, then memoized reuse.

    Phase 1 (``cold``) pays the full transformation cost once per
    distinct kernel.  Phase 2 (``memoized``) models the production
    server: every iteration builds *fresh* kernel objects and a *fresh*
    pipeline (new clients, repeated workloads, sweep cases), all sharing
    one content-addressed :class:`~repro.transform.TransformMemo` — so
    each transform costs a structural hash plus a lookup rather than a
    recompile.  The headline events/s therefore tracks what the memo JIT
    actually buys; ``extra`` carries the cache counters for the gate.
    """
    from ..ptx.library import dot_product, saxpy, stencil_1d, vector_add
    from ..transform.memo import TransformMemo
    from ..transform.pipeline import TransformPipeline

    _chain, _fan, _launches, transforms_n = _sizes(scale)
    factories = (vector_add, saxpy, stencil_1d, lambda: dot_product(128))
    timer = PhaseTimer()
    memo = TransformMemo()
    transformed = 0

    # Phase 1: cold — one full compile per distinct kernel content.
    start = time.perf_counter()
    for factory in factories:
        kernel = factory()
        pipeline = TransformPipeline(memo=memo)
        pipeline.sliced(kernel)
        pipeline.preemptible(kernel)
        transformed += 2
    timer.add("cold", time.perf_counter() - start, transformed)

    # Phase 2: memoized — fresh kernel objects (new ids, same content)
    # through fresh pipelines; every transform is a memo hit.
    warm = 0
    start = time.perf_counter()
    for i in range(transforms_n):
        kernel = factories[i % len(factories)]()
        pipeline = TransformPipeline(memo=memo)
        pipeline.sliced(kernel)
        pipeline.preemptible(kernel)
        warm += 2
    timer.add("memoized", time.perf_counter() - start, warm)
    transformed += warm

    wall = sum(p.wall_s for p in timer.phases)
    return BenchmarkResult(
        name="micro.transform_pipeline", wall_s=wall, events=transformed,
        phases=timer.phases,
        extra={
            "kernels": transforms_n,
            "cache_hits": memo.hits,
            "cache_misses": memo.misses,
            "cache_evictions": memo.evictions,
            "cache_hit_rate": round(memo.hit_rate, 4),
        },
    )


#: suite entries in run order (name, callable)
MICRO_BENCHMARKS = (
    ("micro.event_loop", bench_event_loop),
    ("micro.device_dispatch", bench_device_dispatch),
    ("micro.transform_pipeline", bench_transform_pipeline),
)
