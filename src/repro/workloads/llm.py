"""LLM inference serving: autoregressive decode under continuous batching.

The Table 2 suite drives every service with a *fixed* kernel trace per
request.  Modern serving traffic is autoregressive: each request runs a
**prefill** phase whose cost scales with its prompt, then a **decode**
loop that emits one token per step until the sampled output length is
reached, while a **continuous-batching** scheduler admits, merges, and
evicts requests mid-flight and the **KV cache** grows by one token per
sequence per step.  Following Revati's observation that this workload
class is faithfully simulable GPU-free, this module models it on the
same discrete-event substrate as the rest of the suite:

* an :class:`~repro.workloads.llm_models.LLMServingModel` (in the
  light :mod:`~repro.workloads.llm_models` catalogue) describes one
  served model — prompt and output length distributions,
  per-token prefill/decode costs, KV bytes per token, batching limits,
  and the KV pool carved out of device memory;
* a :class:`KVCache` accounts per-request cache blocks (paged, vLLM
  style) through :class:`~repro.runtime.memory.MemoryManager`, so
  allocation, growth, eviction, and release flow through the same
  allocator the functional runtime uses and conservation is auditable
  (bytes allocated == bytes freed at drain);
* an :class:`LLMServingJob` drives requests from a
  :class:`~repro.traffic.TrafficTrace` through a sharing policy: it
  submits prefill-chunk and batched-decode-step kernels, admits
  waiting requests whenever batch slots and KV headroom allow, and
  shelves the *youngest* running request when the pool runs dry.

Kernel streams are deterministic: lengths are sampled once from a
seeded generator, and kernel descriptors are pure functions of
``(model, phase, bucket)`` — names repeat, so Tally's transparent
profiler cache works exactly as it does for the trace models.  Decode
cost is quantized to the batch bucket (next power of two) so a kernel
name always implies one duration.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import Priority, SharingPolicy
from ..errors import WorkloadError
from ..gpu.engine import EventLoop
from ..metrics.serving import ServingSLO, ServingSummary
from ..runtime.memory import MemoryManager
from .. import trace
from ..traffic.maf import TrafficTrace
from .llm_models import LLMServingModel

__all__ = [
    "KVCache",
    "LLMRequest",
    "LLMServingJob",
    "BrownoutConfig",
]


# ---------------------------------------------------------------------------
# KV cache
# ---------------------------------------------------------------------------

class KVCache:
    """Paged per-request KV accounting over a bounded pool.

    Every block is a real :class:`~repro.runtime.memory.MemoryManager`
    allocation (one element per token), so cache pressure is exercised
    through the same allocator the functional runtime uses and the
    drain invariant — every element allocated is eventually freed — is
    checked against the manager's lifetime counters, not a shadow
    tally.
    """

    def __init__(self, model: LLMServingModel,
                 manager: MemoryManager | None = None) -> None:
        self.model = model
        self.manager = manager if manager is not None else MemoryManager()
        self.capacity_tokens = model.kv_capacity_tokens()
        self._blocks: dict[int, list] = {}  # request index -> block refs
        self._block_tokens = model.kv_block_tokens
        self.block_allocs = 0
        self.block_frees = 0

    # ------------------------------------------------------------------
    @property
    def used_tokens(self) -> int:
        return self.manager.live_bytes()  # one element per token

    @property
    def used_bytes(self) -> int:
        return self.used_tokens * self.model.kv_bytes_per_token

    @property
    def utilization(self) -> float:
        return self.used_tokens / self.capacity_tokens

    def blocks_for(self, tokens: int) -> int:
        return -(-tokens // self._block_tokens)

    def can_hold(self, tokens: int) -> bool:
        needed = self.blocks_for(tokens) * self._block_tokens
        return self.used_tokens + needed <= self.capacity_tokens

    # ------------------------------------------------------------------
    def admit(self, index: int, tokens: int) -> None:
        """Reserve blocks for a request entering with ``tokens`` tokens."""
        if index in self._blocks:
            raise WorkloadError(f"request {index} already holds KV blocks")
        if not self.can_hold(tokens):
            raise WorkloadError(
                f"KV pool cannot hold {tokens} tokens "
                f"({self.used_tokens}/{self.capacity_tokens} used)"
            )
        refs = [self.manager.malloc(self._block_tokens)
                for _ in range(self.blocks_for(tokens))]
        self._blocks[index] = refs
        self.block_allocs += len(refs)

    def grow(self, index: int, tokens_now: int) -> bool:
        """Ensure ``tokens_now`` tokens fit; returns False on pressure.

        Growth is block-granular: most steps are free, and a False
        return means the pool is exhausted — the driver must evict.
        """
        refs = self._blocks.get(index)
        if refs is None:
            raise WorkloadError(f"request {index} holds no KV blocks")
        needed = self.blocks_for(tokens_now)
        while len(refs) < needed:
            if self.used_tokens + self._block_tokens > self.capacity_tokens:
                return False
            refs.append(self.manager.malloc(self._block_tokens))
            self.block_allocs += 1
        return True

    def release(self, index: int) -> None:
        """Free every block of a finished or evicted request."""
        refs = self._blocks.pop(index, None)
        if refs is None:
            return
        for ref in refs:
            self.manager.free(ref)
        self.block_frees += len(refs)

    def release_all(self) -> None:
        for index in list(self._blocks):
            self.release(index)


# ---------------------------------------------------------------------------
# Brownout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrownoutConfig:
    """Hysteresis-gated degradation ladder for overloaded serving.

    Brownout trades service *quality* for service *survival*: under
    sustained pressure the driver climbs one rung at a time —

    * **level 1**: shrink the effective decode batch to
      ``batch_shrink`` of the model's ``max_batch`` (each admitted
      request finishes sooner, freeing KV earlier);
    * **level 2**: additionally chunk prefill harder
      (``chunk_shrink`` of the model's ``prefill_chunk``), so decode
      steps — the latency-critical work — interleave more often;
    * **level 3**: additionally early-evict the youngest running
      sequences until KV pressure subsides (they hold the least sunk
      work; the standard best-effort-first shedding order).

    Pressure is read from KV-pool utilization and the unadmitted
    queue depth.  Escalation and relief use separate thresholds
    (``*_high`` / ``*_low``) with a ``min_dwell`` residence time per
    rung, so the ladder cannot flap on per-step noise.
    """

    #: KV utilization at or above which the ladder escalates
    kv_high: float = 0.85
    #: KV utilization at or below which the ladder may relax
    kv_low: float = 0.60
    #: waiting-queue depth at or above which the ladder escalates
    queue_high: int = 12
    #: waiting-queue depth at or below which the ladder may relax
    queue_low: int = 4
    #: minimum simulated time between level shifts (seconds)
    min_dwell: float = 0.05
    #: level >= 1 multiplier on ``max_batch``
    batch_shrink: float = 0.5
    #: level >= 2 multiplier on ``prefill_chunk``
    chunk_shrink: float = 0.5
    #: deepest rung of the ladder
    max_level: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.kv_low <= self.kv_high <= 1.0:
            raise WorkloadError("need 0 <= kv_low <= kv_high <= 1")
        if not 0 <= self.queue_low <= self.queue_high:
            raise WorkloadError("need 0 <= queue_low <= queue_high")
        if not 0.0 < self.batch_shrink <= 1.0:
            raise WorkloadError("batch_shrink must be in (0, 1]")
        if not 0.0 < self.chunk_shrink <= 1.0:
            raise WorkloadError("chunk_shrink must be in (0, 1]")
        if self.min_dwell < 0 or self.max_level < 1:
            raise WorkloadError("need min_dwell >= 0 and max_level >= 1")


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass
class LLMRequest:
    """One serving request's timeline."""

    index: int
    arrival: float
    prompt_tokens: int
    output_tokens: int
    admitted: float | None = None
    first_token: float | None = None
    #: generation timestamp of every emitted token (first included)
    token_times: list[float] = field(default_factory=list)
    finished: float | None = None
    evicted: bool = False
    #: shed from the admission queue because its TTFT deadline passed
    deadline_shed: bool = False

    @property
    def generated(self) -> int:
        return len(self.token_times)

    @property
    def completed(self) -> bool:
        return (self.finished is not None and not self.evicted
                and not self.deadline_shed)

    @property
    def ttft(self) -> float:
        if self.first_token is None:
            raise WorkloadError(f"request {self.index} has no first token")
        return self.first_token - self.arrival

    @property
    def queueing(self) -> float:
        """Arrival-to-admission delay (the continuous-batching queue)."""
        if self.admitted is None:
            raise WorkloadError(f"request {self.index} was never admitted")
        return self.admitted - self.arrival

    def inter_token_latencies(self) -> list[float]:
        times = self.token_times
        return [times[i] - times[i - 1] for i in range(1, len(times))]


# ---------------------------------------------------------------------------
# The continuous-batching driver
# ---------------------------------------------------------------------------

class LLMServingJob:
    """Drives one LLM serving endpoint through a sharing policy.

    The server loop mirrors a vLLM-style engine condensed to the
    timing-relevant decisions:

    1. **admission** — before every step, waiting requests are admitted
       FCFS while batch slots and KV headroom last;
    2. **prefill first** — an admitted request's prompt runs as a chain
       of prefill-chunk kernels; its completion emits the first token
       and moves the request into the decode batch;
    3. **batched decode** — one kernel per step advances every running
       sequence by one token and grows its KV by one token;
    4. **eviction** — when KV growth fails mid-decode, the *youngest*
       running request is evicted (terminal here: the request is
       shed and counted, the metric the SLO analysis needs) until the
       survivors fit.

    Everything is deterministic: request lengths come from one seeded
    generator, and all scheduling follows the event loop's stable
    order — identical seeds give bit-identical token timelines.
    """

    def __init__(self, model: LLMServingModel, traffic: TrafficTrace,
                 policy: SharingPolicy, client_id: str, *,
                 priority: Priority = Priority.HIGH,
                 seed: int = 0,
                 kv_manager: MemoryManager | None = None,
                 brownout: BrownoutConfig | None = None,
                 ttft_deadline: float | None = None) -> None:
        self.model = model
        self.traffic = traffic
        self.policy = policy
        self.engine: EventLoop = policy.engine
        self.client_id = client_id
        self.priority = priority
        self.spec = policy.device.spec
        self.kv = KVCache(model, kv_manager)
        self.requests: list[LLMRequest] = []
        self.evictions = 0
        self.crashed = False
        #: degradation ladder (None = never degrade)
        self.brownout = brownout
        self.brownout_level = 0
        self.brownout_shifts = 0
        #: level-3 early evictions (a subset of ``evictions``)
        self.brownout_evictions = 0
        #: relative TTFT bound; a request still queued past
        #: ``arrival + ttft_deadline`` is shed instead of admitted
        self.ttft_deadline = ttft_deadline
        self.deadline_sheds = 0
        self._last_brownout_shift = float("-inf")
        self._waiting: list[LLMRequest] = []
        self._prefilling: list[LLMRequest] = []
        self._running: list[LLMRequest] = []
        self._arrival_index = 0
        self._busy = False
        self._started = False
        rng = np.random.default_rng(
            (zlib.crc32(model.name.encode()) << 8) ^ seed)
        count = traffic.count
        self._prompt_lengths = model.prompt_tokens.sample(count, rng)
        self._output_lengths = model.output_tokens.sample(count, rng)
        policy.register_client(client_id, priority)

    # ------------------------------------------------------------------
    # Public accessors (harness contract)
    # ------------------------------------------------------------------
    @property
    def completed_requests(self) -> int:
        return sum(1 for r in self.requests if r.completed)

    @property
    def pending_requests(self) -> int:
        """Requests admitted or queued but not yet finished/evicted."""
        return (len(self._waiting) + len(self._prefilling)
                + len(self._running))

    def completions_in(self, start: float, end: float) -> int:
        return sum(1 for r in self.requests
                   if r.completed and start <= r.finished < end)

    def tokens_in(self, start: float, end: float) -> int:
        return sum(1 for r in self.requests for t in r.token_times
                   if start <= t < end)

    def token_timeline(self) -> list[tuple[int, float]]:
        """Every ``(request index, token time)``, in generation order.

        The bit-identity oracle: two runs agree iff these lists are
        exactly equal.
        """
        events = [(t, r.index) for r in self.requests
                  for t in r.token_times]
        events.sort()
        return [(index, t) for t, index in events]

    def queueing_summary(self, *, since: float = 0.0,
                         until: float = float("inf")):
        """Admission-queue delays of requests admitted in the window."""
        from ..metrics.latency import LatencySummary

        samples = [r.queueing for r in self.requests
                   if r.admitted is not None
                   and since <= r.admitted < until]
        return LatencySummary.of(samples) if samples else None

    def serving_summary(self, *, since: float = 0.0,
                        until: float = float("inf"),
                        slo: ServingSLO | None = None) -> ServingSummary:
        """Windowed :class:`~repro.metrics.serving.ServingSummary`."""
        ttfts = [r.ttft for r in self.requests
                 if r.first_token is not None
                 and since <= r.first_token < until]
        gaps = [gap for r in self.requests
                for t, gap in zip(r.token_times[1:],
                                  r.inter_token_latencies())
                if since <= t < until]
        timings = []
        for r in self.requests:
            if r.completed and since <= r.finished < until:
                its = r.inter_token_latencies()
                timings.append((r.ttft, max(its) if its else 0.0))
        evicted = sum(1 for r in self.requests
                      if r.evicted and since <= r.finished < until)
        span = min(until, self.engine.now) - since
        if span <= 0:
            raise WorkloadError(
                f"summary window [{since}, {until}) is empty at "
                f"t={self.engine.now}"
            )
        return ServingSummary.of(
            ttfts=ttfts, gaps=gaps, request_timings=timings,
            evicted=evicted, tokens=self.tokens_in(since, until),
            span=span, slo=slo,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, *, since: float = 0.0) -> None:
        """Arm the arrival process (call once, before running the engine).

        ``since`` skips arrivals scheduled before that time — the online
        control plane admits jobs mid-run, and requests "sent" before
        the endpoint existed never happened.
        """
        if self._started:
            raise WorkloadError(f"job {self.client_id!r} already started")
        self._started = True
        if since > 0.0:
            arrivals = self.traffic.arrivals
            while (self._arrival_index < self.traffic.count
                   and float(arrivals[self._arrival_index]) < since):
                self._arrival_index += 1
        self._schedule_next_arrival()

    def crash(self) -> None:
        """The serving process dies: shed all state, free all KV."""
        self.crashed = True
        self._waiting.clear()
        self._prefilling.clear()
        self._running.clear()
        self._busy = False
        self.kv.release_all()

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        if self._arrival_index >= self.traffic.count:
            return
        when = float(self.traffic.arrivals[self._arrival_index])
        self._arrival_index += 1
        self.engine.schedule_at(when, self._on_arrival)

    def _on_arrival(self) -> None:
        if self.crashed:
            return
        index = len(self.requests)
        request = LLMRequest(
            index=index, arrival=self.engine.now,
            prompt_tokens=int(self._prompt_lengths[index]),
            output_tokens=int(self._output_lengths[index]),
        )
        self.requests.append(request)
        self._waiting.append(request)
        self._schedule_next_arrival()
        self._sample_queue_depth()
        if not self._busy:
            self._busy = True
            self._step()

    def _sample_queue_depth(self) -> None:
        tracer = self.policy.tracer
        if tracer.enabled:
            tracer.emit(trace.QueueDepth(
                ts=self.engine.now, client_id=self.client_id, kernel="",
                depth=self.pending_requests,
            ))

    # ------------------------------------------------------------------
    # Brownout & deadlines
    # ------------------------------------------------------------------
    @property
    def effective_max_batch(self) -> int:
        """Decode-batch ceiling at the current brownout level."""
        if self.brownout is None or self.brownout_level < 1:
            return self.model.max_batch
        return max(1, int(self.model.max_batch * self.brownout.batch_shrink))

    @property
    def effective_prefill_chunk(self) -> int:
        """Prefill-chunk size at the current brownout level."""
        if self.brownout is None or self.brownout_level < 2:
            return self.model.prefill_chunk
        return max(1, int(self.model.prefill_chunk
                          * self.brownout.chunk_shrink))

    def _update_brownout(self) -> None:
        cfg = self.brownout
        if cfg is None:
            return
        if self.engine.now - self._last_brownout_shift < cfg.min_dwell:
            return
        kv = self.kv.utilization
        queue = len(self._waiting)
        level = self.brownout_level
        if ((kv >= cfg.kv_high or queue >= cfg.queue_high)
                and level < cfg.max_level):
            reason = "kv-pressure" if kv >= cfg.kv_high else "queue-depth"
            self._shift_brownout(level + 1, reason)
        elif kv <= cfg.kv_low and queue <= cfg.queue_low and level > 0:
            self._shift_brownout(level - 1, "relief")
        if self.brownout_level >= cfg.max_level:
            self._brownout_evict()

    def _shift_brownout(self, level: int, reason: str) -> None:
        previous = self.brownout_level
        self.brownout_level = level
        self.brownout_shifts += 1
        self._last_brownout_shift = self.engine.now
        tracer = self.policy.tracer
        if tracer.enabled:
            tracer.emit(trace.BrownoutShift(
                ts=self.engine.now, client_id=self.client_id, kernel="",
                level=level, previous=previous, reason=reason,
                kv_utilization=self.kv.utilization,
                queue_depth=len(self._waiting),
            ))

    def _brownout_evict(self) -> None:
        """Level 3: early-evict the youngest sequences under pressure."""
        cfg = self.brownout
        while (len(self._running) > 1
               and self.kv.utilization >= cfg.kv_high):
            victim = max(self._running, key=lambda r: r.admitted)
            self._evict(victim)
            self.brownout_evictions += 1

    def _shed_past_deadline(self) -> None:
        """Drop queued requests whose TTFT deadline already passed.

        They have no KV and no sunk device work — shedding them here is
        free, and admitting them would only burn prefill capacity on
        replies their callers have stopped waiting for.
        """
        if self.ttft_deadline is None or not self._waiting:
            return
        now = self.engine.now
        kept: list[LLMRequest] = []
        tracer = self.policy.tracer
        for request in self._waiting:
            deadline = request.arrival + self.ttft_deadline
            if now >= deadline:
                request.deadline_shed = True
                request.finished = now
                self.deadline_sheds += 1
                if tracer.enabled:
                    tracer.emit(trace.DeadlineShed(
                        ts=now, client_id=self.client_id, kernel="",
                        scope="llm", deadline=deadline,
                        lateness=now - deadline,
                    ))
            else:
                kept.append(request)
        self._waiting[:] = kept

    # ------------------------------------------------------------------
    # The engine loop
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        """Pull waiting requests into the engine FCFS while room lasts."""
        self._shed_past_deadline()
        while (self._waiting
               and len(self._prefilling) + len(self._running)
               < self.effective_max_batch
               and self.kv.can_hold(self._waiting[0].prompt_tokens + 1)):
            request = self._waiting.pop(0)
            request.admitted = self.engine.now
            self.kv.admit(request.index, request.prompt_tokens + 1)
            self._prefilling.append(request)

    def _step(self) -> None:
        """Run one engine step: prefill when pending, decode otherwise."""
        if self.crashed:
            return
        self._update_brownout()
        self._admit()
        if self._prefilling:
            self._start_prefill(self._prefilling[0])
        elif self._running:
            self._start_decode()
        else:
            self._busy = False
            # going idle: nothing queued, nothing running — pressure is
            # definitionally gone, so the ladder need not walk down one
            # dwell window at a time
            if self.brownout is not None and self.brownout_level > 0:
                self._shift_brownout(0, "idle")
            self._sample_queue_depth()

    def _start_prefill(self, request: LLMRequest) -> None:
        remaining = request.prompt_tokens

        def submit_next() -> None:
            nonlocal remaining
            if self.crashed:
                return
            if remaining <= 0:
                self._finish_prefill(request)
                return
            # chunk size is re-read per kernel so a brownout shift takes
            # effect mid-prefill, not just at the next admission
            tokens = min(self.effective_prefill_chunk, remaining)
            remaining -= tokens
            kernel = self.model.prefill_kernel(tokens, self.spec)
            self.policy.submit(self.client_id, kernel, submit_next)

        submit_next()

    def _finish_prefill(self, request: LLMRequest) -> None:
        """Prefill done: the first token exists, decode takes over."""
        now = self.engine.now
        request.first_token = now
        request.token_times.append(now)
        self._prefilling.remove(request)
        if request.generated >= request.output_tokens:
            self._complete(request)  # degenerate single-token output
        else:
            self._running.append(request)
        self.engine.schedule(self.model.host_gap, self._step)

    def _start_decode(self) -> None:
        kernel = self.model.decode_kernel(len(self._running), self.spec)
        self.policy.submit(self.client_id, kernel, self._finish_decode)

    def _finish_decode(self) -> None:
        if self.crashed:
            return
        now = self.engine.now
        finished: list[LLMRequest] = []
        for request in list(self._running):
            if request.evicted:
                continue  # shed as a victim earlier in this same step
            if not self.kv.grow(request.index,
                                request.prompt_tokens + request.generated
                                + 1):
                self._evict_for_headroom(request)
                if request.evicted:
                    continue
            request.token_times.append(now)
            if request.generated >= request.output_tokens:
                finished.append(request)
        for request in finished:
            self._running.remove(request)
            self._complete(request)
        self.engine.schedule(self.model.host_gap, self._step)

    def _evict_for_headroom(self, needy: LLMRequest) -> None:
        """Shed the youngest running request(s) until ``needy`` fits.

        The youngest sequence holds the least sunk work, so shedding it
        wastes the fewest tokens — the standard serving heuristic.  If
        the youngest *is* ``needy``, it evicts itself.
        """
        while self._running:
            victim = max(self._running, key=lambda r: r.admitted)
            self._evict(victim)
            if victim is needy:
                return
            if self.kv.grow(needy.index,
                            needy.prompt_tokens + needy.generated + 1):
                return

    def _evict(self, request: LLMRequest) -> None:
        request.evicted = True
        request.finished = self.engine.now
        self.kv.release(request.index)
        self._running.remove(request)
        self.evictions += 1

    def _complete(self, request: LLMRequest) -> None:
        request.finished = self.engine.now
        self.kv.release(request.index)
        self._sample_queue_depth()
