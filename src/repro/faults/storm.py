"""Retry-storm chaos scenario: metastable overload, with and without
the resilience layer.

The classic metastable failure: a server degrades for a bounded window,
every client retries every failed call, and the retries consume the
capacity that fresh work needed — so the overload outlives the fault
that triggered it.  This scenario reproduces that shape deterministically
and measures whether the overload-resilience layer
(:mod:`repro.virt.resilience`: token-bucket retry budgets + circuit
breakers) actually bounds it.

The model: ``clients`` channels issue calls at seeded Poisson times
against one capacity-limited server on a shared
:class:`~repro.gpu.engine.EventLoop`.  Every *attempt* — including one
that is about to fail — consumes ``1/capacity`` seconds of server time,
because a degraded server still burns cycles on requests whose replies
are lost.  During ``[degrade_start, degrade_end)`` the server answers
every attempt with a retryable transport failure:

* **without resilience** every fresh call fans out into
  ``max_attempts`` sends; the amplified load builds a service backlog
  far larger than the window itself, and post-window latencies stay
  over the SLO until the backlog drains — attainment collapses *after*
  the fault is gone (the storm signature);
* **with resilience** the per-client retry budget caps the fan-out,
  terminal failures open the breakers, and in-window calls are refused
  client-side without a single send — the server never builds the
  backlog, and breakers re-close within their jittered probe windows.

Everything is seeded: arrival times come from per-client sub-RNGs and
breaker probe windows from the channel's seeded jitter stream, so a
run (and the process-parallel :func:`run_storm_sweep`) replays
bit-identically.  With ``check=True`` the per-client call ledgers are
audited by :func:`~repro.check.check_request_conservation` — every
fresh call must end as exactly one success or one counted shed/failure.

``StormConfig.shards`` models a *sharded* service: total capacity is
split evenly across that many independent server replicas, clients are
dealt round-robin (keeping their global ids and seed streams), and the
degrade window hits every replica — the correlated-fault shape of a bad
deploy.  Each shard is a self-contained seeded simulation, so shards
run serially or across worker processes (``run_storm(..., jobs=N)``)
with a deterministic merge: counters sum,
:meth:`~repro.metrics.OverloadReport.merged` recomputes amplification
and the breaker timeline, and trace events commit through the
engine's :class:`~repro.engine.CommitTracer` in ``(ts, shard,
arrival)`` order.  ``shards=1`` is exactly the legacy single-server
storm.  See ``docs/fault_tolerance.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial

from ..check import ServiceLedger, check_request_conservation
from ..errors import (
    ChannelTimeout,
    CircuitOpen,
    DeadlineExceeded,
    HarnessError,
    VirtError,
)
from ..engine.sync import CommitTracer, ShardBuffer
from ..gpu import EventLoop
from ..harness.sweep import pool_map
from ..metrics import OverloadReport, attainment_through_window
from ..trace import NULL_TRACER
from ..virt import Channel, ChannelConfig, ResilienceConfig, SHARED_MEMORY
from ..virt.protocol import Envelope, Response, SynchronizeRequest

__all__ = [
    "StormConfig",
    "StormResult",
    "run_storm",
    "run_storm_sweep",
    "storm_pair",
]


@dataclass(frozen=True)
class StormConfig:
    """One fully described, picklable retry-storm run."""

    clients: int = 8
    #: fresh calls per client per second (Poisson)
    call_rate: float = 40.0
    #: server attempts per second; every attempt costs 1/capacity
    capacity: float = 600.0
    duration: float = 6.0
    #: the degrade window: every attempt inside it fails retryably
    degrade_start: float = 2.0
    degrade_end: float = 4.0
    #: per-call latency SLO, seconds (queue wait + transport + retries)
    slo: float = 0.02
    seed: int = 0
    #: None = raw retries (the storm); set to bound it
    resilience: ResilienceConfig | None = None
    channel: ChannelConfig = field(default=SHARED_MEMORY)
    check: bool = False
    label: str = ""
    #: independent server replicas; capacity splits evenly, clients are
    #: dealt round-robin, 1 = the legacy single-server storm
    shards: int = 1

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise HarnessError("need at least one client")
        if self.shards < 1:
            raise HarnessError("need at least one shard")
        if self.call_rate <= 0 or self.capacity <= 0:
            raise HarnessError("call_rate and capacity must be > 0")
        if not 0 <= self.degrade_start < self.degrade_end <= self.duration:
            raise HarnessError(
                "need 0 <= degrade_start < degrade_end <= duration")
        if self.slo <= 0:
            raise HarnessError("slo must be > 0")


@dataclass(frozen=True)
class StormResult:
    """Outcome of one retry-storm run."""

    label: str
    overload: OverloadReport
    successes: int
    failures: int
    #: SLO attainment of *served* calls before / during / after the
    #: degrade window (shed work is reported in ``overload.sheds``, not
    #: here: a fast refusal is the bounded outcome, a served call that
    #: blows the SLO is the metastable one); empty windows are 1.0
    attainment_before: float
    attainment_during: float
    attainment_after: float
    #: worst service backlog the server ever carried, seconds
    peak_backlog: float
    invariant_checks: int
    events: int

    @property
    def amplification(self) -> float:
        return self.overload.amplification

    def format(self) -> str:
        lines = [
            f"{self.label or 'storm'}: "
            f"ok={self.successes} failed={self.failures}  "
            f"peak backlog={self.peak_backlog * 1e3:.0f}ms",
            f"attainment: before={self.attainment_before:.1%}  "
            f"during={self.attainment_during:.1%}  "
            f"after={self.attainment_after:.1%}",
            self.overload.format(),
        ]
        return "\n".join(lines)


class _SaturableServer:
    """A fixed-capacity server that still burns cycles while degraded."""

    def __init__(self, engine: EventLoop, config: StormConfig, *,
                 capacity: float | None = None) -> None:
        self.engine = engine
        self.config = config
        self.service_time = 1.0 / (capacity if capacity is not None
                                   else config.capacity)
        self.busy_until = 0.0
        self.attempts = 0
        self.peak_backlog = 0.0
        #: queue wait the most recent attempt paid (read by the caller)
        self.last_wait = 0.0

    def handle(self, envelope: Envelope) -> Response:
        now = self.engine.now
        self.attempts += 1
        start = max(now, self.busy_until)
        self.last_wait = start - now
        self.busy_until = start + self.service_time
        self.peak_backlog = max(self.peak_backlog, self.busy_until - now)
        if self.config.degrade_start <= now < self.config.degrade_end:
            return Response.transport_failure(
                "server degraded; reply lost")
        return Response.success()


@dataclass(frozen=True)
class _StormCell:
    """Picklable outcome of one service shard (merged by run_storm)."""

    overload: OverloadReport
    successes: int
    failures: int
    samples: tuple[tuple[float, float], ...]
    peak_backlog: float
    checks: int
    events: int
    trace_events: tuple = ()


def _storm_cell(config: StormConfig, shard: int,
                collect_events: bool = False) -> _StormCell:
    """Run one service shard: a self-contained seeded simulation.

    Shard ``shard`` of ``config.shards`` owns the clients with global
    index ``i % shards == shard`` (ids and seed streams keep the global
    index, so a client's arrival process is the same under any shard
    count) and a server replica with ``capacity / shards``.
    """
    tracer = ShardBuffer() if collect_events else NULL_TRACER
    engine = EventLoop()
    server = _SaturableServer(
        engine, config, capacity=config.capacity / config.shards)
    indices = [i for i in range(config.clients)
               if i % config.shards == shard]
    channels = [
        Channel(server.handle, config.channel,
                client_id=f"storm#{i}", seed=config.seed,
                clock=lambda: engine.now, tracer=tracer,
                resilience=config.resilience)
        for i in indices
    ]
    # arrivals counts every issued call — including breaker fast-fails,
    # which never become a "fresh call" because they are refused before
    # an envelope exists; the conservation audit balances against it
    arrivals = [0] * len(channels)
    successes = [0] * len(channels)
    failures = [0] * len(channels)
    #: (completion ts, latency) per *served* call — the storm signature
    #: is served work blowing the SLO long after the fault cleared
    samples: list[tuple[float, float]] = []

    def call(pos: int) -> None:
        channel = channels[pos]
        arrivals[pos] += 1
        before = channel.stats.simulated_time
        now = engine.now
        try:
            channel.call(SynchronizeRequest(client_id=channel.client_id))
        except (ChannelTimeout, CircuitOpen, DeadlineExceeded, VirtError):
            failures[pos] += 1
        else:
            successes[pos] += 1
            latency = ((channel.stats.simulated_time - before)
                       + server.last_wait)
            samples.append((now, latency))

    for pos, index in enumerate(indices):
        rng = random.Random(f"{config.seed}/storm/{index}")
        t = 0.0
        while True:
            t += rng.expovariate(config.call_rate)
            if t >= config.duration:
                break
            engine.schedule_at(t, lambda p=pos: call(p))
    engine.run_until(config.duration)

    checks = 0
    if config.check:
        ledgers = [
            ServiceLedger(
                client_id=channels[pos].client_id,
                arrivals=arrivals[pos],
                completed=successes[pos], pending=0, shed=failures[pos],
            )
            for pos in range(len(channels))
        ]
        checks = check_request_conservation(ledgers)

    return _StormCell(
        overload=OverloadReport.of(channels),
        successes=sum(successes),
        failures=sum(failures),
        samples=tuple(samples),
        peak_backlog=server.peak_backlog,
        checks=checks,
        events=engine.events_processed,
        trace_events=tuple(tracer) if collect_events else (),
    )


def run_storm(config: StormConfig, *, tracer=None,
              jobs: int = 1) -> StormResult:
    """Run one retry-storm scenario and measure the damage.

    With ``config.shards > 1`` the shard cells are independent seeded
    simulations; ``jobs=N`` runs them over worker processes and is
    bit-identical to ``jobs=1`` because the merge is deterministic
    (counters sum, trace events commit in ``(ts, shard, arrival)``
    order).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    shards = config.shards
    want_events = bool(getattr(tracer, "enabled", False))
    cells = pool_map(partial(_storm_cell, config,
                             collect_events=want_events),
                     range(shards), jobs=jobs)

    if want_events:
        commit = CommitTracer(tracer)
        for shard, cell in enumerate(cells):
            commit.add_shard_events(shard, list(cell.trace_events))
        commit.close()

    samples = [s for cell in cells for s in cell.samples]
    return StormResult(
        label=config.label,
        overload=OverloadReport.merged([cell.overload for cell in cells]),
        successes=sum(cell.successes for cell in cells),
        failures=sum(cell.failures for cell in cells),
        attainment_before=attainment_through_window(
            samples, config.slo, (0.0, config.degrade_start)),
        attainment_during=attainment_through_window(
            samples, config.slo, (config.degrade_start,
                                  config.degrade_end)),
        attainment_after=attainment_through_window(
            samples, config.slo, (config.degrade_end, config.duration)),
        peak_backlog=max(cell.peak_backlog for cell in cells),
        invariant_checks=sum(cell.checks for cell in cells),
        events=sum(cell.events for cell in cells),
    )


def storm_pair(config: StormConfig | None = None, *,
               resilience: ResilienceConfig | None = None
               ) -> tuple[StormConfig, StormConfig]:
    """The canonical A/B: the same storm without and with the layer."""
    base = config if config is not None else StormConfig()
    return (
        replace(base, resilience=None, label="unbounded"),
        replace(base,
                resilience=(resilience if resilience is not None
                            else ResilienceConfig()),
                label="resilient"),
    )


def run_storm_sweep(configs: list[StormConfig], *,
                    jobs: int = 1) -> list[StormResult]:
    """Run storm cases, optionally over worker processes.

    Each case is an independent seeded simulation, so ``jobs=N`` is
    bit-identical to ``jobs=1`` (same discipline as
    :func:`repro.harness.run_sweep`).
    """
    return pool_map(run_storm, configs, jobs=jobs)
