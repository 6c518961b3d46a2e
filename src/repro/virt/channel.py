"""Client/server communication channels.

The paper found naive API forwarding too slow and adopted shared-memory
channels to avoid context switches (§4.3).  The reproduction models a
channel as a synchronous request/response pipe with a configurable
per-message cost and byte-rate; it *accounts* for the time each
transport would spend, so tests and benchmarks can quantify the
optimization (socket vs shared memory) without real IPC.

Reliability: every call travels in an :class:`~repro.virt.protocol.
Envelope` carrying a request id, payload checksum, and (optionally) an
absolute deadline.  When a fault injector (:mod:`repro.faults`) is
attached, messages can be dropped, duplicated, corrupted, or delayed;
the channel recovers with timeout + backoff retries — seeded
decorrelated jitter by default, so concurrent clients de-synchronize —
and retries reuse the envelope's request id so an envelope-aware
server (``TallyServer``) can replay its cached reply instead of
re-executing a non-idempotent operation.  A call that exhausts its
attempts raises :class:`~repro.errors.ChannelTimeout`; an injected
client crash raises :class:`~repro.errors.ClientCrashed`.

Overload resilience (:mod:`repro.virt.resilience`) is opt-in via the
``resilience`` constructor argument: a token-bucket retry budget caps
retries at a fraction of fresh traffic
(:class:`~repro.errors.RetryBudgetExhausted` on empty) and a per-target
circuit breaker fails fast while the target looks down
(:class:`~repro.errors.CircuitOpen`).  See ``docs/fault_tolerance.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import (
    ChannelTimeout,
    CircuitOpen,
    ClientCrashed,
    DeadlineExceeded,
    RetryBudgetExhausted,
    VirtError,
)
from ..faults.injector import (
    CORRUPT,
    DELAY,
    DROP,
    DUPLICATE,
    NULL_INJECTOR,
)
from .. import trace
from ..trace import NULL_TRACER
from .protocol import Envelope, Request, Response, checksum_of, estimate_size
from .resilience import (
    CircuitBreaker,
    ResilienceConfig,
    RetryBudget,
    decorrelated_jitter,
)

__all__ = ["ChannelConfig", "Channel", "SHARED_MEMORY", "UNIX_SOCKET"]


@dataclass(frozen=True)
class ChannelConfig:
    """Cost model of one transport."""

    name: str
    #: fixed cost per message (seconds); sockets pay context switches
    per_message_latency: float
    #: incremental cost per payload byte (seconds)
    per_byte_latency: float
    #: how long a sender waits for a reply before retrying (seconds)
    timeout: float = 100e-6
    #: backoff before the first retry (seconds); the decorrelated-jitter
    #: base, or the doubling start when ``backoff_jitter`` is off
    retry_backoff: float = 50e-6
    #: total send attempts per call (1 original + retries)
    max_attempts: int = 5
    #: draw each backoff with seeded decorrelated jitter so concurrent
    #: clients de-synchronize (off = the old deterministic doubling,
    #: which re-collides every client at each power-of-two boundary)
    backoff_jitter: bool = True
    #: longest single backoff sleep (seconds) when jitter is on
    backoff_cap: float = 2e-3


#: Lock-free shared-memory ring (the paper's optimized transport).
SHARED_MEMORY = ChannelConfig(
    name="shared-memory",
    per_message_latency=0.4e-6,
    per_byte_latency=1.0 / 20e9,  # ~20 GB/s effective copy bandwidth
)

#: A unix-domain-socket baseline: two context switches per round trip.
UNIX_SOCKET = ChannelConfig(
    name="unix-socket",
    per_message_latency=8e-6,
    per_byte_latency=1.0 / 2e9,
)


@dataclass
class ChannelStats:
    """Traffic accounting for one channel, split by direction."""

    messages: int = 0
    bytes: int = 0
    simulated_time: float = 0.0
    requests: int = 0
    responses: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    #: re-sends after a timeout or retryable failure
    retries: int = 0
    #: attempts that waited the full timeout for a reply that never came
    timeouts: int = 0
    #: injected faults that hit this channel's messages
    faults: int = 0
    #: first-attempt calls (the denominator of retry amplification)
    fresh_calls: int = 0
    #: calls failed fast because the retry budget was empty
    budget_exhausted: int = 0
    #: calls refused without a send by an open circuit breaker
    breaker_fast_fails: int = 0
    #: calls abandoned client-side because their deadline had passed
    deadline_give_ups: int = 0

    @property
    def amplification(self) -> float:
        """Sends per fresh call: ``(fresh + retries) / fresh``.

        1.0 means no retries; sustained values well above 1 during a
        fault are the signature of a retry storm.
        """
        if not self.fresh_calls:
            return 1.0
        return (self.fresh_calls + self.retries) / self.fresh_calls


class Channel:
    """A synchronous request/response channel to a server handler.

    The handler receives :class:`~repro.virt.protocol.Envelope` objects;
    handlers that only care about the payload (most tests) can ignore
    the framing entirely because the channel itself enforces the
    retry/timeout discipline.
    """

    def __init__(self, handler: Callable[[Envelope], Response],
                 config: ChannelConfig = SHARED_MEMORY, *,
                 faults: Any = NULL_INJECTOR,
                 tracer: Any = NULL_TRACER,
                 client_id: str = "",
                 seed: int = 0,
                 clock: Callable[[], float] | None = None,
                 resilience: ResilienceConfig | None = None,
                 breaker: CircuitBreaker | None = None) -> None:
        self._handler = handler
        self.config = config
        self.stats = ChannelStats()
        self.faults = faults
        self.tracer = tracer
        self.client_id = client_id
        self._request_seq = 0
        # Channels have no event loop of their own: absent an injected
        # clock (e.g. an EventLoop's ``now``), deadlines and breaker
        # windows are measured on this channel's accumulated transport
        # time, which is the only notion of time the channel advances.
        self._clock = clock if clock is not None else (
            lambda: self.stats.simulated_time)
        self._backoff_rng = random.Random(f"{seed}/{client_id}/backoff")
        self.budget = RetryBudget(resilience) if resilience else None
        if breaker is not None:
            self.breaker: CircuitBreaker | None = breaker
        elif resilience is not None:
            self.breaker = CircuitBreaker(
                resilience, target="server", seed=seed, clock=self._clock,
                tracer=tracer, client_id=client_id)
        else:
            self.breaker = None

    def resume_sequence(self, last_request_id: int) -> None:
        """Continue numbering after ``last_request_id``.

        A channel rebuilt for a migrated client must not reuse request
        ids the server's reply cache already remembers — the cache would
        answer a fresh request with another call's reply.
        """
        self._request_seq = max(self._request_seq, last_request_id)

    # ------------------------------------------------------------------
    def call(self, request: Request, *,
             deadline: float | None = None) -> Response:
        """Send ``request``; return the server's response.

        ``deadline`` is an *absolute* simulated time carried in the
        envelope so the server can shed work that can no longer meet
        it; a deadline already past raises :class:`DeadlineExceeded`
        without sending.

        Raises :class:`VirtError` if the server reports an API failure,
        so client code sees errors exactly as local execution would;
        :class:`ChannelTimeout` when every attempt is lost;
        :class:`RetryBudgetExhausted` when a needed retry cannot be
        paid for; :class:`CircuitOpen` when the breaker refuses the
        call; and :class:`ClientCrashed` at an injected crash point.
        """
        if deadline is not None and self._clock() >= deadline:
            self._give_up_on_deadline(deadline)
        if self.breaker is not None and not self.breaker.allow():
            self.stats.breaker_fast_fails += 1
            raise CircuitOpen(
                f"client {self.client_id!r}: breaker "
                f"{self.breaker.target!r} is {self.breaker.state}"
            )
        self._request_seq += 1
        envelope = Envelope(
            request_id=self._request_seq,
            client_id=getattr(request, "client_id", self.client_id),
            payload=request,
            checksum=checksum_of(request),
            deadline=deadline,
        )
        self.stats.fresh_calls += 1
        if self.budget is not None:
            self.budget.on_fresh()
        last_error = "no attempt made"
        backoff = self.config.retry_backoff
        for attempt in range(1, self.config.max_attempts + 1):
            if attempt > 1:
                if deadline is not None and self._clock() >= deadline:
                    if self.breaker is not None:
                        self.breaker.abandon()
                    self._give_up_on_deadline(deadline)
                if self.budget is not None and not self.budget.try_spend():
                    self._fail_terminally()
                    self.stats.budget_exhausted += 1
                    if self.tracer.enabled:
                        self.tracer.emit(trace.RetryBudgetExhausted(
                            ts=self._clock(),
                            client_id=envelope.client_id,
                            kernel="",
                            request_id=envelope.request_id,
                            attempt=attempt,
                            tokens=self.budget.tokens,
                        ))
                    raise RetryBudgetExhausted(
                        f"request {envelope.request_id} "
                        f"({type(request).__name__}) needs retry {attempt - 1}"
                        f" but the retry budget is empty: {last_error}"
                    )
                self.stats.retries += 1
                if self.config.backoff_jitter:
                    backoff = decorrelated_jitter(
                        self._backoff_rng, self.config.retry_backoff,
                        self.config.backoff_cap, backoff)
                    self.stats.simulated_time += backoff
                else:
                    self.stats.simulated_time += backoff
                    backoff *= 2
            if self.faults.enabled and self.faults.crash_now():
                if self.breaker is not None:
                    self.breaker.abandon()
                raise ClientCrashed(
                    f"client {envelope.client_id!r} crashed at request "
                    f"{envelope.request_id} ({type(request).__name__})"
                )
            response = self._attempt(envelope, attempt)
            if response is None:
                self.stats.timeouts += 1
                self.stats.simulated_time += self.config.timeout
                last_error = "timed out waiting for reply"
                continue
            if not response.ok and response.retryable:
                last_error = response.error or "transport failure"
                continue
            if not response.ok:
                # the server answered; an API failure is not its illness
                if self.breaker is not None:
                    self.breaker.record_success()
                raise VirtError(response.error or "server error")
            if self.breaker is not None:
                self.breaker.record_success()
            return response
        self._fail_terminally()
        raise ChannelTimeout(
            f"request {envelope.request_id} ({type(request).__name__}) "
            f"failed after {self.config.max_attempts} attempts: {last_error}"
        )

    def _give_up_on_deadline(self, deadline: float) -> None:
        now = self._clock()
        self.stats.deadline_give_ups += 1
        if self.tracer.enabled:
            self.tracer.emit(trace.DeadlineShed(
                ts=now,
                client_id=self.client_id,
                kernel="",
                scope="client",
                deadline=deadline,
                lateness=now - deadline,
            ))
        raise DeadlineExceeded(
            f"client {self.client_id!r}: deadline {deadline:.6f} already "
            f"passed at {now:.6f}; not sending"
        )

    def _fail_terminally(self) -> None:
        """Tell the breaker this call is giving up on its target."""
        if self.breaker is not None:
            self.breaker.record_failure()

    def cost_of(self, message: Any) -> float:
        """Modelled transport time of one message."""
        return (self.config.per_message_latency
                + estimate_size(message) * self.config.per_byte_latency)

    # ------------------------------------------------------------------
    def _attempt(self, envelope: Envelope, attempt: int) -> Response | None:
        """One send/receive attempt; None means the reply never arrived."""
        fault = (self.faults.channel_fault("request")
                 if self.faults.enabled else "none")
        if fault != "none":
            self._note_fault(fault, "request", envelope, attempt)
        if fault == DROP:
            # the bytes left the client but never reached the server
            self._account(envelope, "request")
            return None
        if fault == DELAY:
            self.stats.simulated_time += self.faults.config.delay_time
        sent = envelope
        if fault == CORRUPT:
            sent = Envelope(envelope.request_id, envelope.client_id,
                            envelope.payload, envelope.checksum ^ 0x1,
                            envelope.deadline)
        self._account(sent, "request")
        response = self._handler(sent)
        if fault == DUPLICATE:
            # second copy of the same envelope: an envelope-aware server
            # answers it from the replay cache, so both replies agree
            self._account(envelope, "request")
            response = self._handler(envelope)

        fault = (self.faults.channel_fault("response")
                 if self.faults.enabled else "none")
        if fault != "none":
            self._note_fault(fault, "response", envelope, attempt)
        if fault == DROP:
            self._account(response, "response")
            return None
        if fault == DELAY:
            self.stats.simulated_time += self.faults.config.delay_time
        self._account(response, "response")
        if fault == DUPLICATE:
            self._account(response, "response")
        if fault == CORRUPT:
            # the client cannot trust a corrupted reply; retry the call
            return Response.transport_failure("response corrupted in transit")
        return response

    def _note_fault(self, fault: str, direction: str, envelope: Envelope,
                    attempt: int) -> None:
        self.stats.faults += 1
        if self.tracer.enabled:
            self.tracer.emit(trace.ChannelFault(
                ts=self.stats.simulated_time,
                client_id=envelope.client_id,
                kernel="",
                fault=fault,
                direction=direction,
                request_id=envelope.request_id,
                attempt=attempt,
            ))

    def _account(self, message: Any, direction: str) -> None:
        size = estimate_size(message)
        self.stats.messages += 1
        self.stats.bytes += size
        if direction == "request":
            self.stats.requests += 1
            self.stats.request_bytes += size
        else:
            self.stats.responses += 1
            self.stats.response_bytes += size
        self.stats.simulated_time += (
            self.config.per_message_latency + size * self.config.per_byte_latency
        )
