"""Overload-resilience primitives for channels.

Retries are load-bearing during faults — and load-*generating* during
overload.  A fleet of clients that all retry a struggling server with
deterministic exponential backoff multiplies offered load exactly when
capacity is lowest, and keeps it multiplied after the fault clears: the
metastable-failure mode.  This module provides the three standard
counter-measures, built for the simulator's determinism requirements:

* :func:`decorrelated_jitter` — seeded decorrelated-jitter backoff, so
  replays are bit-identical while distinct clients de-synchronize;
* :class:`RetryBudget` — a token bucket that caps retries at a fixed
  fraction of fresh traffic, so retry load can never exceed
  ``ratio`` x the fresh request rate no matter how long a fault lasts;
* :class:`CircuitBreaker` — a per-target closed → open → half-open
  state machine that fails fast after consecutive failures and probes
  recovery on a seeded, jittered timer.

All timing is simulated: components read time from an injected
``clock`` callable and draw randomness from :class:`random.Random`
instances seeded from ``(seed, client_id/target)``, never from wall
clock or global RNG state.  See ``docs/fault_tolerance.md``
("Overload and metastability").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Tuple

from .. import trace
from ..trace import NULL_TRACER

__all__ = [
    "ResilienceConfig",
    "RetryBudget",
    "CircuitBreaker",
    "decorrelated_jitter",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

#: breaker state names (stable wire strings used in traces and tests)
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


def decorrelated_jitter(rng: random.Random, base: float, cap: float,
                        previous: float) -> float:
    """One decorrelated-jitter backoff step.

    ``sleep = min(cap, uniform(base, previous * 3))`` — the AWS
    "decorrelated jitter" recipe: each step is drawn relative to the
    *previous* sleep rather than the attempt number, which spreads
    concurrent clients apart instead of letting them re-collide at
    every power-of-two boundary.
    """
    return min(cap, rng.uniform(base, max(base, previous * 3.0)))


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning for retry budgets and circuit breakers.

    The defaults are deliberately conservative: a budget ratio of 0.1
    bounds steady-state retry amplification at 1.1x fresh traffic, and
    breaker open windows are long relative to channel timeouts so a
    degraded server sees probes, not storms.
    """

    #: retry tokens earned per fresh (first-attempt) call
    retry_budget_ratio: float = 0.1
    #: tokens a fresh budget starts with (allows short fault blips)
    retry_budget_min: float = 5.0
    #: token-bucket capacity (bounds the post-idle retry burst)
    retry_budget_cap: float = 50.0
    #: consecutive call failures that trip the breaker open
    breaker_failure_threshold: int = 5
    #: first open window before a half-open probe (seconds)
    breaker_open_base: float = 25e-3
    #: longest open window (seconds); repeated failures saturate here
    breaker_open_cap: float = 400e-3
    #: concurrent probe calls admitted while half-open
    breaker_half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.retry_budget_ratio < 0:
            raise ValueError("retry_budget_ratio must be >= 0")
        if self.retry_budget_cap < self.retry_budget_min:
            raise ValueError("retry_budget_cap must be >= retry_budget_min")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_open_cap < self.breaker_open_base:
            raise ValueError("breaker_open_cap must be >= breaker_open_base")
        if self.breaker_half_open_probes < 1:
            raise ValueError("breaker_half_open_probes must be >= 1")


class RetryBudget:
    """Token bucket capping retries at a fraction of fresh traffic.

    Every *fresh* call deposits ``retry_budget_ratio`` tokens; every
    retry withdraws one.  When the bucket is empty the channel fails
    fast (:class:`~repro.errors.RetryBudgetExhausted`) instead of
    re-sending — so however long a fault lasts, retry load stays
    bounded by ``ratio`` x the fresh request rate plus the initial
    float, and the server is never held underwater by its own clients.
    """

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        self.tokens = float(config.retry_budget_min)
        #: fresh calls that earned tokens
        self.fresh = 0
        #: retries paid for
        self.spent = 0
        #: retries refused because the bucket was empty
        self.refused = 0

    @property
    def exhausted(self) -> bool:
        """True when the bucket cannot pay for one more retry."""
        return self.tokens < 1.0

    def on_fresh(self) -> None:
        """Deposit for one first-attempt call."""
        self.fresh += 1
        self.tokens = min(self.config.retry_budget_cap,
                          self.tokens + self.config.retry_budget_ratio)

    def try_spend(self) -> bool:
        """Withdraw one token for a retry; False if the bucket is empty."""
        if self.tokens < 1.0:
            self.refused += 1
            return False
        self.tokens -= 1.0
        self.spent += 1
        return True


class CircuitBreaker:
    """Per-target closed → open → half-open breaker.

    *Closed* passes calls and counts consecutive failures; at
    ``breaker_failure_threshold`` it opens.  *Open* refuses calls
    (:class:`~repro.errors.CircuitOpen` at the channel) until a seeded,
    decorrelated-jitter window elapses, then admits up to
    ``breaker_half_open_probes`` probe calls (*half-open*).  A probe
    success closes the breaker; a probe failure re-opens it with a
    longer window (saturating at ``breaker_open_cap``).

    One breaker guards one *target* (e.g. one server); channels from
    the same client to the same target should share an instance so
    fast-fails protect every path at once.  All timing comes from the
    injected ``clock`` and all randomness from a ``Random`` seeded on
    ``(seed, target)``, keeping replays bit-identical.
    """

    def __init__(self, config: ResilienceConfig, *,
                 target: str = "server",
                 seed: int = 0,
                 clock: Callable[[], float] | None = None,
                 tracer: Any = NULL_TRACER,
                 client_id: str = "") -> None:
        self.config = config
        self.target = target
        self.tracer = tracer
        self.client_id = client_id
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._rng = random.Random(f"{seed}/{client_id}/{target}/breaker")
        self.state = BREAKER_CLOSED
        self.failures = 0          # consecutive failures while closed
        self.fast_fails = 0        # calls refused while open
        self._open_until = 0.0
        self._open_window = 0.0    # previous window (jitter recurrence)
        self._probes_in_flight = 0
        #: (ts, from_state, to_state, reason) history for reports
        self.transitions: List[Tuple[float, str, str, str]] = []

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a call proceed right now?

        In half-open state a ``True`` reserves a probe slot; the caller
        must follow up with :meth:`record_success` or
        :meth:`record_failure` to release it.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if self._clock() >= self._open_until:
                self._transition(BREAKER_HALF_OPEN, "open window elapsed")
                self._probes_in_flight = 1
                return True
            self.fast_fails += 1
            return False
        # half-open: admit probes up to the configured concurrency
        if self._probes_in_flight < self.config.breaker_half_open_probes:
            self._probes_in_flight += 1
            return True
        self.fast_fails += 1
        return False

    def record_success(self) -> None:
        """A call the breaker admitted reached the server and returned."""
        if self.state == BREAKER_HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._transition(BREAKER_CLOSED, "probe succeeded")
        self.failures = 0

    def abandon(self) -> None:
        """An admitted call ended with no verdict on the target.

        Client crashes and local deadline give-ups say nothing about
        the server's health; release any half-open probe slot so the
        breaker is not wedged waiting on a call that will never report.
        """
        if self.state == BREAKER_HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record_failure(self) -> None:
        """A call the breaker admitted failed terminally."""
        if self.state == BREAKER_HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._open(reason="probe failed")
            return
        if self.state == BREAKER_OPEN:
            return  # late failure from a call admitted before opening
        self.failures += 1
        if self.failures >= self.config.breaker_failure_threshold:
            self._open(reason=f"{self.failures} consecutive failures")

    # ------------------------------------------------------------------
    def _open(self, reason: str) -> None:
        cfg = self.config
        self._open_window = decorrelated_jitter(
            self._rng, cfg.breaker_open_base, cfg.breaker_open_cap,
            self._open_window)
        self._open_until = self._clock() + self._open_window
        self._transition(BREAKER_OPEN, reason)

    def _transition(self, to_state: str, reason: str) -> None:
        now = self._clock()
        from_state = self.state
        self.state = to_state
        self.transitions.append((now, from_state, to_state, reason))
        if to_state == BREAKER_CLOSED:
            self.failures = 0
        if self.tracer.enabled:
            self.tracer.emit(trace.BreakerTransition(
                ts=now,
                client_id=self.client_id,
                kernel="",
                target=self.target,
                from_state=from_state,
                to_state=to_state,
                reason=reason,
                failures=self.failures,
            ))
