"""Client-side retry discipline: policy, budget, and circuit breaker.

The metastable-failure literature (Bronson et al., HotOS'21) identifies
unbounded retries as the canonical *sustaining feedback*: once latency
crosses the client deadline, every request is attempted R times, the
effective load becomes R times the offered load, and the system stays
overloaded long after the trigger is gone.  The defenses here bound that
amplification:

* :class:`RetryPolicy` — the one home for every timeout/backoff knob
  (RPC deadline, lock deadline, zero-time-abort pacing, retry count,
  jittered exponential backoff, budget and breaker parameters).  Both
  load drivers' run configs carry one and nothing else sets a deadline.
* :class:`RetryBudget` — a token bucket in the style of Finagle's retry
  budget: fresh requests deposit a fraction of a token, retries withdraw a
  whole one, so sustained retry load is at most ``ratio`` times the
  offered load (plus a bounded burst).
* :class:`CircuitBreaker` — closed → open → half-open.  A run of failures
  opens the circuit; while open, attempts fail fast without consuming any
  server capacity; after a cooldown a bounded number of probes decide
  whether to close it again.

All three are deterministic: the only randomness (backoff jitter) comes
from a caller-supplied seeded RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["RetryPolicy", "RetryBudget", "CircuitBreaker"]


@dataclass(frozen=True)
class RetryPolicy:
    """Every client-side timeout/backoff/retry knob, in one place.

    The first three fields apply to both load drivers: the deadlines
    become client keyword arguments (:meth:`client_kwargs`) and
    ``abort_backoff_ms`` paces the closed loop.  The remaining fields
    configure the open-loop engine's retry loop and its defenses — the
    closed loop refuses a policy that sets them — and with the default
    ``max_attempts=1`` no retry ever happens.
    """

    #: RPC deadline for every request a client issues.  ``None`` keeps the
    #: network default (10 s — long enough that only a partition or a
    #: genuinely wedged server trips it).
    rpc_timeout_ms: Optional[float] = None
    #: Deadline for 2PL lock acquisition (only lock-based protocols accept
    #: it; :meth:`client_kwargs` forwards it to those alone).
    lock_timeout_ms: Optional[float] = None
    #: Pacing after an abort that consumed no simulated time (fail-fast
    #: aborts under a partition); keeps the simulated clock advancing.
    abort_backoff_ms: float = 25.0
    #: Total tries per logical request (1 = never retry).
    max_attempts: int = 1
    #: First retry waits this long (before jitter); each further retry
    #: doubles it, capped at :attr:`backoff_cap_ms`.
    backoff_base_ms: float = 50.0
    backoff_cap_ms: float = 2_000.0
    #: Fraction of each backoff that is randomized (0 = fully
    #: deterministic, 1 = full jitter).  Jitter decorrelates the retry
    #: herd that a partition heal otherwise releases in lockstep.
    jitter: float = 0.5
    #: Retry-budget token bucket: fresh requests earn ``ratio`` tokens,
    #: each retry spends one, so sustained retry load is bounded by
    #: ``ratio`` times the offered load.  ``None`` disables the budget
    #: (unbounded retries — the metastable configuration).
    retry_budget_ratio: Optional[float] = None
    #: Consecutive failures that open the circuit breaker (``None``
    #: disables the breaker).
    breaker_failure_threshold: Optional[int] = None
    #: How long an open breaker fails fast before probing again.
    breaker_cooldown_ms: float = 1_000.0

    def client_kwargs(self, protocol: str) -> Dict[str, Any]:
        """The keyword arguments this policy implies for a protocol client.

        Every protocol gets the RPC deadline; specs whose base is two-phase
        locking — under any alias the registry accepts — additionally get
        the lock deadline.
        """
        # The registry sits above the servers, which import this package.
        from repro.hat.protocols import TWO_PHASE_LOCKING, parse_spec

        kwargs: Dict[str, Any] = {}
        if self.rpc_timeout_ms is not None:
            kwargs["rpc_timeout_ms"] = self.rpc_timeout_ms
        if (self.lock_timeout_ms is not None
                and parse_spec(protocol).base == TWO_PHASE_LOCKING):
            kwargs["lock_timeout_ms"] = self.lock_timeout_ms
        return kwargs

    def backoff_ms(self, attempt: int, rng) -> float:
        """Jittered exponential backoff before retry number ``attempt``.

        ``attempt`` counts completed tries (1 before the first retry).
        The deterministic part is ``base * 2**(attempt-1)`` capped at
        :attr:`backoff_cap_ms`; the last :attr:`jitter` fraction of it is
        drawn from ``rng`` so seeded runs stay reproducible.
        """
        base = min(self.backoff_cap_ms,
                   self.backoff_base_ms * (2.0 ** (attempt - 1)))
        if base <= 0.0:
            return 0.0
        if self.jitter <= 0.0:
            return base
        return base * (1.0 - self.jitter) + base * self.jitter * rng.random()

    def make_budget(self) -> Optional["RetryBudget"]:
        if self.retry_budget_ratio is None:
            return None
        return RetryBudget(self.retry_budget_ratio)

    def make_breaker(self) -> Optional["CircuitBreaker"]:
        if self.breaker_failure_threshold is None:
            return None
        return CircuitBreaker(
            failure_threshold=self.breaker_failure_threshold,
            cooldown_ms=self.breaker_cooldown_ms,
        )


class RetryBudget:
    """Token bucket bounding retries to a fraction of fresh requests.

    ``deposit()`` (one call per fresh request) adds ``ratio`` tokens,
    saturating at ``burst``; ``withdraw()`` (one call per retry) spends a
    whole token when at least one is available.  Sustained retry rate is
    therefore at most ``ratio`` times the fresh-request rate, and no burst
    ever exceeds ``burst`` retries — pure arithmetic, no randomness.
    """

    __slots__ = ("ratio", "burst", "tokens", "deposits", "withdrawals",
                 "denials")

    def __init__(self, ratio: float, burst: float = 10.0):
        if ratio < 0.0:
            raise ValueError(f"retry budget ratio must be >= 0, got {ratio!r}")
        if burst <= 0.0:
            raise ValueError(f"retry budget burst must be > 0, got {burst!r}")
        self.ratio = ratio
        self.burst = burst
        self.tokens = burst  # start full: a cold start may retry immediately
        self.deposits = 0
        self.withdrawals = 0
        self.denials = 0

    def deposit(self) -> None:
        """Record one fresh request (earns ``ratio`` tokens, capped)."""
        self.deposits += 1
        self.tokens = min(self.burst, self.tokens + self.ratio)

    def withdraw(self) -> bool:
        """Spend one token for a retry; False = budget exhausted."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.withdrawals += 1
            return True
        self.denials += 1
        return False


class CircuitBreaker:
    """Closed → open → half-open breaker over a monotonic clock.

    ``allow(now_ms)`` gates each attempt; ``record(success, now_ms)`` feeds
    the outcome back.  Denied attempts (``allow`` returned False) must NOT
    be recorded — they carry no information about the backend.  Invariants
    (property-tested): the breaker only opens after ``failure_threshold``
    consecutive recorded failures, an open breaker admits nothing until
    ``cooldown_ms`` elapsed, and a half-open breaker admits at most
    ``half_open_probes`` attempts before their outcomes decide the state.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = ("failure_threshold", "cooldown_ms", "half_open_probes",
                 "state", "failures", "opened_at_ms", "probes_in_flight",
                 "opens", "denials")

    def __init__(self, failure_threshold: int, cooldown_ms: float,
                 half_open_probes: int = 1):
        if failure_threshold < 1:
            raise ValueError(
                f"failure threshold must be >= 1, got {failure_threshold!r}")
        if cooldown_ms < 0.0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown_ms!r}")
        if half_open_probes < 1:
            raise ValueError(
                f"half-open probes must be >= 1, got {half_open_probes!r}")
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self.half_open_probes = half_open_probes
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at_ms = 0.0
        self.probes_in_flight = 0
        self.opens = 0
        self.denials = 0

    def allow(self, now_ms: float) -> bool:
        """May an attempt proceed at ``now_ms``?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now_ms - self.opened_at_ms >= self.cooldown_ms:
                self.state = self.HALF_OPEN
                self.probes_in_flight = 1
                return True
            self.denials += 1
            return False
        # Half-open: admit probes up to the configured limit.
        if self.probes_in_flight < self.half_open_probes:
            self.probes_in_flight += 1
            return True
        self.denials += 1
        return False

    def record(self, success: bool, now_ms: float) -> None:
        """Feed back the outcome of an attempt that ``allow`` admitted."""
        if self.state == self.HALF_OPEN:
            if self.probes_in_flight > 0:
                self.probes_in_flight -= 1
            if success:
                self.state = self.CLOSED
                self.failures = 0
            else:
                self._open(now_ms)
            return
        if success:
            self.failures = 0
            return
        self.failures += 1
        if self.state == self.CLOSED and self.failures >= self.failure_threshold:
            self._open(now_ms)

    def _open(self, now_ms: float) -> None:
        self.state = self.OPEN
        self.opened_at_ms = now_ms
        self.failures = 0
        self.probes_in_flight = 0
        self.opens += 1
