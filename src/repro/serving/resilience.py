"""Offload resilience primitives: deadlines, retry backoff, circuit breaking.

When a :class:`~repro.hierarchy.faults.ChaosSchedule` can darken links or
lose messages, an offload to the next tier is no longer guaranteed to
arrive — so the fabric needs the standard tail-tolerant playbook (Dean &
Barroso's *The Tail at Scale*; gRPC-style deadline propagation):

* :class:`RetryPolicy` — every offload attempt carries a **deadline**; on
  timeout the origin tier retries with exponential backoff plus jitter, up
  to ``max_retries`` extra attempts, then **fails over** to its local exit
  (a degraded but honest answer, like ``shed-local``).
* :class:`CircuitBreaker` — a per-link closed → open → half-open state
  machine: after ``failure_threshold`` consecutive failures the link is
  declared dark and further offloads fail fast to the local exit instead of
  burning a full deadline + backoff ladder each; after ``reset_timeout_s``
  a single half-open probe is let through, and its outcome closes or
  re-opens the breaker.
* :class:`Deadline` — an absolute end-to-end expiry stamped at ingress
  from a per-request (or per-plan) ``slo_s`` budget. It rides the request
  through every tier: queued work that expires is retired before a worker
  burns compute on it, and the retry ladder is clipped to the remaining
  budget (no re-send that cannot possibly land in time).
* :class:`HedgePolicy` — speculative re-sends to a sibling replica stack:
  once an offload's first attempt has consumed ``trigger_fraction`` of its
  remaining budget, up to ``max_hedges`` copies race it through the
  balancer's other replicas; first arrival wins, losers are cancelled.
* :class:`ResilienceStats` — fabric-wide accounting of attempts, timeouts,
  retries, breaker fast-fails and hedges, so degraded service is always
  measured, never silent (failovers and deadline retirements are answers,
  counted once by the fabric's reason tally; :meth:`ResilienceStats.report`
  puts them back beside these counters).

Everything here is clock-agnostic pure state; the fabric drives it from
the event loop, which keeps the whole recovery path deterministic under
seed on the simulated backend.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Mapping, Optional

from ..datasets.mvmc import _int_at_least

__all__ = [
    "Deadline",
    "HedgePolicy",
    "RetryPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ResilienceStats",
]


@dataclass(frozen=True)
class Deadline:
    """Absolute end-to-end expiry for one request, stamped at ingress.

    ``expires_at`` is a point on the fabric's clock (simulated or wall);
    ``slo_s`` records the budget it was derived from so reports can state
    hit rates against the original objective. The deadline is advisory
    until it expires — after that the fabric answers the request from the
    deepest exit already cleared (marked ``deadline_exceeded``) rather
    than spending more compute or network on it.
    """

    slo_s: float
    expires_at: float

    def __post_init__(self) -> None:
        if not self.slo_s > 0.0:
            raise ValueError(f"slo_s must be > 0, got {self.slo_s}")

    @classmethod
    def from_slo(cls, slo_s: float, now: float) -> "Deadline":
        return cls(slo_s=float(slo_s), expires_at=now + float(slo_s))

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


@dataclass(frozen=True)
class HedgePolicy:
    """Speculative offload re-sends to sibling replicas (tail hedging).

    Once an offload group's first attempt has been in flight for
    ``trigger_fraction`` of the budget that remained when it was sent, a
    copy is re-sent to the least-loaded healthy sibling replica; while the
    group stays unsettled further copies follow at the same fraction of
    the then-remaining budget, up to ``max_hedges`` total. The first
    arrival (original or hedge) wins and the losers' delivery events are
    cancelled. Hedging therefore needs requests to carry a
    :class:`Deadline` (the trigger is budget-relative) and a
    :class:`~repro.serving.balancer.LoadBalancer` with ``replicas > 1``
    sharing one event loop.
    """

    trigger_fraction: float = 0.5
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.trigger_fraction < 1.0:
            raise ValueError(
                f"trigger_fraction must be in (0, 1), got {self.trigger_fraction}"
            )
        _int_at_least(self.max_hedges, "max_hedges")


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + bounded exponential-backoff retry budget for offloads.

    An offload's first attempt plus ``max_retries`` re-sends each get
    ``deadline_s`` to produce an arrival at the next tier; attempt ``k``'s
    re-send waits ``min(backoff_base_s * backoff_multiplier**(k-1),
    backoff_max_s)`` plus a uniform jitter in ``[0, jitter_s)`` first.
    When the budget is exhausted (or a circuit breaker fast-fails the
    link), the origin tier answers from its own exit instead.
    """

    deadline_s: float = 0.25
    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 1.0
    jitter_s: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.deadline_s > 0.0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        _int_at_least(self.max_retries, "max_retries", minimum=0)
        if self.backoff_base_s < 0.0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError("backoff_max_s must be >= backoff_base_s")
        if self.jitter_s < 0.0:
            raise ValueError(f"jitter_s must be >= 0, got {self.jitter_s}")

    @property
    def can_time_out(self) -> bool:
        """Whether an attempt can ever give up.  ``deadline_s=inf`` (the
        fabric's ``offload=None``) waits for every delivery: it never retries
        or fails over, so it must never meet a link that can lose a message."""
        return self.deadline_s < math.inf

    def backoff_s(self, failed_attempts: int, rng=None) -> float:
        """Wait before the re-send following ``failed_attempts`` timeouts (>= 1)."""
        if failed_attempts < 1:
            raise ValueError(f"failed_attempts must be >= 1, got {failed_attempts}")
        wait = min(
            self.backoff_base_s * self.backoff_multiplier ** (failed_attempts - 1),
            self.backoff_max_s,
        )
        if self.jitter_s > 0.0 and rng is not None:
            wait += float(rng.uniform(0.0, self.jitter_s))
        return wait

    def worst_case_delay_s(self) -> float:
        """Upper bound on the extra sojourn the recovery machinery can add.

        Every attempt burns its full deadline and every backoff draws its
        maximum jitter before the failover answer is produced — so any
        request's latency under link chaos is bounded by its no-chaos
        latency plus this number (the bound the chaos bench asserts).
        """
        total = (self.max_retries + 1) * self.deadline_s
        for failed in range(1, self.max_retries + 1):
            total += (
                min(
                    self.backoff_base_s * self.backoff_multiplier ** (failed - 1),
                    self.backoff_max_s,
                )
                + self.jitter_s
            )
        return total


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Per-link closed → open → half-open failure detector.

    * **closed** — traffic flows; ``failure_threshold`` consecutive
      failures trip the breaker open (any success resets the count).
    * **open** — :meth:`allow` fast-fails everything until
      ``reset_timeout_s`` has elapsed since the trip.
    * **half-open** — exactly one probe attempt is admitted; its success
      closes the breaker, its failure re-opens it (restarting the timer).
    """

    failure_threshold: int = 3
    reset_timeout_s: float = 1.0
    state: BreakerState = BreakerState.CLOSED
    failures: int = 0
    opened_at: float = -math.inf
    #: State changes over the breaker's lifetime (closed→open, open→half-open,
    #: half-open→closed/open) — surfaced in ``FabricReport.metadata`` so flap
    #: behaviour is observable without reading per-request records.
    transitions: int = 0
    _probing: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        _int_at_least(self.failure_threshold, "failure_threshold")
        if not self.reset_timeout_s > 0.0:
            raise ValueError(
                f"reset_timeout_s must be > 0, got {self.reset_timeout_s}"
            )

    def spawn(self) -> "CircuitBreaker":
        """A fresh breaker with this breaker's thresholds (per-link template)."""
        return CircuitBreaker(self.failure_threshold, self.reset_timeout_s)

    def allow(self, now: float) -> bool:
        """Whether an attempt may be sent at ``now`` (may transition state)."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now >= self.opened_at + self.reset_timeout_s:
                self.state = BreakerState.HALF_OPEN
                self.transitions += 1
                self._probing = True
                return True
            return False
        # HALF_OPEN: a single outstanding probe at a time.
        if not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self, now: float) -> None:
        if self.state is not BreakerState.CLOSED:
            self.transitions += 1
        self.state = BreakerState.CLOSED
        self.failures = 0
        self._probing = False

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.OPEN:
            # A straggling timeout from before the trip: already dark.
            return
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
            return
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.transitions += 1
        self.state = BreakerState.OPEN
        self.opened_at = now
        self.failures = 0
        self._probing = False


@dataclass
class ResilienceStats:
    """Fabric-wide accounting of the recovery machinery's work."""

    #: Offload send attempts (first sends + re-sends).
    attempts: int = 0
    #: Attempts whose deadline expired before the arrival landed.
    timeouts: int = 0
    #: Re-sends scheduled after a timeout (attempts - first-sends, minus
    #: budget-exhausted failovers).
    retries: int = 0
    #: Offload groups answered locally without a send because the link's
    #: breaker was open.
    breaker_fast_fails: int = 0
    #: Deliveries that arrived after their attempt had already been retired
    #: (deadline raced the transfer); suppressed to keep requests unique.
    late_deliveries: int = 0
    #: Re-sends skipped because backoff + transfer could not land inside the
    #: remaining budget (the ladder clipped to the deadline).
    clipped_retries: int = 0
    #: Hedge copies sent to sibling replicas, and how many of them won the
    #: race against the original attempt.
    hedges: int = 0
    hedge_wins: int = 0
    #: Already-expired requests that a remote tier worker computed anyway
    #: (retirement could not answer them locally); the SLO bench asserts 0.
    expired_compute: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def report(self, reasons: Mapping[str, int]) -> dict:
        """The ``resilience`` block of a report: these counters plus
        ``failovers`` (requests answered from the origin tier's exit after
        the retry budget or a breaker gave up on the uplink) and
        ``deadline_expired`` (requests retired at their :class:`Deadline`,
        never dropped), read from the answers' ``reasons`` tally."""
        return {
            **self.as_dict(),
            "failovers": reasons["failover"],
            "deadline_expired": reasons["deadline"],
        }

    @classmethod
    def merged(cls, stats: "list[ResilienceStats] | tuple"):
        """Sum counters across replicas (the balancer's fleet-wide view)."""
        total = cls()
        for item in stats:
            for name in total.as_dict():
                setattr(total, name, getattr(total, name) + getattr(item, name))
        return total
