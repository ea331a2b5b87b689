"""Admission control for the bounded serving queue (overload protection).

The paper's end devices stream samples upward continuously, so a serving
tier must decide what to do when requests arrive faster than the cascade
can drain them.  An unbounded FIFO queue keeps every request but lets
latency grow without bound; a bounded :class:`~repro.serving.queue.RequestQueue`
instead consults an :class:`AdmissionPolicy` whenever it is full:

* :class:`RejectNewest` — refuse the arriving request (classic tail-drop
  backpressure; the client sees an explicit rejection and may retry);
* :class:`DropOldest` — evict the head-of-line request to make room (the
  freshest data wins, natural for sensor streams where a stale frame is
  worthless by the time it would be served);
* :class:`ShedToLocalExit` — keep the queue intact and answer the arriving
  request immediately from the *local* exit only, mirroring the paper's
  deployment where the local aggregator can always produce a (less
  confident) answer without the upper tiers.

The same policies guard the device-tier ingress of the distributed
:class:`~repro.serving.fabric.DistributedServingFabric`.  A policy decides
without looking at the queue; the queue (or fabric) interprets the decision
and does all bookkeeping, so policies stay trivially testable.  Aggregate
counts live in :class:`AdmissionStats` (queue-wide) and on each
:class:`~repro.serving.queue.ClientSession` (per client).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .queue import InferenceRequest

__all__ = [
    "AdmissionOutcome",
    "AdmissionResult",
    "AdmissionStats",
    "AdmissionPolicy",
    "RejectNewest",
    "DropOldest",
    "ShedToLocalExit",
    "QueueFullError",
    "admission_policy",
]


class QueueFullError(RuntimeError):
    """Raised by :meth:`RequestQueue.submit` when admission refuses a request."""


class AdmissionOutcome(str, Enum):
    """What happened to a request offered to the queue."""

    ACCEPTED = "accepted"
    REJECTED = "rejected"
    SHED = "shed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of offering one request to the queue.

    Attributes
    ----------
    outcome:
        ``ACCEPTED`` (enqueued), ``REJECTED`` (refused, ``request`` is None)
        or ``SHED`` (not enqueued; ``request`` carries the sample so the
        caller can answer it from the local exit).
    request:
        The admitted or shed request, ``None`` on rejection.
    evicted:
        The head-of-line request removed to make room (``DropOldest`` only).
    """

    outcome: AdmissionOutcome
    request: Optional["InferenceRequest"] = None
    evicted: Optional["InferenceRequest"] = None

    @property
    def accepted(self) -> bool:
        return self.outcome is AdmissionOutcome.ACCEPTED


@dataclass
class AdmissionStats:
    """Queue-wide admission counters (exact, never windowed)."""

    accepted: int = 0
    rejected: int = 0
    dropped: int = 0
    shed: int = 0

    @property
    def offered(self) -> int:
        """Every request that knocked: accepted + rejected + shed."""
        return self.accepted + self.rejected + self.shed

    def as_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "dropped": self.dropped,
            "shed": self.shed,
        }

    @classmethod
    def merged(cls, stats) -> "AdmissionStats":
        """Sum counters across queues/replicas (the balancer's fleet view)."""
        total = cls()
        for item in stats:
            total.accepted += item.accepted
            total.rejected += item.rejected
            total.dropped += item.dropped
            total.shed += item.shed
        return total


class AdmissionPolicy:
    """Decides what a full queue does with an arriving request.

    ``decide`` is only consulted when the queue is bounded *and* full; an
    unbounded queue accepts everything, preserving the original serving
    behaviour bit for bit.
    """

    name = "accept"

    def decide(self, client_id: str) -> AdmissionOutcome:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RejectNewest(AdmissionPolicy):
    """Tail drop: a full queue refuses the arriving request."""

    name = "reject"

    def decide(self, client_id: str) -> AdmissionOutcome:
        return AdmissionOutcome.REJECTED


class DropOldest(AdmissionPolicy):
    """Evict the head-of-line request so the freshest sample is served."""

    name = "drop-oldest"

    def decide(self, client_id: str) -> AdmissionOutcome:
        # The queue interprets ACCEPTED-while-full as "evict the head first".
        return AdmissionOutcome.ACCEPTED


class ShedToLocalExit(AdmissionPolicy):
    """Answer the arriving request from the local exit instead of queueing.

    The queue stays intact; the request is stamped and returned with a
    ``SHED`` outcome so the server can produce an immediate, local-exit-only
    response — the degraded-but-bounded-latency mode of the paper's
    deployment.
    """

    name = "shed-local"

    def decide(self, client_id: str) -> AdmissionOutcome:
        return AdmissionOutcome.SHED


#: Policy name -> class, for CLI/config wiring.
ADMISSION_POLICIES = {
    RejectNewest.name: RejectNewest,
    DropOldest.name: DropOldest,
    ShedToLocalExit.name: ShedToLocalExit,
}


def admission_policy(name: str) -> AdmissionPolicy:
    """Instantiate an admission policy by its registry name."""
    try:
        policy_class = ADMISSION_POLICIES[name]
    except KeyError as error:
        raise ValueError(
            f"unknown admission policy '{name}' (have {sorted(ADMISSION_POLICIES)})"
        ) from error
    return policy_class()
