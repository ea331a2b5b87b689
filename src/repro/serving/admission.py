"""Admission control for bounded serving queues (overload protection).

The paper's end devices stream samples upward continuously, so a serving
tier must decide what to do when requests arrive faster than the cascade
can drain them.  An unbounded FIFO queue keeps every request but lets
latency grow without bound; a bounded queue instead consults an
:class:`AdmissionPolicy` whenever it is full:

* :class:`RejectNewest` — refuse the arriving request (classic tail-drop
  backpressure; the request is counted ``rejected`` and never answered);
* :class:`DropOldest` — evict the head-of-line request to make room (the
  freshest data wins, natural for sensor streams where a stale frame is
  worthless by the time it would be served);
* :class:`ShedToLocalExit` — keep the queue intact and answer the arriving
  request immediately from the *local* exit only, mirroring the paper's
  deployment where the local aggregator can always produce a (less
  confident) answer without the upper tiers.

:func:`admit` is the one admission rule: it guards the ingress queue of
every :class:`~repro.serving.fabric.DistributedServingFabric`, the
one-tier :class:`~repro.serving.server.DDNNServer` included.  A policy
decides without looking at the queue; :func:`admit` interprets the
decision and keeps the :class:`AdmissionStats`, so policies stay trivially
testable.  The fabric enqueues an accepted arrival, answers a shed one from
the first exit, and counts a rejected one only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Deque, Dict, Optional, Tuple

__all__ = [
    "AdmissionOutcome",
    "AdmissionStats",
    "AdmissionPolicy",
    "RejectNewest",
    "DropOldest",
    "ShedToLocalExit",
    "admission_policy",
    "admit",
]


class AdmissionOutcome(str, Enum):
    """What happened to a request offered to the queue."""

    ACCEPTED = "accepted"
    REJECTED = "rejected"
    SHED = "shed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


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

    def decide(self) -> AdmissionOutcome:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RejectNewest(AdmissionPolicy):
    """Tail drop: a full queue refuses the arriving request."""

    name = "reject"

    def decide(self) -> AdmissionOutcome:
        return AdmissionOutcome.REJECTED


class DropOldest(AdmissionPolicy):
    """Evict the head-of-line request so the freshest sample is served."""

    name = "drop-oldest"

    def decide(self) -> AdmissionOutcome:
        # admit() interprets ACCEPTED-while-full as "evict the head first".
        return AdmissionOutcome.ACCEPTED


class ShedToLocalExit(AdmissionPolicy):
    """Answer the arriving request from the local exit instead of queueing.

    The queue stays intact; the caller answers the request at once from the
    cascade's first exit (``reason="shed"``): bounded latency, at the local
    aggregator's confidence.
    """

    name = "shed-local"

    def decide(self) -> AdmissionOutcome:
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


def admit(
    queue: Deque, capacity: Optional[int], policy: AdmissionPolicy, stats: AdmissionStats
) -> Tuple[AdmissionOutcome, Optional[object]]:
    """Offer one arrival to ``queue``; returns ``(outcome, evicted)``.

    Below ``capacity`` (or with ``capacity=None``) the arrival is accepted
    without consulting ``policy``.  A full queue asks the policy: under
    ``ACCEPTED`` the head-of-line entry is popped and returned as
    ``evicted`` (counted ``dropped``).  The caller enqueues an accepted
    arrival and answers a shed one; ``stats`` is updated here either way.
    """
    evicted = None
    if capacity is not None and len(queue) >= capacity:
        outcome = policy.decide()
        if outcome is AdmissionOutcome.REJECTED:
            stats.rejected += 1
            return outcome, None
        if outcome is AdmissionOutcome.SHED:
            stats.shed += 1
            return outcome, None
        evicted = queue.popleft()
        stats.dropped += 1
    stats.accepted += 1
    return AdmissionOutcome.ACCEPTED, evicted
