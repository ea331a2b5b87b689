"""Request queue and client sessions for online DDNN serving.

End devices in the paper stream samples upward continuously; the serving
subsystem models that traffic as :class:`InferenceRequest` objects flowing
through a :class:`RequestQueue`.  Each producer is tracked by a
:class:`ClientSession` so per-client backlog and completion counts are
observable.  Timestamps come from an injectable ``clock`` callable, which
keeps the scheduler fully deterministic under test.

The queue is unbounded FIFO by default — bit-identical to the original
serving behaviour.  An opt-in ``capacity`` makes it overload-safe: a full
queue consults an :class:`~repro.serving.admission.AdmissionPolicy`
(reject / drop-oldest / shed-to-local-exit) for every further arrival.
Batches are always drained in FIFO order.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from .admission import (
    AdmissionOutcome,
    AdmissionPolicy,
    AdmissionResult,
    AdmissionStats,
    QueueFullError,
    RejectNewest,
)

__all__ = ["InferenceRequest", "InferenceResponse", "ClientSession", "RequestQueue"]


@dataclass
class InferenceRequest:
    """One sample awaiting staged inference.

    ``views`` carries the multi-view observation of a single physical
    object, shape ``(num_devices, C, H, W)`` — one frame per end device.
    """

    request_id: int
    client_id: str
    views: np.ndarray
    target: Optional[int] = None
    enqueue_time: float = 0.0


@dataclass
class InferenceResponse:
    """The cascade's answer for one request, routed back to its client."""

    request_id: int
    client_id: str
    prediction: int
    exit_index: int
    exit_name: str
    entropy: float
    target: Optional[int] = None
    enqueue_time: float = 0.0
    completion_time: float = 0.0
    batch_size: int = 1
    #: True when admission shed this request to the local exit instead of
    #: queueing it — the answer is immediate but local-exit-only.
    shed: bool = False

    @property
    def latency_s(self) -> float:
        """Queueing plus compute delay experienced by this request."""
        return self.completion_time - self.enqueue_time

    @property
    def correct(self) -> Optional[bool]:
        """Whether the prediction matched the target, if one was attached."""
        if self.target is None:
            return None
        return self.prediction == self.target


@dataclass
class ClientSession:
    """Per-client bookkeeping: what was submitted and what came back.

    ``retention`` bounds how many delivered responses are kept (``None``
    keeps all — only sensible for short-lived servers).  The integer
    counters are exact regardless of retention.
    """

    client_id: str
    retention: Optional[int] = None
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    dropped: int = 0
    shed: int = 0
    responses: Deque[InferenceResponse] = field(default_factory=deque)

    def __post_init__(self) -> None:
        self.responses = deque(self.responses, maxlen=self.retention)

    @property
    def in_flight(self) -> int:
        """Accepted requests still waiting for (or being served) an answer."""
        return self.submitted - self.completed - self.dropped

    def deliver(self, response: InferenceResponse) -> None:
        """Record a response; shed answers never counted as ``submitted``."""
        if not response.shed:
            self.completed += 1
        self.responses.append(response)


class RequestQueue:
    """Request intake with client sessions and an optional bound.

    Parameters
    ----------
    clock:
        Time source for enqueue stamps (injectable for deterministic tests).
    capacity:
        Maximum backlog; ``None`` (default) is unbounded and never consults
        the admission policy, preserving the original FIFO behaviour.
    admission:
        Policy applied when the bounded queue is full; defaults to
        :class:`~repro.serving.admission.RejectNewest`.
    retention:
        Per-session response-history bound handed to new
        :class:`ClientSession` objects (``None`` keeps everything).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        capacity: Optional[int] = None,
        admission: Optional[AdmissionPolicy] = None,
        retention: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 (or None for unbounded), got {capacity}")
        if retention is not None and retention < 1:
            raise ValueError(f"retention must be >= 1 (or None for unlimited), got {retention}")
        self.clock = clock
        self.capacity = capacity
        self.admission = admission if admission is not None else RejectNewest()
        self.retention = retention
        self.admission_stats = AdmissionStats()
        self._pending: Deque[InferenceRequest] = deque()
        self._sessions: Dict[str, ClientSession] = {}
        self._next_id = 0

    # ------------------------------------------------------------------ #
    def session(self, client_id: str) -> ClientSession:
        """Fetch (or lazily create) the session for a client."""
        if client_id not in self._sessions:
            self._sessions[client_id] = ClientSession(client_id, retention=self.retention)
        return self._sessions[client_id]

    # ------------------------------------------------------------------ #
    def _build_request(
        self, views: np.ndarray, client_id: str, target: Optional[int]
    ) -> InferenceRequest:
        views = np.asarray(views)
        if views.ndim != 4:
            raise ValueError(
                f"views must have shape (num_devices, C, H, W), got {views.shape}"
            )
        request = InferenceRequest(
            request_id=self._next_id,
            client_id=client_id,
            views=views,
            target=None if target is None else int(target),
            enqueue_time=self.clock(),
        )
        self._next_id += 1
        return request

    def offer(
        self,
        views: np.ndarray,
        client_id: str = "default",
        target: Optional[int] = None,
    ) -> AdmissionResult:
        """Offer one sample to the queue; admission decides its fate.

        Always accepted while the queue has room (or is unbounded); a full
        bounded queue asks the admission policy, yielding ``ACCEPTED``
        (after evicting the head under drop-oldest), ``REJECTED`` or
        ``SHED`` (stamped request returned un-enqueued for local-exit
        handling by the caller).
        """
        session = self.session(client_id)
        evicted: Optional[InferenceRequest] = None
        if self.capacity is not None and len(self._pending) >= self.capacity:
            outcome = self.admission.decide(client_id)
            if outcome is AdmissionOutcome.REJECTED:
                self.admission_stats.rejected += 1
                session.rejected += 1
                return AdmissionResult(AdmissionOutcome.REJECTED)
            if outcome is AdmissionOutcome.SHED:
                request = self._build_request(views, client_id, target)
                self.admission_stats.shed += 1
                session.shed += 1
                return AdmissionResult(AdmissionOutcome.SHED, request=request)
            # ACCEPTED while full: evict the head-of-line request.
            evicted = self._pending.popleft()
            self.admission_stats.dropped += 1
            self.session(evicted.client_id).dropped += 1
        request = self._build_request(views, client_id, target)
        self._pending.append(request)
        session.submitted += 1
        self.admission_stats.accepted += 1
        return AdmissionResult(AdmissionOutcome.ACCEPTED, request=request, evicted=evicted)

    def submit(
        self,
        views: np.ndarray,
        client_id: str = "default",
        target: Optional[int] = None,
    ) -> InferenceRequest:
        """Enqueue one sample; returns the assigned request.

        With the default unbounded queue this never fails.  On a bounded
        queue a refused offer raises :class:`QueueFullError` — callers that
        want to handle overload outcomes use :meth:`offer`.  A bare queue
        cannot produce the local-exit answer a ``SHED`` outcome promises
        (that is the server's job), so here a shed decision is recounted as
        a rejection before raising — counters never claim an answer that
        was not delivered.
        """
        result = self.offer(views, client_id=client_id, target=target)
        if result.outcome is AdmissionOutcome.ACCEPTED:
            assert result.request is not None
            return result.request
        if result.outcome is AdmissionOutcome.SHED:
            session = self.session(client_id)
            self.admission_stats.shed -= 1
            session.shed -= 1
            self.admission_stats.rejected += 1
            session.rejected += 1
        raise QueueFullError(
            f"queue full (capacity={self.capacity}): admission refused the "
            "request — use offer() to handle overload outcomes"
        )

    def __len__(self) -> int:
        return len(self._pending)

    def peek_oldest(self) -> Optional[InferenceRequest]:
        return self._pending[0] if self._pending else None

    def oldest_wait_s(self, now: Optional[float] = None) -> float:
        """How long the head-of-line request has been waiting."""
        if not self._pending:
            return 0.0
        now = self.clock() if now is None else now
        return now - self._pending[0].enqueue_time

    # ------------------------------------------------------------------ #
    def pop_batch(self, max_size: int) -> List[InferenceRequest]:
        """Dequeue up to ``max_size`` requests, oldest first."""
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        batch: List[InferenceRequest] = []
        while self._pending and len(batch) < max_size:
            batch.append(self._pending.popleft())
        return batch
