"""Single-tier online DDNN server over the shared exit cascade.

:class:`DDNNServer` is a small synchronous-loop server built from the
serving fabric's parts: clients ``submit()`` (or ``offer()``) multi-view
samples as :class:`~repro.serving.fabric.FabricRequest` objects, and each
``step()`` drains one micro-batch — when the shared
:meth:`BatchingPolicy.due <repro.serving.batcher.BatchingPolicy.due>`
trigger fires — through one :class:`~repro.core.oracle.ExitOracle` capture
and route, returning one :class:`~repro.serving.fabric.FabricResponse` per
request.
Each response names its exit (``exit_name``); the server keeps no answer
history — the call that produced an answer returns it.

Overload safety is opt-in: a bounded ``capacity`` plus an
:class:`~repro.serving.admission.AdmissionPolicy`, applied by the same
:func:`~repro.serving.admission.admit` rule the fabric's ingress uses, keeps
the backlog (and therefore tail latency) finite under sustained overload.
With the default unbounded queue every answer is the oracle's route of its
sample, so online serving is numerically identical to offline batch
inference (covered by tests).

Use :class:`~repro.serving.fabric.DistributedServingFabric` when the
device/edge/cloud split, link delays, or multiple (simulated or
real-thread) workers matter; both produce byte-identical exit decisions
(covered by tests).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, List, Optional

import numpy as np

from ..core.cascade import ExitCascade, Thresholds, require_compiled
from ..core.ddnn import DDNN
from ..core.oracle import ExitOracle
from ..datasets.mvmc import MVMCDataset
from .admission import (
    AdmissionOutcome,
    AdmissionPolicy,
    AdmissionResult,
    AdmissionStats,
    QueueFullError,
    RejectNewest,
    admit,
)
from .batcher import BatchingPolicy
from .fabric import FabricRequest, FabricResponse, checked_views

__all__ = ["DDNNServer"]


class DDNNServer:
    """Serves staged-exit inference requests with dynamic micro-batching.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.ddnn.DDNN`.
    thresholds:
        Entropy thresholds for the exit cascade (same rules as
        :meth:`~repro.core.oracle.ExitOracle.route`).
    policy:
        Micro-batching knobs; defaults to ``BatchingPolicy()``.
    clock:
        Time source (a callable) for submit/completion stamps; injectable
        for deterministic tests.
    capacity:
        Request-queue bound; ``None`` (default) is unbounded and never
        rejects.
    admission:
        Full-queue policy (reject / drop-oldest / shed-to-local-exit);
        only consulted when ``capacity`` is set.
    compile:
        Must be ``True`` (the default): every forward (micro-batches *and*
        the shed-to-local fast path) runs through the :mod:`repro.compile`
        fused inference plan.  The eager reference is
        ``ExitOracle.capture(compile=False)``.
    precision:
        Compute mode of the compiled plan — ``"float64"`` (exact,
        default), ``"float32"`` (tolerance mode) or ``"bitpacked"``.
    """

    def __init__(
        self,
        model: DDNN,
        thresholds: Thresholds,
        policy: Optional[BatchingPolicy] = None,
        clock: Callable[[], float] = time.perf_counter,
        capacity: Optional[int] = None,
        admission: Optional[AdmissionPolicy] = None,
        compile: bool = True,
        precision: str = "float64",
    ) -> None:
        require_compiled(compile)
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 (or None for unbounded), got {capacity}")
        self.model = model
        self.cascade = ExitCascade.for_model(model, thresholds, precision=precision)
        self.precision = precision
        self.clock = clock
        self.policy = policy if policy is not None else BatchingPolicy()
        self.capacity = capacity
        self.admission = admission if admission is not None else RejectNewest()
        self.admission_stats = AdmissionStats()
        self.queue: Deque[FabricRequest] = deque()
        self._next_id = 0

    # ------------------------------------------------------------------ #
    def submit(
        self,
        views: np.ndarray,
        client_id: str = "default",
        target: Optional[int] = None,
    ) -> int:
        """Enqueue one multi-view sample; returns its request id.

        Only an outright rejection raises
        :class:`~repro.serving.admission.QueueFullError`.  A sample shed to
        the local exit is answered at once, but its answer comes back only
        from :meth:`offer`, which overload-aware callers use instead.
        """
        result = self.offer(views, client_id=client_id, target=target)
        if result.request is None:
            raise QueueFullError(
                f"queue full (capacity={self.capacity}): request rejected "
                "— use offer() to handle overload outcomes"
            )
        return result.request.request_id

    def offer(
        self,
        views: np.ndarray,
        client_id: str = "default",
        target: Optional[int] = None,
    ) -> AdmissionResult:
        """Offer one sample, honouring admission control.

        On a ``SHED`` outcome the request is answered *immediately* from
        the cascade's first (local) exit — bounded latency, degraded
        confidence — and the answer is the result's ``response``.
        """
        views = checked_views(self.model, views)
        outcome, evicted = admit(
            self.queue, self.capacity, self.admission, self.admission_stats
        )
        if outcome is AdmissionOutcome.REJECTED:
            return AdmissionResult(outcome)
        request = FabricRequest(
            request_id=self._next_id,
            client_id=client_id,
            views=views,
            target=None if target is None else int(target),
            submit_time=self.clock(),
        )
        self._next_id += 1
        if outcome is AdmissionOutcome.SHED:
            decision = self.cascade.first_exit(self.model, views[None])
            response = self._respond(
                request, decision.predictions[0], 0, decision.entropies[0], 1,
                self.clock(), shed=True,
            )
            return AdmissionResult(outcome, request=request, response=response)
        self.queue.append(request)
        return AdmissionResult(outcome, request=request, evicted=evicted)

    def step(self, force: bool = False) -> List[FabricResponse]:
        """Process at most one micro-batch; returns its responses.

        Returns ``[]`` while the batching policy says no batch is due
        (:meth:`BatchingPolicy.due`); ``force=True`` drains whatever is
        queued, up to ``max_batch_size``.
        """
        queue = self.queue
        if not queue or not self.policy.due(
            len(queue), queue[0].submit_time, self.clock(), force
        ):
            return []
        size = min(len(queue), self.policy.max_batch_size)
        return self.process_batch([queue.popleft() for _ in range(size)])

    def run_until_drained(self) -> List[FabricResponse]:
        """Serve micro-batches until the queue is empty."""
        responses: List[FabricResponse] = []
        while self.queue:
            responses.extend(self.step(force=True))
        return responses

    def serve_dataset(
        self, dataset: MVMCDataset, client_id: str = "default"
    ) -> List[FabricResponse]:
        """Submit every dataset sample, drain the queue, return responses.

        Only responses to *this call's* submissions are returned, in
        submission (dataset) order regardless of batch composition or any
        pre-existing backlog, so the result lines up with
        ``dataset.labels``.

        On a bounded queue, micro-batches are drained whenever the next
        submission would hit the capacity limit, so admission control never
        rejects, evicts or sheds a dataset sample — every sample gets a
        full cascade answer.
        """
        submitted_ids = set()
        responses: List[FabricResponse] = []
        for index in range(len(dataset)):
            while self.capacity is not None and len(self.queue) >= self.capacity:
                responses.extend(self.step(force=True))
            submitted_ids.add(
                self.submit(
                    dataset.images[index],
                    client_id=client_id,
                    target=int(dataset.labels[index]),
                )
            )
        responses.extend(self.run_until_drained())
        responses = [
            response for response in responses if response.request_id in submitted_ids
        ]
        return sorted(responses, key=lambda response: response.request_id)

    # ------------------------------------------------------------------ #
    def process_batch(self, batch: List[FabricRequest]) -> List[FabricResponse]:
        """Run one already-popped micro-batch through the cascade."""
        views = np.stack([request.views for request in batch])
        cascade = self.cascade
        cascade.compiled_for(self.model)  # what cascade.invalidate_compiled() evicts
        routed = ExitOracle.capture(
            self.model, views, batch_size=len(batch), precision=self.precision
        ).route(cascade.thresholds)
        completion_time = self.clock()
        return [
            self._respond(
                request,
                routed.predictions[row],
                int(routed.exit_indices[row]),
                routed.entropies[row],
                len(batch),
                completion_time,
            )
            for row, request in enumerate(batch)
        ]

    def _respond(
        self,
        request: FabricRequest,
        prediction,
        exit_index: int,
        entropy,
        batch_size: int,
        completion_time: float,
        shed: bool = False,
    ) -> FabricResponse:
        return FabricResponse(
            request_id=request.request_id,
            client_id=request.client_id,
            prediction=int(prediction),
            exit_index=exit_index,
            exit_name=self.cascade.exit_names[exit_index],
            entropy=float(entropy),
            target=request.target,
            submit_time=request.submit_time,
            completion_time=completion_time,
            batch_size=batch_size,
            shed=shed,
        )
