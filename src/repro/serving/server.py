"""Online DDNN inference server over the shared exit cascade.

:class:`DDNNServer` is a synchronous-loop server: clients ``submit()`` (or
``offer()``) multi-view samples into the request queue, and each ``step()``
drains one micro-batch through the :class:`~repro.core.cascade.ExitCascade`,
producing one :class:`~repro.serving.queue.InferenceResponse` per request.
Responses are routed per exit (local / edge / cloud outboxes) — mirroring
the paper's deployment, where locally-exited answers never leave the local
aggregator while cloud-exited ones return from the upper tier — and
delivered to the issuing client's session.

Overload safety is opt-in: a bounded ``capacity`` plus an
:class:`~repro.serving.admission.AdmissionPolicy` keeps the backlog (and
therefore tail latency) finite under sustained overload.  With the default
unbounded queue the server runs the exact same cascade as
:class:`~repro.core.inference.StagedInferenceEngine`, so online serving is
numerically identical to offline batch inference (covered by tests).

This server is the *single-tier degenerate case* of the distributed
:class:`~repro.serving.fabric.DistributedServingFabric`: one tier, one
worker, the whole cascade evaluated in place on the calling thread, no
inter-tier links.  Use the fabric when the device/edge/cloud split, link
delays, or multiple (simulated or real-thread) workers matter; both produce
byte-identical exit decisions (covered by tests).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from ..core.cascade import ExitCascade, Thresholds
from ..core.ddnn import DDNN
from ..datasets.mvmc import MVMCDataset
from .admission import AdmissionOutcome, AdmissionPolicy, AdmissionResult, QueueFullError
from .batcher import BatchingPolicy, MicroBatcher
from .queue import InferenceRequest, InferenceResponse, RequestQueue
from .stats import ServerStats, StatsSnapshot

__all__ = ["DDNNServer"]


class DDNNServer:
    """Serves staged-exit inference requests with dynamic micro-batching.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.ddnn.DDNN`.
    thresholds:
        Entropy thresholds for the exit cascade (same rules as
        :class:`~repro.core.inference.StagedInferenceEngine`).
    policy:
        Micro-batching knobs; defaults to ``BatchingPolicy()``
        (``max_batch_size=1`` serves one request at a time).
    clock:
        Time source for enqueue/completion stamps; injectable for
        deterministic tests.
    stats_window:
        Rolling-telemetry window (most recent completed requests).
    capacity:
        Request-queue bound; ``None`` (default) is unbounded and never
        rejects — today's behaviour, bit for bit.
    admission:
        Full-queue policy (reject / drop-oldest / shed-to-local-exit);
        only consulted when ``capacity`` is set.
    retention:
        Bound on per-session response history and per-exit outboxes;
        defaults to ``stats_window`` so a long-lived server's memory stays
        bounded without configuration.  Counters remain exact.
    compile:
        If ``True``, every forward (micro-batches *and* the shed-to-local
        fast path) runs through the :mod:`repro.compile` fused inference
        plan — same predictions and exit routing as the eager stack,
        substantially higher throughput at serving batch sizes.
    precision:
        Compute mode for the compiled path — ``"float64"`` (exact,
        default), ``"float32"`` (tolerance mode) or ``"bitpacked"``.
        Requires ``compile=True`` for the non-default modes: the eager
        stack has no reduced-precision path, so a server that silently
        ignored the knob would misreport what it serves.
    """

    def __init__(
        self,
        model: DDNN,
        thresholds: Thresholds,
        policy: Optional[BatchingPolicy] = None,
        clock: Callable[[], float] = time.perf_counter,
        stats_window: int = 1024,
        capacity: Optional[int] = None,
        admission: Optional[AdmissionPolicy] = None,
        retention: Optional[int] = None,
        compile: bool = False,
        precision: str = "float64",
    ) -> None:
        if precision != "float64" and not compile:
            raise ValueError(
                f"precision='{precision}' requires compile=True: the eager "
                "stack always computes in float64"
            )
        self.model = model
        self.cascade = ExitCascade.for_model(
            model, thresholds, compile=compile, precision=precision
        )
        self.precision = precision
        self.clock = clock
        self.policy = policy if policy is not None else BatchingPolicy()
        self.retention = stats_window if retention is None else retention
        self.queue = RequestQueue(
            clock=clock,
            capacity=capacity,
            admission=admission,
            retention=self.retention,
        )
        self.batcher = MicroBatcher(self.queue, self.policy, clock)
        self.stats = ServerStats(window=stats_window)
        self._exit_outboxes: Dict[str, Deque[InferenceResponse]] = {
            name: deque(maxlen=self.retention) for name in self.cascade.exit_names
        }

    # ------------------------------------------------------------------ #
    @property
    def exit_names(self) -> List[str]:
        return list(self.cascade.exit_names)

    def responses_for_exit(self, exit_name: str) -> List[InferenceResponse]:
        """Recent responses the named exit classified, in completion order.

        Bounded by ``retention``; lifetime per-exit totals are in the
        rolling stats' exit fractions and the session counters.
        """
        if exit_name not in self._exit_outboxes:
            raise KeyError(f"no exit named '{exit_name}' (have {self.exit_names})")
        return list(self._exit_outboxes[exit_name])

    def snapshot(self) -> StatsSnapshot:
        """Current rolling telemetry reading."""
        return self.stats.snapshot()

    # ------------------------------------------------------------------ #
    def submit(
        self,
        views: np.ndarray,
        client_id: str = "default",
        target: Optional[int] = None,
    ) -> int:
        """Enqueue one multi-view sample; returns its request id.

        Under a shed-to-local-exit policy a sample that cannot be queued is
        still *answered* — immediately, from the local exit — and its id is
        returned like any other (the response is already in the client's
        session).  Only an outright rejection raises
        :class:`~repro.serving.admission.QueueFullError`; overload-aware
        callers use :meth:`offer` to branch on the outcome instead.
        """
        result = self.offer(views, client_id=client_id, target=target)
        if result.request is None:
            raise QueueFullError(
                f"queue full (capacity={self.queue.capacity}): request rejected "
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
        confidence — and the response is delivered to the client session
        and local outbox before this method returns.
        """
        result = self.queue.offer(views, client_id=client_id, target=target)
        if result.outcome is AdmissionOutcome.SHED and result.request is not None:
            self._shed_to_local(result.request)
        return result

    def _shed_to_local(self, request: InferenceRequest) -> None:
        """Answer a shed request from the local exit, bypassing the queue."""
        decision = self.cascade.first_exit(self.model, request.views[None])
        response = InferenceResponse(
            request_id=request.request_id,
            client_id=request.client_id,
            prediction=int(decision.predictions[0]),
            exit_index=0,
            exit_name=self.cascade.exit_names[0],
            entropy=float(decision.entropies[0]),
            target=request.target,
            enqueue_time=request.enqueue_time,
            completion_time=self.clock(),
            batch_size=1,
            shed=True,
        )
        self._exit_outboxes[response.exit_name].append(response)
        self.queue.session(request.client_id).deliver(response)

    def step(self, force: bool = False) -> List[InferenceResponse]:
        """Process at most one micro-batch; returns its responses.

        Returns ``[]`` when the batcher decides no batch is due yet (see
        :class:`~repro.serving.batcher.BatchingPolicy`); ``force=True``
        overrides the policy triggers and drains whatever is queued.
        """
        batch = self.batcher.next_batch(force=force)
        if not batch:
            return []
        return self.process_batch(batch)

    def run_until_drained(self) -> List[InferenceResponse]:
        """Serve micro-batches until the queue is empty."""
        responses: List[InferenceResponse] = []
        while len(self.queue) > 0:
            responses.extend(self.step(force=True))
        return responses

    def serve_dataset(
        self, dataset: MVMCDataset, client_id: str = "default"
    ) -> List[InferenceResponse]:
        """Submit every dataset sample, drain the queue, return responses.

        Only responses to *this call's* submissions are returned, in
        submission (dataset) order regardless of batch composition or any
        pre-existing backlog from other clients, so the result lines up
        with ``dataset.labels``.  Backlogged requests drained along the way
        are still delivered to their own sessions and outboxes.

        On a bounded queue, micro-batches are drained whenever the next
        submission would hit the capacity limit, so admission control never
        rejects, evicts or sheds a dataset sample — every sample gets a
        full cascade answer.  The unbounded default submits everything
        first and drains once, exactly as before.
        """
        submitted_ids = set()
        responses: List[InferenceResponse] = []
        for index in range(len(dataset)):
            while (
                self.queue.capacity is not None
                and len(self.queue) >= self.queue.capacity
            ):
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
    def process_batch(self, batch: List[InferenceRequest]) -> List[InferenceResponse]:
        """Run one already-popped micro-batch through the cascade.

        Public so external schedulers (e.g. the open-loop load generator)
        can control *when* a batch runs while reusing the exact serving
        path: completion stamps, per-exit routing, session delivery and
        rolling stats.
        """
        views = np.stack([request.views for request in batch])
        routed = self.cascade.run_model(self.model, views, batch_size=len(batch))
        completion_time = self.clock()
        responses: List[InferenceResponse] = []
        for row, request in enumerate(batch):
            exit_index = int(routed.exit_indices[row])
            response = InferenceResponse(
                request_id=request.request_id,
                client_id=request.client_id,
                prediction=int(routed.predictions[row]),
                exit_index=exit_index,
                exit_name=self.cascade.exit_names[exit_index],
                entropy=float(routed.entropies[row]),
                target=request.target,
                enqueue_time=request.enqueue_time,
                completion_time=completion_time,
                batch_size=len(batch),
            )
            self._exit_outboxes[response.exit_name].append(response)
            self.queue.session(request.client_id).deliver(response)
            responses.append(response)
        self.stats.observe_batch(responses)
        return responses
