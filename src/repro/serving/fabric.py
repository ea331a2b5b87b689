"""Tier-aware distributed serving fabric (discrete-event, multi-worker).

This is the online counterpart of the paper's *distributed* deployment: a
request enters at the device tier, most requests exit at the local
aggregator, and only the unconfident tail is offloaded — as real messages
over :class:`~repro.hierarchy.network.NetworkFabric` links whose bandwidth
and propagation latency now *cost simulated time* on the request's clock,
not just bytes.

The fabric is a discrete-event simulation on the shared
:class:`~repro.serving.clock.EventLoop`:

* each cascade tier is a :class:`TierServer` — a FIFO queue, a
  :class:`~repro.serving.batcher.BatchingPolicy`, and ``N`` workers, each
  executing the tier's :class:`~repro.hierarchy.sections.TierSection` on a
  compiled ``"float64"`` plan bundle (one per deployment for simulated
  workers, which compute one at a time on the loop's thread, one per
  worker for thread workers, which compute concurrently);
* a batch occupies a worker for the section's modelled compute time (or an
  explicit :class:`~repro.serving.loadgen.ServiceModel` override), then its
  rows either exit — the answer is stamped onto the row's
  :class:`FabricRequest` — or are offloaded to the next tier, arriving
  after the link's transfer delay;
* everything (arrival interleaving, batch formation, worker assignment,
  transfer timing) is deterministic in simulated time.

Workers are a pluggable backend (:mod:`repro.serving.workers`): the default
``backend="simulated"`` keeps the deterministic discrete-event slots above,
while ``backend="thread"`` runs the same sections on per-worker plan
bundles on a real :class:`~concurrent.futures.ThreadPoolExecutor`
against a :class:`~repro.serving.clock.WallClock` — the same fabric script
becomes a genuinely concurrent server whose throughput is a wall-clock
number.  Exit decisions are byte-identical across backends; only timing
(and, for stochastic fault plans, the order of RNG draws) differs.

Exit decisions are identical to the untimed rule on the monolithic model
(:meth:`~repro.core.oracle.ExitOracle.route`) for any worker count and
link configuration — workers and links change *when* things happen,
never *what* is computed (covered by tests).  The offline
:class:`~repro.hierarchy.runtime.HierarchyRuntime` is the fabric replayed at
infinite arrival rate, and :class:`~repro.serving.server.DDNNServer` is the
fabric over one tier that holds every exit
(:class:`~repro.hierarchy.sections.CascadeTierSection`): a tier applies
each exit it holds in cascade order.

Every answer carries one :class:`AnswerReason`: ``threshold`` (its exit's
entropy met T, the paper's rule, judged by one
:class:`~repro.core.exits.ExitCriterion` per exit for every row) or one of
three early answers, each given from the deepest exit the request already
cleared by one step (:meth:`DistributedServingFabric._answer_early`):
``shed`` (queue pressure, at admission only), ``failover`` and ``deadline``.
"""

from __future__ import annotations

import math
import numbers
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compile.cache import compiled_plan_for
from ..core.cascade import Thresholds, build_exit_criteria, require_compiled
from ..datasets.mvmc import MVMCDataset, _int_at_least
from ..hierarchy.faults import ChaosSchedule
from ..hierarchy.partition import HierarchyDeployment
from ..hierarchy.plan import PartitionPlan
from ..hierarchy.sections import TierSection, build_tier_sections
from .admission import (
    AdmissionOutcome,
    AdmissionPolicy,
    AdmissionStats,
    RejectNewest,
    admit,
)
from .batcher import BatchingPolicy
from .clock import EventHandle, EventLoop, SimulatedClock, WallClock
from .loadgen import ArrivalProcess, ServiceModel, _finite
from .resilience import (
    CircuitBreaker,
    Deadline,
    HedgePolicy,
    ResilienceStats,
    RetryPolicy,
)
from .workers import (
    WORKER_POOL_BACKENDS,
    WorkerHandle,
    WorkerPool,
    make_worker_pool,
)

__all__ = [
    "AnswerReason",
    "FabricRequest",
    "FabricReport",
    "RepartitionReport",
    "TierServer",
    "DistributedServingFabric",
]


class AnswerReason(str, Enum):
    """Why an answer left at its exit (a ``str`` enum: ``reason == "shed"``)."""

    #: Its exit's criterion met the configured threshold (the final exit
    #: takes every row left): the paper's only reason.
    THRESHOLD = "threshold"
    #: Admission answered it at the ingress from the first exit.
    SHED = "shed"
    #: Its offload's retries or circuit breaker gave up on the uplink.
    FAILOVER = "failover"
    #: Its SLO budget was spent, or could not cover its next transfer.
    DEADLINE = "deadline"


def _no_reasons() -> Dict[str, int]:
    return {reason.value: 0 for reason in AnswerReason}


def checked_views(model, views) -> np.ndarray:
    """One sample's views as an array, validated against ``model``: shape
    ``(num_devices, C, H, W)`` from its config and finite values (compiled
    plans are specified for finite inputs only).  Serving entry points call
    this on outside input before any of their state changes."""
    views = np.asarray(views)
    config = model.config
    size = config.input_size
    expected = (config.num_devices, config.input_channels, size, size)
    if views.shape != expected:
        raise ValueError(
            f"views must have shape (num_devices, C, H, W) = {expected}, got {views.shape}"
        )
    if not np.isfinite(views).all():
        raise ValueError("views must be finite (no NaN or infinity)")
    return views


@dataclass(eq=False)
class FabricRequest:
    """One sample from submission to answer: what tier queues, offload
    groups, ``responses`` and :attr:`FabricReport.responses` hold.

    :meth:`DistributedServingFabric._finalize` stamps the answer fields
    (``prediction`` on) and clears ``views`` and ``payload``, so a kept
    answer holds no input or carry; ``shed`` and ``degraded`` are read-only
    views of ``reason``.  Compared by identity, so a queue removes exactly
    this request."""

    request_id: int
    client_id: str
    #: The sample's views, until it is answered.
    views: Optional[np.ndarray]
    target: Optional[int] = None
    submit_time: float = 0.0
    #: What its tier stages for it (its views at the device tier, its
    #: ``(sources, ...)`` row of the carry above), while queued or in transit.
    payload: object = field(default=None, repr=False)
    #: When it joined the tier queue it is in (or was last in).
    queued_at: float = 0.0
    #: ``(fabric, tier_index)`` while sitting in a tier queue, so the expiry
    #: timer can surgically remove it; ``None`` otherwise.
    queued_in: Optional[tuple] = field(default=None, repr=False)
    #: Sum of per-tier compute + transfer latency along the sample's path
    #: (the offline hierarchy metric; excludes queueing and batching waits).
    path_latency_s: float = 0.0
    #: Total bytes this sample put on the wire (paper Eq. 1 accounting).
    bytes_transferred: float = 0.0
    #: Offload re-sends this request's journey needed (0 on a clean path).
    retries: int = 0
    #: Deepest exit decision this request has already cleared — the answer
    #: a failover or deadline retirement falls back to: ``(prediction,
    #: entropy, exit_index, exit_name)``.
    fallback: Optional[Tuple[int, float, int, str]] = None
    #: End-to-end SLO budget travelling with the request (``None`` = no SLO).
    deadline: Optional[Deadline] = None
    #: True when a speculative hedge copy to a sibling replica delivered
    #: this request's offload first.
    hedged: bool = False
    #: Daemon timer that retires the request at deadline expiry while queued.
    expiry_handle: Optional[EventHandle] = field(default=None, repr=False)
    # -- the answer (``reason`` is ``None`` until there is one) ----------
    prediction: Optional[int] = None
    exit_index: Optional[int] = None
    exit_name: Optional[str] = None
    entropy: Optional[float] = None
    completion_time: Optional[float] = None
    batch_size: int = 1
    reason: Optional[AnswerReason] = None
    #: True when the request's end-to-end SLO budget could not be met: it
    #: was retired from a queue (or clipped before an offload/retry) and
    #: answered from the deepest exit already cleared, or its real answer
    #: simply landed after the budget.  Never dropped either way.
    deadline_exceeded: bool = False

    @property
    def answered(self) -> bool:
        return self.reason is not None

    @property
    def shed(self) -> bool:
        return self.reason == AnswerReason.SHED

    @property
    def relaxed(self) -> bool:
        # Always False: every exit judges every row at its own threshold.
        # Kept while ``bench/check.py`` still reads the flag.
        return False

    @property
    def degraded(self) -> bool:
        return self.reason in (AnswerReason.FAILOVER, AnswerReason.DEADLINE)

    @property
    def latency_s(self) -> float:
        """End-to-end sojourn time: queueing + compute + transfer delays."""
        return self.completion_time - self.submit_time

    @property
    def correct(self) -> Optional[bool]:
        if self.target is None:
            return None
        return self.prediction == self.target


def _require_unanswered(request: FabricRequest) -> None:
    """The exactly-once guard: the first thing a second answer hits."""
    if request.answered:
        raise RuntimeError(f"request {request.request_id} answered twice — fabric invariant")


def _unqueue(request: FabricRequest) -> None:
    """Forget the request's queue slot and disarm its expiry timer."""
    request.queued_in = None
    if request.expiry_handle is not None:
        request.expiry_handle.cancel()
        request.expiry_handle = None


@dataclass
class FabricReport:
    """Aggregate outcome of a fabric run."""

    served: int
    duration_s: float
    offload_fraction: float
    exit_fractions: Dict[str, float]
    mean_latency_s: float = 0.0
    p50_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    max_latency_s: float = 0.0
    mean_bytes: float = 0.0
    accuracy: Optional[float] = None
    #: Responses per :class:`AnswerReason` value, all four present (sum: ``served``).
    reasons: Dict[str, int] = field(default_factory=_no_reasons)
    #: Total offload re-sends across all responses.
    retry_total: int = 0
    #: Fraction of responses whose end-to-end SLO budget was missed.
    deadline_exceeded_fraction: float = 0.0
    #: Speculative hedge copies sent to sibling replicas.
    hedge_total: int = 0
    #: Fraction of hedges whose copy beat the original attempt.
    hedge_win_fraction: float = 0.0
    #: Extra bytes the hedge copies put on sibling links (honest accounting:
    #: also charged to the individual requests' ``bytes_transferred``).
    hedge_bytes: float = 0.0
    #: Uniform observability block: resilience counters, admission
    #: accounting and per-link breaker state/transition counts.
    metadata: Dict[str, object] = field(default_factory=dict)
    responses: List[FabricRequest] = field(default_factory=list)


@dataclass
class RepartitionReport:
    """Outcome of one :meth:`DistributedServingFabric.apply_plan` handoff."""

    #: Simulated/wall time the handoff executed at (after the drain barrier).
    time: float
    #: Queued request ids carried across the boundary move, per tier name.
    requeued_ids: Dict[str, Tuple[int, ...]]
    #: Worker count per tier after the handoff.
    workers_per_tier: Dict[str, int]

    @property
    def requeued(self) -> Dict[str, int]:
        return {name: len(ids) for name, ids in self.requeued_ids.items()}

    @property
    def total_requeued(self) -> int:
        return sum(len(ids) for ids in self.requeued_ids.values())


class _RequestIds:
    """Monotonic request-id source.

    A plain attribute would do for one fabric; hedging makes it an object so
    the :class:`~repro.serving.balancer.LoadBalancer` can share ONE source
    across sibling replicas — merged response streams stay globally unique
    and a hedge copy keeps its original id on the sibling stack.
    """

    __slots__ = ("next",)

    def __init__(self) -> None:
        self.next = 0

    def take(self) -> int:
        value = self.next
        self.next += 1
        return value


@dataclass
class _OffloadGroup:
    """One in-flight offload: a batch's non-exiting rows in transit.

    The rows of one batch travel (and are retried) as a single
    message-group — they share link fate, an attempt timer, and a failover
    decision, and reach the next tier together after their one transfer
    delay.  ``attempts`` versions the outstanding send so a late
    arrival from a superseded attempt can be recognised and suppressed.
    """

    origin: int
    requests: List[FabricRequest]
    rows: np.ndarray
    carry: object
    attempts: int = 0
    settled: bool = False
    delivery_handle: Optional[EventHandle] = None
    timeout_handle: Optional[EventHandle] = None
    #: Pending backoff re-send (cancelled when any arrival settles first).
    resend_handle: Optional[EventHandle] = None
    #: Earliest member deadline — the group's whole SLO budget (inf = none).
    expires_at: float = math.inf
    #: Speculative hedge copies already sent to sibling replicas.
    hedge_count: int = 0
    #: Timer that fires the next hedge once ``trigger_fraction`` of the
    #: remaining budget has elapsed without a delivery.
    hedge_timer: Optional[EventHandle] = None
    #: In-flight hedge delivery events (cancelled when any arrival settles).
    hedge_deliveries: List[EventHandle] = field(default_factory=list)


class TierServer:
    """One tier of the fabric: queue + batching policy + a worker pool.

    The pool decides how a dispatched batch occupies time — deterministic
    simulated slots, or real executor threads (see
    :mod:`repro.serving.workers`); the tier itself only owns arrival
    queueing and batch formation, which stay on the event-loop thread in
    either backend.
    """

    def __init__(
        self,
        section: TierSection,
        pool: WorkerPool,
        policy: Optional[BatchingPolicy] = None,
        service_model: Optional[ServiceModel] = None,
    ) -> None:
        self.section = section
        self.pool = pool
        self.policy = policy if policy is not None else BatchingPolicy()
        self.service_model = service_model
        self.queue: Deque[FabricRequest] = deque()
        self.batches_dispatched = 0
        self.samples_processed = 0

    @property
    def name(self) -> str:
        return self.section.tier_name

    @property
    def workers(self) -> List[WorkerHandle]:
        return self.pool.workers

    def due(self, now: float, draining: bool) -> bool:
        queue = self.queue
        return bool(queue) and self.policy.due(
            len(queue), queue[0].queued_at, now, draining
        )

    def service_time(self, batch_size: int, section_service_s: float) -> float:
        if self.service_model is not None:
            return self.service_model.batch_time_s(batch_size)
        return section_service_s


class DistributedServingFabric:
    """Discrete-event serving over the tiered deployment.

    Parameters
    ----------
    deployment:
        A :func:`~repro.hierarchy.partition.partition_ddnn` deployment; its
        :class:`~repro.hierarchy.network.NetworkFabric` links supply the
        transfer delays charged to offloaded requests.
    thresholds:
        Exit-cascade thresholds (same rules as every other cascade consumer).
    workers_per_tier:
        Worker count per tier — a single int (broadcast) or one per tier.
    batching:
        :class:`BatchingPolicy` per tier (single policy broadcasts).
    compile:
        Must be ``True`` (the default): the tiers run on compiled plan
        bundles at ``"float64"`` — every simulated worker over the fabric's
        deployment shares one bundle, every thread worker owns one (see
        :meth:`_worker_bundles`).  The eager reference is
        ``ExitOracle.capture(compile=False)``.  Simulated fabrics built on
        one deployment share that bundle's arenas, so they must not be
        driven from different threads: run concurrent fabrics with
        ``backend="thread"``, or give each thread a deployment of its own.
    sections:
        Pre-built tier sections (the hierarchy runtime passes sections that
        carry its fault plan, :class:`~repro.serving.server.DDNNServer` one
        :class:`~repro.hierarchy.sections.CascadeTierSection`); defaults to
        :func:`build_tier_sections`.
    service_models:
        Optional per-tier :class:`ServiceModel` overriding the node
        ops-model compute time for worker occupancy (used for
        machine-independent studies); ``None`` entries keep the section
        estimate.
    backend:
        Worker-pool backend: ``"simulated"`` (default — deterministic
        discrete-event slots, the paper-table replay path, byte-identical
        to earlier releases) or ``"thread"`` (real
        :class:`~concurrent.futures.ThreadPoolExecutor` workers against a
        :class:`~repro.serving.clock.WallClock`).  The thread backend runs
        on a fresh ``WallClock`` loop unless ``events`` is given, and
        rejects a loop over a simulated clock — wall-clock dispatch is what
        makes real concurrency observable.
    offload:
        :class:`~repro.serving.resilience.RetryPolicy` every offload to the
        next tier travels under: each attempt carries a deadline; on
        timeout or message loss the origin tier retries with exponential
        backoff + jitter up to the budget, then **fails over** to the
        deepest local exit the request has already cleared — an honest
        answer carrying ``reason="failover"`` and its ``retries``.  ``None``
        is ``RetryPolicy(deadline_s=inf, max_retries=0)``: one attempt that
        waits for its delivery, so no timer is armed and nothing is ever
        retried or failed over — hence an attached chaos schedule that can
        darken links or lose messages requires a policy whose attempts
        *can* time out (the offload would otherwise hang forever).  Either
        way the non-exiting rows of one batch reach the next tier together,
        after the one transfer delay (the slowest sender's) that every row
        of the group is charged.
    breaker:
        Optional :class:`~repro.serving.resilience.CircuitBreaker` template
        (thresholds only); each inter-tier link gets its own instance
        (``CircuitBreaker()`` without a template).  An open breaker fails
        offloads over to the local exit immediately instead of burning a
        deadline + backoff ladder per batch.  Only timeouts trip it, so it
        requires an ``offload`` policy whose attempts can time out.
    slo_s:
        Default end-to-end SLO budget stamped on every submission as a
        :class:`~repro.serving.resilience.Deadline` (per-call ``slo_s``
        overrides).  The deadline travels with the request across tiers:
        expired requests are retired from queues *before* burning compute,
        retry ladders are clipped to the remaining budget, and every
        answer landing past the budget is flagged ``deadline_exceeded``
        (never dropped).
    edf:
        Form batches earliest-deadline-first instead of FIFO (requests
        without a deadline sort last; ties break on request id).
    hedge:
        Optional :class:`~repro.serving.resilience.HedgePolicy`: once
        ``trigger_fraction`` of an offload group's remaining budget has
        elapsed without a delivery, a speculative copy is re-sent to a
        sibling replica stack; first arrival wins, the rest are cancelled.
        Requires ``offload`` and a router wired by the
        :class:`~repro.serving.balancer.LoadBalancer` (a lone fabric has
        no siblings, so the policy is inert without one).
    events:
        Optional shared :class:`~repro.serving.clock.EventLoop` (and so
        clock); sibling replicas under one balancer must share a loop for
        hedging.  Without one the fabric makes its own, over a
        :class:`~repro.serving.clock.SimulatedClock` or, on the thread
        backend, a ``WallClock``.
    """

    def __init__(
        self,
        deployment: HierarchyDeployment,
        thresholds: Thresholds,
        workers_per_tier: Union[int, Sequence[int]] = 1,
        batching: Union[None, BatchingPolicy, Sequence[Optional[BatchingPolicy]]] = None,
        compile: bool = True,
        sections: Optional[Sequence[TierSection]] = None,
        service_models: Optional[Sequence[Optional[ServiceModel]]] = None,
        backend: str = "simulated",
        capacity: Optional[int] = None,
        admission: Optional[AdmissionPolicy] = None,
        offload: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        slo_s: Optional[float] = None,
        edf: bool = False,
        hedge: Optional[HedgePolicy] = None,
        events: Optional[EventLoop] = None,
    ) -> None:
        require_compiled(compile)
        if capacity is not None:
            capacity = _int_at_least(capacity, "capacity")
        if slo_s is not None:
            slo_s = _finite("slo_s", slo_s, positive=True)
        if backend not in WORKER_POOL_BACKENDS:
            raise ValueError(
                f"unknown backend '{backend}' (choose from {WORKER_POOL_BACKENDS})"
            )
        if events is None:
            events = EventLoop(WallClock() if backend == "thread" else None)
        elif backend == "thread" and not isinstance(events.clock, WallClock):
            raise ValueError(
                "backend='thread' runs against wall-clock time; pass an "
                "events loop over a WallClock (or none) instead of one over "
                f"a {type(events.clock).__name__}"
            )
        self.deployment = deployment
        self.model = deployment.model
        # Serving is inference: batch-norm must use running statistics, or
        # exit decisions would depend on micro-batch composition (the
        # hierarchy runtime makes the same call before it replays a dataset).
        self.model.eval()
        self.events = events
        self.backend = backend

        if sections is None:
            sections = build_tier_sections(deployment)
        self.sections = list(sections)
        num_tiers = len(self.sections)

        workers = self._per_tier(workers_per_tier, num_tiers, "workers_per_tier")
        policies = self._per_tier(batching, num_tiers, "batching")
        services = list(service_models) if service_models is not None else [None] * num_tiers
        if len(services) != num_tiers:
            raise ValueError(f"service_models must have {num_tiers} entries")

        #: Per-exit criteria, indexed by the model's exits (final forced to 1.0).
        self.criteria = build_exit_criteria(thresholds, self.model.exit_names)

        #: Thread-backend bundles, one per worker slot (see
        #: :meth:`_worker_bundles`).
        self._bundles: List[object] = []
        self.tiers: List[TierServer] = []
        for index, section in enumerate(self.sections):
            count = 1 if workers[index] is None else _int_at_least(
                workers[index], "workers_per_tier"
            )
            pool = make_worker_pool(
                backend,
                self.events,
                num_workers=count,
                worker_plans=self._worker_bundles(count),
                name=section.tier_name,
            )
            self.tiers.append(
                TierServer(
                    section,
                    pool,
                    policy=policies[index],
                    service_model=services[index],
                )
            )

        if self.sections[-1].exit_index is None:
            raise ValueError("the final tier must carry the cascade's final exit")

        self.capacity = capacity
        self.admission = admission if admission is not None else RejectNewest()
        self.admission_stats = AdmissionStats()

        #: Plan the fabric currently runs (set by :meth:`from_plan` and
        #: :meth:`apply_plan`; ``None`` for directly-constructed fabrics).
        self.plan: Optional[PartitionPlan] = None
        #: Optional :class:`~repro.serving.autoscale.Autoscaler` observing
        #: arrivals/completions (see :meth:`enable_autoscaling`).
        self.autoscaler = None
        self.last_repartition: Optional[RepartitionReport] = None
        self._pending_plan: Optional[PartitionPlan] = None
        self._paused = False
        self._inflight_batches = 0

        self.responses: List[FabricRequest] = []
        self.offered = 0
        #: Answers emitted so far per :class:`AnswerReason` value,
        #: :meth:`serve_dataset`'s included (it hands its answers back
        #: instead of keeping them in ``responses``).
        self.reasons: Dict[str, int] = _no_reasons()
        #: Shared-able id source (the balancer unifies it across replicas
        #: when hedging, so merged response streams stay globally unique).
        self._ids = _RequestIds()
        self._draining = False
        self._started_at = self.clock.now
        #: Default end-to-end SLO budget stamped on every submission
        #: (per-call ``slo_s`` overrides; ``None`` = no deadline).
        self.slo_s = slo_s
        #: Earliest-deadline-first batch formation at every tier.
        self.edf = bool(edf)

        if offload is None:
            offload = RetryPolicy(deadline_s=math.inf, max_retries=0)
        if breaker is not None and not offload.can_time_out:
            raise ValueError(
                "breaker without offload does nothing: the circuit breaker "
                "guards the resilient offload path — pass offload=RetryPolicy(...)"
            )
        if hedge is not None and not offload.can_time_out:
            raise ValueError(
                "hedge without offload does nothing: hedge copies ride the "
                "resilient offload path — pass offload=RetryPolicy(...)"
            )
        #: Policy every offload travels under (``offload=None``: a single
        #: attempt that never times out).
        self.offload_policy = offload
        self._breaker_template = breaker
        #: Per-link circuit breakers, keyed (origin tier name, target tier name).
        self.breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        self._retry_rng = np.random.default_rng(offload.seed)
        self.resilience_stats = ResilienceStats()
        #: Hedged-offload policy; the routing callable is wired by the
        #: LoadBalancer (``hedge_router(origin_fabric, origin_tier) ->
        #: sibling fabric or None``) — a lone fabric has no siblings.
        self.hedge_policy = hedge
        self.hedge_router = None
        #: Total bytes hedge copies put on sibling links (fleet-honest: also
        #: charged per request, so mean_bytes reflects the speculation tax).
        self.hedge_bytes = 0.0
        # Per-request expiry timers are daemon events; this gate keeps the
        # loop alive while real work is queued or computing (e.g. a backlog
        # waiting for an offload delivery that is still in flight).
        # Held weakly (the fabric owns the loop that would hold the gate): a
        # dropped fabric frees itself, and a gate for a fabric that is gone
        # vetoes nothing.
        gate = weakref.WeakMethod(self._idle_gate)
        self.events.add_idle_gate(lambda: (method := gate()) is None or method())
        self.chaos: Optional[ChaosSchedule] = None

    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> Union[SimulatedClock, WallClock]:
        return self.events.clock

    def _idle_gate(self) -> bool:
        """Loop-idleness veto: daemon timers alone never keep the loop
        alive, but queued or in-flight work on this fabric must."""
        return self._inflight_batches == 0 and all(
            not tier.queue for tier in self.tiers
        )

    @property
    def answered(self) -> int:
        """Answers emitted so far, :meth:`serve_dataset`'s included."""
        return sum(self.reasons.values())

    @property
    def tier_names(self) -> List[str]:
        return [tier.name for tier in self.tiers]

    @property
    def healthy(self) -> bool:
        """True while every tier has at least one online (non-crashed) worker.

        A :class:`~repro.hierarchy.faults.WorkerCrash` blackout window takes
        a tier's online count to zero; the
        :class:`~repro.serving.balancer.LoadBalancer` reads this to route
        around a blacked-out replica stack.
        """
        return all(tier.pool.online > 0 for tier in self.tiers)

    # -- runtime fault injection ---------------------------------------- #
    def attach_chaos(self, schedule: ChaosSchedule) -> "DistributedServingFabric":
        """Arm a :class:`~repro.hierarchy.faults.ChaosSchedule` on this fabric.

        Link events (outages, flaps, loss) are consulted per offload via
        :meth:`NetworkFabric.delivery
        <repro.hierarchy.network.NetworkFabric.delivery>`; worker-crash
        windows are pre-scheduled as events at each window boundary, where
        the affected tier's pool re-applies the schedule's offline count
        (idle workers crash first; a worker mid-batch finishes that batch,
        then goes dark).  On the simulated backend the whole fault
        realisation is deterministic under the schedule's seed.
        """
        self._check_link_chaos(schedule, self.sections[0].exit_index is not None)
        self.chaos = schedule
        self.deployment.fabric.attach_chaos(schedule)
        for index, tier in enumerate(self.tiers):
            for when in schedule.worker_event_times(tier.name):
                # Deliberately non-daemon: a run under chaos advances
                # through every boundary, so crashed workers always restart
                # (health checks and drains rely on it).
                self.events.schedule(
                    when,
                    lambda now, i=index: self._apply_worker_chaos(i, now),
                )
            # A window already open at attach time applies immediately.
            if schedule.worker_event_times(tier.name):
                self._apply_worker_chaos(index, self.clock.now)
        return self

    def _check_link_chaos(self, schedule: ChaosSchedule, device_exit: bool) -> None:
        """Reject link chaos this fabric could not survive, before it runs."""
        if not schedule.has_link_chaos:
            return
        if not self.offload_policy.can_time_out:
            raise ValueError(
                "this chaos schedule can darken links or lose messages, and "
                "without an offload RetryPolicy a lost offload would hang "
                "forever — pass offload=RetryPolicy(...) to the fabric"
            )
        if not device_exit:
            raise ValueError(
                "this chaos schedule can darken links or lose messages, but "
                "the device tier has no exit (local_exit=False): a request "
                "lost on its first uplink has cleared no exit to fail over "
                "to — keep the local exit, or drop the schedule's link events"
            )

    def _apply_worker_chaos(self, tier_index: int, now: float) -> None:
        """Re-apply the schedule's offline worker count for one tier at ``now``."""
        assert self.chaos is not None
        tier = self.tiers[tier_index]
        tier.pool.apply_offline(
            self.chaos.workers_down(tier.name, now, len(tier.pool)), now
        )
        # A restart boundary frees workers for the backlog accumulated
        # during the window; a crash boundary makes this a no-op dispatch.
        if not self._paused:
            self._dispatch(tier_index, now)

    def breaker_for(self, origin: str, target: str) -> CircuitBreaker:
        """The (lazily-created) circuit breaker guarding one inter-tier link."""
        key = (origin, target)
        if key not in self.breakers:
            template = self._breaker_template
            self.breakers[key] = (
                template.spawn() if template is not None else CircuitBreaker()
            )
        return self.breakers[key]

    @staticmethod
    def _per_tier(value, num_tiers: int, label: str) -> List:
        if isinstance(value, bool):
            raise ValueError(f"{label} must be one value or one per tier, got {value!r}")
        if value is None or isinstance(value, (numbers.Integral, BatchingPolicy)):
            return [value] * num_tiers
        values = list(value)
        if len(values) != num_tiers:
            raise ValueError(f"{label} must have {num_tiers} entries, got {len(values)}")
        return values

    # ------------------------------------------------------------------ #
    @classmethod
    def from_plan(
        cls,
        plan: PartitionPlan,
        thresholds: Thresholds,
        deployment: Optional[HierarchyDeployment] = None,
        **kwargs,
    ) -> "DistributedServingFabric":
        """Build a fabric from a :class:`~repro.hierarchy.plan.PartitionPlan`.

        The plan supplies the deployment (freshly materialised unless one is
        passed in), the section boundary, per-tier worker counts and —
        when the plan carries :class:`~repro.hierarchy.plan.AutoscalePolicy`
        entries — an enabled autoscaler.  Remaining keyword arguments go to
        the constructor unchanged (batching, backend, capacity, ...).
        """
        if deployment is None:
            deployment = plan.materialize()
        elif deployment.model is not plan.model:
            raise ValueError("deployment.model must be the plan's model")
        if "sections" in kwargs or "workers_per_tier" in kwargs:
            raise ValueError(
                "from_plan derives sections and workers_per_tier from the "
                "plan; construct the fabric directly to override them"
            )
        sections = build_tier_sections(deployment, plan=plan)
        kwargs.setdefault("slo_s", plan.slo_s)
        fabric = cls(
            deployment,
            thresholds,
            workers_per_tier=list(plan.worker_counts()),
            sections=sections,
            **kwargs,
        )
        fabric.plan = plan
        if plan.autoscaled:
            fabric.enable_autoscaling(plan.autoscale_policies())
        return fabric

    # ------------------------------------------------------------------ #
    def submit(
        self,
        views: np.ndarray,
        client_id: str = "default",
        target: Optional[int] = None,
        at: Optional[float] = None,
        slo_s: Optional[float] = None,
    ) -> int:
        """Schedule one sample's arrival at the device tier; returns its id."""
        return self.submit_many(
            [views], client_id=client_id, targets=[target], at=at, slo_s=slo_s
        )[0]

    def submit_many(
        self,
        views_list: Sequence[np.ndarray],
        client_id: str = "default",
        targets: Optional[Sequence[Optional[int]]] = None,
        at: Optional[float] = None,
        slo_s: Optional[float] = None,
    ) -> List[int]:
        """Schedule a group of samples arriving together (one batch-forming event).

        Samples submitted together enter the device-tier queue in one event,
        so a replay of a whole dataset at time zero forms full micro-batches
        instead of one degenerate batch per arrival.

        ``slo_s`` stamps each request with an end-to-end
        :class:`~repro.serving.resilience.Deadline` whose budget starts at
        submit time; ``None`` falls back to the fabric-wide default.  The
        deadline travels with the request across tiers — and across
        replicas when a hedge wins.
        """
        # The whole call is validated before any id, counter or timer moves.
        when = self.clock.now if at is None else _finite("at", at)
        slo = self.slo_s if slo_s is None else _finite("slo_s", slo_s, positive=True)
        if targets is None:
            targets = [None] * len(views_list)
        if len(targets) != len(views_list):
            raise ValueError("targets must align with views_list")
        checked = [
            (checked_views(self.model, views), None if target is None else int(target))
            for views, target in zip(views_list, targets)
        ]
        requests = []
        for views, target in checked:
            request = FabricRequest(
                request_id=self._ids.take(),
                client_id=client_id,
                views=views,
                target=target,
                submit_time=when,
                payload=views,
            )
            if slo is not None:
                request.deadline = Deadline.from_slo(slo, when)
                # Daemon: an expiry timer retires the request if it is still
                # sitting in a queue at its budget, but never keeps an
                # otherwise-finished run alive.
                request.expiry_handle = self.events.schedule(
                    request.deadline.expires_at,
                    lambda now, r=request: self._expire(r, now),
                    daemon=True,
                )
            self.offered += 1
            requests.append(request)
        self.events.schedule(
            when, lambda now: self._arrive(0, requests, now, fresh=True)
        )
        return [request.request_id for request in requests]

    def _arrive(
        self,
        tier_index: int,
        requests: Sequence[FabricRequest],
        now: float,
        fresh: bool = False,
    ) -> None:
        """Queue ``requests``, each with its ``payload`` set, at one tier."""
        admitted = 0
        for request in requests:
            # A request whose SLO expired on the way here is retired
            # instead of queued (or, at the ingress, before it knocks).
            if (
                request.deadline is not None
                and request.deadline.expired(now)
                and self._can_retire(request)
            ):
                self._answer_early(request, now, AnswerReason.DEADLINE)
                continue
            if fresh:
                # Ingress admission: only brand-new tier-0 arrivals knock;
                # offloads from lower tiers and repartition requeues are
                # already inside the system and bypass the policy.
                admitted += self._admit(request, now)
            else:
                self._enqueue(tier_index, request, now)
                admitted += 1
        if self.autoscaler is not None and admitted:
            self.autoscaler.observe_arrival(tier_index, now, count=admitted)
        self._dispatch(tier_index, now)
        self._arm_wait_timer(tier_index, now)

    def _arm_wait_timer(self, tier_index: int, now: float) -> None:
        """Dispatch the tier again ``max_wait_s`` from now, when a partial
        batch is left waiting in its queue."""
        tier = self.tiers[tier_index]
        if tier.queue and not self._draining and tier.policy.max_wait_s > 0.0:
            self.events.schedule(
                now + tier.policy.max_wait_s,
                lambda fire_time: self._dispatch(tier_index, fire_time),
            )

    def _admit(self, request: FabricRequest, now: float) -> int:
        """Offer one fresh arrival to the bounded device-tier queue.

        :func:`~repro.serving.admission.admit` decides and counts: accepted
        requests enqueue, rejected ones vanish with a counter, shed ones
        are answered immediately from the first exit.  A drop-oldest victim
        leaves the system entirely, so its expiry timer (if any) is
        cancelled.
        Returns the number of requests enqueued (0 or 1).
        """
        outcome, evicted = admit(
            self.tiers[0].queue, self.capacity, self.admission, self.admission_stats
        )
        if outcome is AdmissionOutcome.REJECTED:
            return 0
        if outcome is AdmissionOutcome.SHED:
            self._answer_early(request, now, AnswerReason.SHED)
            return 0
        if evicted is not None:
            _unqueue(evicted)
        self._enqueue(0, request, now)
        return 1

    def _enqueue(self, tier_index: int, request: FabricRequest, now: float) -> None:
        """Queue a request at one tier, recording when and where so its
        expiry timer can surgically retire it from the queue."""
        request.queued_at = now
        request.queued_in = (self, tier_index)
        self.tiers[tier_index].queue.append(request)

    def _require_first_exit(self, reason: AnswerReason) -> int:
        exit_index = self.sections[0].exit_index
        if exit_index is None:
            raise RuntimeError(
                "admission wants to shed to the first exit, but the active "
                "plan disables the device tier's exit — use a reject/"
                "drop-oldest policy, or keep the local exit in the plan"
                if reason == AnswerReason.SHED
                else "an offload gave up (retry budget spent or breaker open) before "
                "its requests cleared any exit, and the active plan disables "
                "the device tier's exit: nothing to fail over to — keep the "
                "local exit, or give RetryPolicy a deadline_s the uplink can meet"
            )
        return exit_index

    def _answer_early(
        self, request: FabricRequest, now: float, reason: AnswerReason, batch_size: int = 1
    ) -> None:
        """Answer ``request`` now for ``reason`` from the deepest exit decision
        it cleared (``request.fallback``, taken in a batch of ``batch_size``).
        One that cleared none is evaluated alone at the first exit on the
        model's own compiled plan, with no hierarchy byte or latency charged."""
        if request.fallback is not None:
            self._finalize(
                request, now, *request.fallback, reason=reason, batch_size=batch_size
            )
            return
        _require_unanswered(request)  # an answer cleared the views
        exit_index = self._require_first_exit(reason)
        logits = compiled_plan_for(self.model).first_exit_logits(request.views[None])
        decision = self.criteria[0].evaluate(logits)
        self._finalize(
            request,
            now,
            decision.predictions[0],
            decision.entropies[0],
            exit_index,
            self.sections[0].exit_name,
            reason=reason,
        )

    # -- end-to-end SLO plane ------------------------------------------- #
    def _finalize(
        self,
        request: FabricRequest,
        now: float,
        prediction,
        entropy,
        exit_index: int,
        exit_name: str,
        reason: AnswerReason = AnswerReason.THRESHOLD,
        batch_size: int = 1,
    ) -> None:
        """Single emission point: every answer path stamps its answer here.

        Enforces the exactly-once invariant (deadline retirement, failover,
        hedging, shedding and normal exits all converge here), disarms the
        expiry timer, drops the input the answer no longer needs, and stamps
        ``deadline_exceeded`` honestly: any answer landing at or past the
        budget is flagged, whatever path produced it.
        """
        _require_unanswered(request)
        _unqueue(request)
        request.views = request.payload = None
        request.prediction = int(prediction)
        request.exit_index = exit_index
        request.exit_name = exit_name
        request.entropy = float(entropy)
        request.completion_time = now
        request.batch_size = batch_size
        request.reason = reason
        request.deadline_exceeded = (
            request.deadline is not None and now >= request.deadline.expires_at
        )
        self.responses.append(request)
        self.reasons[reason.value] += 1

    def _can_retire(self, request: FabricRequest) -> bool:
        """A request can only be retired at its deadline if *something* can
        answer it: the deepest exit it already cleared, or the first exit."""
        return request.fallback is not None or self.sections[0].exit_index is not None

    def _expire(self, request: FabricRequest, now: float) -> None:
        """Deadline timer: retire the request if it is sitting in a tier
        queue (on this fabric or — after a winning hedge — a sibling's)."""
        if request.answered or request.queued_in is None:
            return
        fabric, tier_index = request.queued_in
        if not fabric._can_retire(request):
            return  # nothing to answer from yet; the final answer gets flagged
        try:
            fabric.tiers[tier_index].queue.remove(request)
        except ValueError:
            return  # popped into a batch between scheduling and firing
        fabric._answer_early(request, now, AnswerReason.DEADLINE)

    # ------------------------------------------------------------------ #
    def _dispatch(self, tier_index: int, now: float) -> None:
        if self._paused:
            return
        tier = self.tiers[tier_index]
        while tier.due(now, self._draining):
            worker = tier.pool.acquire(now)
            if worker is None:
                return
            if worker.plans.weights_version != self.model._weights_version:
                # The weights changed since this idle worker got its bundle;
                # a busy one finishes its batch on the old bundle.
                worker.plans = self._worker_bundles(
                    1, {id(other.plans) for other in tier.pool.workers}
                )[0]
            if self.edf and len(tier.queue) > 1:
                # Earliest-deadline-first batch formation: requests with no
                # deadline sort last; ties break on request id so the order
                # is total and deterministic.
                tier.queue = deque(
                    sorted(
                        tier.queue,
                        key=lambda request: (
                            request.deadline.expires_at
                            if request.deadline is not None
                            else math.inf,
                            request.request_id,
                        ),
                    )
                )
            batch: List[FabricRequest] = []
            while tier.queue and len(batch) < tier.policy.max_batch_size:
                request = tier.queue.popleft()
                request.queued_in = None
                if request.deadline is not None and request.deadline.expired(now):
                    if self._can_retire(request):
                        # Retired at batch formation: an expired request
                        # never occupies a compute slot.
                        self._answer_early(request, now, AnswerReason.DEADLINE)
                        continue
                    if tier_index > 0:
                        # Nothing to answer it from: compute anyway, and
                        # count the honesty violation the SLO bench gates on.
                        self.resilience_stats.expired_compute += 1
                batch.append(request)
            if not batch:
                continue
            # Batches form in the buffer of the worker that will run them
            # (a batch of one is a view of its row): raw views at the device
            # tier, (sources, ...) rows of the tier below further up.
            payload = worker.stage(
                [request.payload for request in batch], tier.policy.max_batch_size
            )
            for request in batch:
                request.payload = None  # the staged batch holds what runs
            tier.batches_dispatched += 1
            tier.samples_processed += len(batch)
            self._inflight_batches += 1
            # The pool decides how the work occupies time: simulated slots
            # compute inline and bill the modelled service, thread workers
            # compute on the executor and complete when genuinely done.
            tier.pool.execute(
                worker,
                task=lambda plans, s=tier.section, p=payload: s.process(p, plans),
                service_for=lambda result, t=tier, n=len(batch): t.service_time(
                    n, result.service_s
                ),
                on_complete=lambda result, fire_time, t=tier_index, w=worker, b=batch: (
                    self._complete(t, w, b, result, fire_time)
                ),
            )

    def _complete(
        self,
        tier_index: int,
        worker: WorkerHandle,
        requests: List[FabricRequest],
        result,
        now: float,
    ) -> None:
        self._inflight_batches -= 1
        section = self.sections[tier_index]
        final = tier_index == len(self.tiers) - 1
        batch_size = len(requests)
        latency = result.intake_s + result.compute_s
        for request in requests:
            request.path_latency_s += latency
            request.bytes_transferred += result.intake_bytes

        # The exits the tier holds decide in cascade order: a row leaves at
        # the first whose criterion it meets, and the final tier's last exit
        # takes every row still left.
        exits = section.exits
        decisions = [
            self.criteria[exit_index].evaluate(logits)
            for (exit_index, _), logits in zip(exits, result.logits)
        ]
        predictions = [decision.predictions.tolist() for decision in decisions]
        entropies = [decision.entropies.tolist() for decision in decisions]
        masks = [decision.exit_mask.tolist() for decision in decisions]
        if final:
            masks[-1] = [True] * batch_size

        remaining: List[int] = []
        for row in range(batch_size):
            position = next((p for p, mask in enumerate(masks) if mask[row]), None)
            if position is None:
                remaining.append(row)
                continue
            self._finalize(
                requests[row],
                now,
                predictions[position][row],
                entropies[position][row],
                *exits[position],
                batch_size=batch_size,
            )

        sendable: List[int] = []
        estimate: Optional[float] = None
        for row in remaining:
            request = requests[row]
            # Remember the decision each non-exiting row would fail over or
            # retire to (the deepest exit already cleared).
            if exits:
                request.fallback = (predictions[-1][row], entropies[-1][row], *exits[-1])
            # SLO budget pre-filter: a row whose remaining budget cannot
            # cover even the (conservative, chargeless) transfer estimate is
            # answered locally *before* any bytes hit the wire — an SLO
            # shorter than one link transfer never sends an offload at all.
            if request.deadline is not None and self._can_retire(request):
                if estimate is None:
                    estimate = section.transfer_estimate_s()
                if now + estimate >= request.deadline.expires_at:
                    self._answer_early(
                        request, now, AnswerReason.DEADLINE, batch_size=batch_size
                    )
                    continue
            sendable.append(row)
        if sendable:
            # The rows travel (and are retried, and hedged) as one
            # message-group whose budget is the earliest member deadline, so
            # the next tier sees them as one batch-forming event.
            members = [requests[row] for row in sendable]
            group = _OffloadGroup(
                origin=tier_index,
                requests=members,
                rows=np.asarray(sendable, dtype=np.int64),
                carry=result.carry,
                expires_at=min(
                    (
                        request.deadline.expires_at
                        for request in members
                        if request.deadline is not None
                    ),
                    default=math.inf,
                ),
            )
            self._offload_attempt(group, now)

        self.tiers[tier_index].pool.release(worker, now)
        if self.autoscaler is not None:
            self.autoscaler.observe(self, now)
        if self._paused and self._pending_plan is not None and self._inflight_batches == 0:
            # Deferred handoff: the last in-flight batch just landed, so the
            # drain barrier is satisfied — swap the plan in now.  The report
            # is published on ``last_repartition`` (apply_plan already
            # returned ``None`` to its caller).
            self._handoff(now)
            return
        self._dispatch(tier_index, now)

    # -- offloads: deadline, retry/backoff, hedging, failover ----------- #
    def _settle(self, group: _OffloadGroup) -> None:
        """Mark a group decided and disarm every timer racing for it."""
        group.settled = True
        for handle in (
            group.delivery_handle,
            group.timeout_handle,
            group.resend_handle,
            group.hedge_timer,
        ):
            if handle is not None:
                handle.cancel()
        group.delivery_handle = None
        group.timeout_handle = None
        group.resend_handle = None
        group.hedge_timer = None
        for handle in group.hedge_deliveries:
            handle.cancel()
        group.hedge_deliveries.clear()

    def _send(
        self,
        group: _OffloadGroup,
        via: "DistributedServingFabric",
        now: float,
        on_arrival,
        *args,
    ) -> Optional[EventHandle]:
        """Transmit the group's rows over ``via``'s uplink (this fabric's, or
        a hedge sibling's: the copy rides the sibling's links and chaos).

        Every send genuinely transmits — bytes and transfer seconds are
        charged to the links and the requests, so retries and hedges are
        never free.  Returns the scheduled arrival — ``on_arrival(group,
        *args, fire_time)`` after the group's transfer delay — or ``None``
        if the link lost the message.
        """
        origin = via.tiers[group.origin]
        transfer = origin.section.offload(group.carry, group.rows)
        for request in group.requests:
            request.path_latency_s += transfer.delay_s
            request.bytes_transferred += transfer.bytes
        if via is not self:
            # Exactly the sum over the rows: every byte count is a multiple
            # of 1/8 B (4|C| is whole bytes, f*o/8 whole eighths), so sums
            # and products of them are exact in any order.
            self.hedge_bytes += transfer.bytes * len(group.requests)
        if not via.deployment.fabric.delivery(
            origin.name, via.tiers[group.origin + 1].name, now
        ):
            return None
        # Each row travels as its (sources, ...) view of the carry.
        features = transfer.features
        for request, row in zip(group.requests, group.rows.tolist()):
            request.payload = features[row]
        return self.events.schedule(
            now + transfer.delay_s,
            lambda fire_time: on_arrival(group, *args, fire_time),
        )

    def _arm_attempt_timer(self, group: _OffloadGroup, now: float) -> None:
        """Give the current attempt its deadline, clipped to the group's
        end-to-end budget (waiting past it helps nobody).  A policy that
        cannot time out arms nothing: an event at ``t = inf`` would keep the
        loop alive and drag the simulated clock there, and its offloads are
        not failed over at their SLO either — the real answer lands late."""
        policy = self.offload_policy
        if not policy.can_time_out:
            return
        group.timeout_handle = self.events.schedule(
            min(now + policy.deadline_s, group.expires_at),
            lambda fire_time, g=group, a=group.attempts: (
                self._offload_timeout(g, a, fire_time)
            ),
        )

    def _offload_attempt(self, group: _OffloadGroup, now: float) -> None:
        """Send (or re-send) one offload group under the deadline policy."""
        if group.settled:
            # A hedge win (or deadline retirement) landed during the backoff
            # that scheduled this re-send; re-sending — or worse, failing
            # over — a settled group would answer its requests twice.
            return
        group.resend_handle = None
        origin = self.tiers[group.origin]
        target = self.tiers[group.origin + 1]
        if not self.breaker_for(origin.name, target.name).allow(now):
            # Fast-fail: the link is known-dark; answer locally without
            # burning a deadline + backoff ladder on it — unless a sibling
            # replica can take a hedge copy right now, in which case the
            # hedge (guarded by the usual attempt timeout) owns delivery.
            self.resilience_stats.breaker_fast_fails += 1
            if self._fire_hedge(group, now):
                group.attempts += 1
                group.delivery_handle = None
                self._arm_attempt_timer(group, now)
            else:
                self._failover(group, now)
            return
        group.attempts += 1
        self.resilience_stats.attempts += 1
        group.delivery_handle = self._send(
            group, self, now, self._offload_delivered, group.attempts
        )
        self._arm_attempt_timer(group, now)
        if (
            group.attempts == 1
            and self.hedge_policy is not None
            and self.hedge_router is not None
            and group.expires_at < math.inf
        ):
            self._arm_hedge_timer(group, now)

    def _arm_hedge_timer(self, group: _OffloadGroup, now: float) -> None:
        """Arm the speculative re-send: fire once ``trigger_fraction`` of
        the remaining budget elapses without a delivery settling the group."""
        policy = self.hedge_policy
        assert policy is not None
        if group.hedge_count >= policy.max_hedges:
            return
        budget = group.expires_at - now
        if budget <= 0.0:
            return
        group.hedge_timer = self.events.schedule(
            now + policy.trigger_fraction * budget,
            lambda fire_time, g=group: self._hedge_due(g, fire_time),
        )

    def _hedge_due(self, group: _OffloadGroup, now: float) -> None:
        group.hedge_timer = None
        if group.settled:
            return
        if self._fire_hedge(group, now):
            # Further copies (if the policy allows them) trigger at the same
            # fraction of whatever budget then remains.
            self._arm_hedge_timer(group, now)

    def _fire_hedge(self, group: _OffloadGroup, now: float) -> bool:
        """Speculatively re-send the group to a sibling replica stack.

        First arrival — original or any hedge — wins; the rest are
        cancelled.  Returns True when a copy was actually sent.
        """
        policy = self.hedge_policy
        if policy is None or self.hedge_router is None:
            return False
        if group.settled or group.hedge_count >= policy.max_hedges:
            return False
        if group.expires_at <= now:
            return False
        sibling = self.hedge_router(self, group.origin)
        if sibling is None:
            return False
        group.hedge_count += 1
        self.resilience_stats.hedges += 1
        handle = self._send(group, sibling, now, self._hedge_delivered, sibling)
        if handle is not None:
            group.hedge_deliveries.append(handle)
        return True

    def _hedge_delivered(
        self,
        group: _OffloadGroup,
        sibling: "DistributedServingFabric",
        now: float,
    ) -> None:
        """A hedge copy reached the sibling's next tier first: it wins."""
        if group.settled:
            # The original (or an earlier hedge) got there first.
            self.resilience_stats.late_deliveries += 1
            return
        self._settle(group)
        self.resilience_stats.hedge_wins += 1
        for request in group.requests:
            request.hedged = True
        sibling._arrive(group.origin + 1, group.requests, now)

    def _offload_delivered(
        self,
        group: _OffloadGroup,
        attempt: int,
        now: float,
    ) -> None:
        """An offload group's payload reached the next tier."""
        if group.settled or attempt != group.attempts:
            # The deadline (or a failover/hedge) already retired this
            # attempt; delivering it now would duplicate requests downstream.
            self.resilience_stats.late_deliveries += 1
            return
        self._settle(group)
        origin = self.tiers[group.origin]
        target = self.tiers[group.origin + 1]
        self.breaker_for(origin.name, target.name).record_success(now)
        self._arrive(group.origin + 1, group.requests, now)

    def _offload_timeout(self, group: _OffloadGroup, attempt: int, now: float) -> None:
        """An offload attempt's deadline expired before its arrival landed."""
        if group.settled or attempt != group.attempts:
            return
        policy = self.offload_policy
        if group.delivery_handle is not None:
            # The transfer was slower than the deadline: treat the payload
            # as lost (the re-send, not this straggler, now owns delivery).
            group.delivery_handle.cancel()
            group.delivery_handle = None
        self.resilience_stats.timeouts += 1
        origin = self.tiers[group.origin]
        target = self.tiers[group.origin + 1]
        self.breaker_for(origin.name, target.name).record_failure(now)
        if group.attempts > policy.max_retries:
            self._failover(group, now)
            return
        backoff = policy.backoff_s(group.attempts, self._retry_rng)
        if group.expires_at < math.inf:
            # Clip the ladder to the remaining end-to-end budget: a re-send
            # that cannot possibly land before the group's earliest deadline
            # is never sent — fail over (or let a live hedge win) instead.
            resend_lands = now + backoff + origin.section.transfer_estimate_s()
            if resend_lands >= group.expires_at:
                self.resilience_stats.clipped_retries += 1
                self._failover(group, now)
                return
        self.resilience_stats.retries += 1
        for request in group.requests:
            request.retries += 1
        group.resend_handle = self.events.schedule(
            now + backoff,
            lambda fire_time, g=group: self._offload_attempt(g, fire_time),
        )

    def _failover(self, group: _OffloadGroup, now: float) -> None:
        """The origin's own attempts gave up: answer every request of the
        group from its local exit — unless a hedge copy is still in flight,
        which then owns delivery (failing over now would cancel an arrival
        that is about to win; its scheduled delivery settles the group)."""
        if any(not handle.cancelled for handle in group.hedge_deliveries):
            return
        self._settle(group)
        for request in group.requests:
            self._answer_early(
                request, now, AnswerReason.FAILOVER, batch_size=len(group.requests)
            )

    # ------------------------------------------------------------------ #
    def apply_plan(
        self, new_plan: PartitionPlan, now: Optional[float] = None
    ) -> Optional[RepartitionReport]:
        """Re-partition the live fabric: drain in-flight batches, then swap.

        The handoff protocol:

        1. **Pause** — every tier stops forming new batches (queued requests
           stay exactly where they are; arrivals keep enqueueing).
        2. **Drain** — batches already on workers run to completion and
           their rows exit or offload normally under the *old* plan.
        3. **Swap** — tier sections are rebuilt from ``new_plan`` (moving
           the exit boundary), links and node speeds are retuned in place
           (stats survive), and each tier's worker pool is resized.
        4. **Resume** — dispatch restarts; every queued request is served
           under the new plan, none dropped, none duplicated.

        Returns the :class:`RepartitionReport` when the swap happened
        synchronously (no batches were in flight); returns ``None`` when
        the drain barrier deferred it, in which case the report lands on
        :attr:`last_repartition` once the last in-flight batch completes.
        """
        if new_plan.model is not self.model:
            raise ValueError("apply_plan requires a plan for this fabric's model")
        if new_plan.num_tiers != len(self.tiers):
            raise ValueError(
                f"plan describes {new_plan.num_tiers} tiers but the fabric "
                f"runs {len(self.tiers)} — adding/removing the edge tier "
                "needs a new fabric, not a live re-partition"
            )
        new_plan.validate()
        if self.chaos is not None:
            self._check_link_chaos(self.chaos, new_plan.resolved_local_exit())
        if self._pending_plan is not None:
            raise RuntimeError("a re-partition is already in progress")
        when = self.clock.now if now is None else float(now)
        self._pending_plan = new_plan
        self._paused = True
        if self._inflight_batches == 0:
            return self._handoff(when)
        return None

    def _handoff(self, now: float) -> RepartitionReport:
        """Execute the plan swap (drain barrier already satisfied)."""
        plan = self._pending_plan
        assert plan is not None and self._inflight_batches == 0
        self._pending_plan = None

        requeued_ids = {
            tier.name: tuple(request.request_id for request in tier.queue)
            for tier in self.tiers
        }

        # Rebuild the sections at the new boundary.  The fault plan carries
        # over from the running sections so behaviour other than the
        # boundary is unchanged.
        new_sections = build_tier_sections(
            self.deployment, fault_plan=self.sections[0].fault_plan, plan=plan
        )
        if new_sections[-1].exit_index is None:
            raise ValueError("the final tier must carry the cascade's final exit")
        plan.retune_links(self.deployment)
        plan.retune_nodes(self.deployment)

        counts = list(plan.worker_counts())
        workers_per_tier: Dict[str, int] = {}
        for index, (tier, section) in enumerate(zip(self.tiers, new_sections)):
            tier.section = section
            workers_per_tier[tier.name] = self._resize_tier(index, counts[index], now)
        self.sections = list(new_sections)
        self.plan = plan
        if self.autoscaler is not None and plan.autoscaled:
            self.autoscaler.reconfigure(plan.autoscale_policies())

        self._paused = False
        report = RepartitionReport(
            time=now,
            requeued_ids=requeued_ids,
            workers_per_tier=workers_per_tier,
        )
        self.last_repartition = report
        # Resume: re-dispatch every tier and re-arm the wait timers (the
        # pause may have swallowed timer firings).
        for index in range(len(self.tiers)):
            self._dispatch(index, now)
            self._arm_wait_timer(index, now)
        return report

    def _worker_bundles(self, count: int, in_use=()) -> List[object]:
        """Compiled ``"float64"`` bundles for ``count`` workers, on
        the model's current weights (:meth:`_dispatch` re-binds a worker
        whose bundle is older).

        Simulated workers run every forward inline on the event loop's
        thread, one at a time, and a deployment is single-threaded state
        (simulated fabrics over one deployment must not be driven from
        different threads: they would write the same arenas), so
        every simulated worker over one deployment — of this fabric and of
        every fabric built on it, e.g. each run of a
        :class:`~repro.hierarchy.runtime.HierarchyRuntime` — shares the
        deployment's one bundle.  Replicas each own a
        deployment, so each holds its own bundle.
        Thread workers compute concurrently: each *slot* gets a bundle of
        its own, none of those the tier's workers already hold (``in_use``:
        their ids), from one pool that tiers share (tier t's
        worker w runs only its bundle's tier-t plans), holds only bundles
        of the current weights and adds one only when it runs out.  No
        bundle is compiled here: each shares the ops of the model's plan
        (:func:`~repro.compile.cache.compiled_plan_for`) and owns only its
        arenas, program caches and timing counters
        (:meth:`~repro.compile.ddnn.CompiledDDNN.with_own_buffers`).
        """
        if self.backend == "simulated":
            return [self.deployment._bundle()] * count
        version = self.model._weights_version
        pool = self._bundles = [
            bundle for bundle in self._bundles if bundle.weights_version == version
        ]
        spare = [bundle for bundle in pool if id(bundle) not in in_use]
        while len(spare) < count:
            pool.append(compiled_plan_for(self.model).with_own_buffers())
            spare.append(pool[-1])
        return spare[:count]

    def _resize_tier(self, tier_index: int, num_workers: int, now: float) -> int:
        """Resize one tier's worker pool; returns the actual size (added
        workers get bundles from :meth:`_worker_bundles`)."""
        tier = self.tiers[tier_index]
        current = len(tier.pool)
        if num_workers > current:
            in_use = {id(worker.plans) for worker in tier.pool.workers}
            added = self._worker_bundles(num_workers - current, in_use)
            actual = tier.pool.resize(num_workers, now, worker_plans=added)
        else:
            actual = tier.pool.resize(num_workers, now)
        if not self._paused:
            self._dispatch(tier_index, now)
        return actual

    def enable_autoscaling(self, policies) -> "DistributedServingFabric":
        """Attach an :class:`~repro.serving.autoscale.Autoscaler` driven by
        the given per-tier policies (single policy broadcasts)."""
        from .autoscale import Autoscaler

        self.autoscaler = Autoscaler(self, policies)
        return self

    def close(self) -> None:
        """Shut down the worker pools (joins executor threads); idempotent.

        Only the thread backend holds OS resources, but closing is always
        safe — ``with DistributedServingFabric(...) as fabric:`` works for
        either backend.
        """
        for tier in self.tiers:
            tier.pool.shutdown()

    def __enter__(self) -> "DistributedServingFabric":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def run_until_idle(
        self, max_events: Optional[int] = None, drain: bool = False
    ) -> List[FabricRequest]:
        """Fire every scheduled event; returns the kept responses so far.

        On the thread backend this also waits (in real time) for in-flight
        worker forwards to land — the loop only goes idle once the queue is
        empty *and* nothing is outstanding on the executor.  ``drain=True``
        force-dispatches partial batches for the duration of the run (the
        batching policy's size cap still applies), exactly like
        :meth:`serve_dataset` does.
        """
        previous = self._draining
        self._draining = self._draining or drain
        try:
            self.events.run(max_events=max_events)
        finally:
            self._draining = previous
        return self.responses

    def serve_dataset(
        self, dataset: MVMCDataset, client_id: str = "default", at: Optional[float] = None
    ) -> List[FabricRequest]:
        """Replay a dataset at infinite arrival rate; one response per sample,
        in sample order.

        Every sample arrives at once and batches are force-drained (the
        batching policy's size cap still applies), which is exactly the
        offline hierarchy-runtime regime.  The answers are handed back, not
        kept in :attr:`responses`, so repeated replays on one fabric hold no
        history.  A bounded ingress that turns samples away (``reject``,
        ``drop-oldest``) breaks the one-per-sample contract and raises
        ``ValueError``; serve such a burst with :meth:`submit_many` and
        :meth:`run_until_idle` instead.
        """
        first_id = self._ids.next
        start = len(self.responses)
        self.submit_many(
            [dataset.images[index] for index in range(len(dataset))],
            client_id=client_id,
            targets=[int(label) for label in dataset.labels],
            at=at,
        )
        self.run_until_idle(drain=True)
        tail = self.responses[start:]
        mine = sorted(
            (r for r in tail if r.request_id >= first_id), key=lambda response: response.request_id
        )
        self.responses[start:] = [r for r in tail if r.request_id < first_id]
        if len(mine) != len(dataset):
            raise ValueError(
                f"serve_dataset answered {len(mine)} of {len(dataset)} samples: the bounded "
                f"ingress (capacity={self.capacity}, admission={self.admission.name!r}) "
                "turned the rest away"
            )
        return mine

    def open_loop(
        self,
        process: ArrivalProcess,
        views: np.ndarray,
        targets: Optional[Sequence[int]] = None,
        num_requests: int = 100,
        clients: Sequence[str] = ("client-0",),
    ) -> FabricReport:
        """Drive the fabric with an open-loop arrival process; returns a report.

        Arrivals are generated lazily (each arrival event schedules the
        next), samples are cycled through ``views`` in arrival order, and
        the run ends when the last admitted request completes.
        """
        if num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {num_requests}")
        views = np.asarray(views)
        if views.ndim != 5:
            raise ValueError(
                f"views must have shape (num_samples, num_devices, C, H, W), got {views.shape}"
            )
        if targets is not None and len(targets) != len(views):
            raise ValueError("targets must align with views")
        if not clients:
            raise ValueError("at least one client id is required")
        arrivals = iter(process)
        first_id = self._ids.next
        start = len(self.responses)
        started = self.clock.now

        def _next_arrival(count: int) -> None:
            if count >= num_requests:
                return
            when = next(arrivals, None)
            if when is None:
                return
            index = count % len(views)
            self.submit_many(
                [views[index]],
                client_id=clients[count % len(clients)],
                targets=[None if targets is None else int(targets[index])],
                at=max(when, self.clock.now),
            )
            self.events.schedule(
                max(when, self.clock.now), lambda now, c=count + 1: _next_arrival(c)
            )

        _next_arrival(0)
        self.run_until_idle()
        mine = [r for r in self.responses[start:] if r.request_id >= first_id]
        return self.report(mine, duration_s=self.clock.now - started)

    # ------------------------------------------------------------------ #
    def report(
        self, responses: Optional[Sequence[FabricRequest]] = None, duration_s: Optional[float] = None
    ) -> FabricReport:
        """Summarise latency tails, offload fraction and accuracy."""
        responses = list(self.responses if responses is None else responses)
        duration = (
            (self.clock.now - self._started_at) if duration_s is None else float(duration_s)
        )
        if not responses:
            return FabricReport(
                served=0,
                duration_s=duration,
                offload_fraction=0.0,
                exit_fractions={},
                hedge_total=self.resilience_stats.hedges,
                hedge_bytes=self.hedge_bytes,
                metadata=self.report_metadata(),
            )
        latencies = np.array([response.latency_s for response in responses])
        exit_counts = Counter(response.exit_name for response in responses)
        reasons = {**_no_reasons(), **Counter(response.reason.value for response in responses)}
        total = len(responses)
        first_exit = self.sections[0].exit_name
        offload_fraction = 1.0 - exit_counts.get(first_exit, 0) / total
        judged = [response.correct for response in responses if response.correct is not None]
        return FabricReport(
            served=total,
            duration_s=duration,
            offload_fraction=offload_fraction,
            exit_fractions={name: count / total for name, count in exit_counts.items()},
            mean_latency_s=float(latencies.mean()),
            p50_latency_s=float(np.percentile(latencies, 50)),
            p95_latency_s=float(np.percentile(latencies, 95)),
            p99_latency_s=float(np.percentile(latencies, 99)),
            max_latency_s=float(latencies.max()),
            mean_bytes=float(
                np.mean([response.bytes_transferred for response in responses])
            ),
            accuracy=float(np.mean(judged)) if judged else None,
            reasons=reasons,
            retry_total=sum(r.retries for r in responses),
            deadline_exceeded_fraction=(
                sum(1 for r in responses if r.deadline_exceeded) / total
            ),
            hedge_total=self.resilience_stats.hedges,
            hedge_win_fraction=(
                self.resilience_stats.hedge_wins / self.resilience_stats.hedges
                if self.resilience_stats.hedges
                else 0.0
            ),
            hedge_bytes=self.hedge_bytes,
            metadata=self.report_metadata(),
            responses=responses,
        )

    def report_metadata(self) -> Dict[str, object]:
        """Uniform observability block surfaced on every report: resilience
        counters (retries, failovers, deadline/hedge counts, ...), admission
        accounting, and per-link breaker state + transition counts."""
        return {
            "resilience": self.resilience_stats.report(self.reasons),
            "admission": self.admission_stats.as_dict(),
            "breakers": {
                f"{origin}->{target}": {
                    "state": breaker.state.value,
                    "transitions": breaker.transitions,
                }
                for (origin, target), breaker in sorted(self.breakers.items())
            },
        }
