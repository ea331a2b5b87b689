"""``repro.serving`` — online inference over the DDNN exit cascade.

The paper frames DDNN as a serving system: end devices stream samples
upward, most requests exit at the local aggregator, and the cloud only sees
the hard tail.  This package provides the timed, online counterpart of the
untimed :meth:`ExitOracle.route <repro.core.oracle.ExitOracle.route>`:

* :class:`FabricRequest` / :class:`FabricResponse` — the one request and
  the one response type every serving path queues and answers with, each
  answer for one :class:`AnswerReason` (counted in ``FabricReport.reasons``);
* :class:`AdmissionPolicy` (:class:`RejectNewest`, :class:`DropOldest`,
  :class:`ShedToLocalExit`) and the one :func:`admit` rule — what a full
  ingress queue does under overload;
* :class:`BatchingPolicy` — dynamic micro-batching with ``max_batch_size``
  and ``max_wait_s`` knobs, and the one :meth:`BatchingPolicy.due` trigger;
* arrival processes (:class:`PoissonProcess`, :class:`DiurnalProcess`)
  and :class:`ServiceModel` — the inputs of deterministic open-loop
  studies (:meth:`DistributedServingFabric.open_loop`) on a
  :class:`SimulatedClock`;
* :class:`DistributedServingFabric` — the tier-aware distributed runtime:
  an :class:`EventLoop`-driven fabric of :class:`TierServer`s (N workers
  per tier, per-worker compiled plans) where offloads cross
  :class:`~repro.hierarchy.network.NetworkFabric` links with simulated
  transfer delay, with optional :class:`AdaptiveThreshold` shedding.
  :class:`~repro.hierarchy.runtime.HierarchyRuntime` is its offline replay,
  and :class:`DDNNServer` the same fabric over one whole-cascade tier with
  one worker (the single-box server);
* :class:`WorkerPool` backends (:class:`SimulatedWorkerPool`,
  :class:`ThreadPoolWorkerPool`) — how the fabric's tier workers occupy
  time: deterministic simulated slots (the paper-table default) or real
  :class:`~concurrent.futures.ThreadPoolExecutor` threads running
  per-worker compiled plan bundles against a :class:`WallClock`, turning
  the same serving script into a wall-clock-concurrent fabric.
* The elastic tier plane: fabrics built from a mutable
  :class:`~repro.hierarchy.plan.PartitionPlan`
  (:meth:`DistributedServingFabric.from_plan`), re-partitioned live via
  :meth:`~DistributedServingFabric.apply_plan` (drain-and-handoff,
  :class:`RepartitionReport`), scaled by an :class:`Autoscaler` driven by
  :class:`~repro.hierarchy.plan.AutoscalePolicy` watermarks, and
  replicated behind a :class:`LoadBalancer`.
* The runtime fault plane: a :class:`~repro.hierarchy.faults.ChaosSchedule`
  injects timed link outages/flaps, message loss and worker crash windows;
  offloads under a :class:`RetryPolicy` carry deadlines, retry with
  exponential backoff + jitter, and fail over to the deepest local exit
  already cleared (honest ``reason="failover"``/``retries``), with a
  per-link :class:`CircuitBreaker` fast-failing known-dark links and tier
  health feeding the :class:`LoadBalancer`.
* The end-to-end SLO plane: a :class:`Deadline` budget travels with every
  request across tiers — expired requests are retired from queues before
  burning compute (``reason="deadline"``), retry ladders are clipped to the remaining budget, and
  a :class:`HedgePolicy` speculatively re-sends slow offloads to sibling
  replica stacks (first arrival wins, losers cancelled, hedge bytes
  honestly accounted).

* :mod:`~repro.serving.invariants` — the gates all of the above are held
  to (exactly-once, admission conservation, no compute on expired work,
  byte-identical seeded replay), one copy for experiments and tests alike.

All timing flows through an injectable clock, so scheduling behaviour is
deterministic under test while real deployments use wall time.
"""

from .admission import (
    ADMISSION_POLICIES,
    AdmissionOutcome,
    AdmissionPolicy,
    AdmissionStats,
    DropOldest,
    RejectNewest,
    ShedToLocalExit,
    admission_policy,
    admit,
)
from .autoscale import Autoscaler, RateTracker
from .balancer import BALANCER_STRATEGIES, LoadBalancer
from .batcher import BatchingPolicy
from .clock import EventHandle, EventLoop, SimulatedClock, WallClock
from .fabric import (
    AdaptiveThreshold,
    AnswerReason,
    DistributedServingFabric,
    FabricReport,
    FabricRequest,
    FabricResponse,
    RepartitionReport,
    TierServer,
)
from .loadgen import (
    ArrivalProcess,
    DiurnalProcess,
    PoissonProcess,
    ServiceModel,
)
from .resilience import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    HedgePolicy,
    ResilienceStats,
    RetryPolicy,
)
from .server import DDNNServer
from .workers import (
    WORKER_POOL_BACKENDS,
    SimulatedWorkerPool,
    ThreadPoolWorkerPool,
    WorkerHandle,
    WorkerPool,
    make_worker_pool,
)

__all__ = [
    "AdmissionOutcome",
    "AdmissionStats",
    "AdmissionPolicy",
    "RejectNewest",
    "DropOldest",
    "ShedToLocalExit",
    "ADMISSION_POLICIES",
    "admission_policy",
    "admit",
    "BatchingPolicy",
    "DDNNServer",
    "SimulatedClock",
    "WallClock",
    "EventLoop",
    "EventHandle",
    "RetryPolicy",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "HedgePolicy",
    "ResilienceStats",
    "WorkerPool",
    "WorkerHandle",
    "SimulatedWorkerPool",
    "ThreadPoolWorkerPool",
    "WORKER_POOL_BACKENDS",
    "make_worker_pool",
    "AdaptiveThreshold",
    "AnswerReason",
    "DistributedServingFabric",
    "FabricRequest",
    "FabricResponse",
    "FabricReport",
    "RepartitionReport",
    "TierServer",
    "Autoscaler",
    "RateTracker",
    "LoadBalancer",
    "BALANCER_STRATEGIES",
    "ArrivalProcess",
    "PoissonProcess",
    "DiurnalProcess",
    "ServiceModel",
]
