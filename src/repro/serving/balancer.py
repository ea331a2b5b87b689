"""Load balancing across replicated tier stacks.

A :class:`~repro.hierarchy.plan.PartitionPlan` with ``replicas > 1``
describes several identical device→[edge]→cloud stacks serving the same
trained model.  :class:`LoadBalancer` stamps those stacks out (one
:class:`~repro.serving.fabric.DistributedServingFabric` per replica, each
over its own freshly-materialised deployment — the *model* is shared, the
simulator state is not) and routes incoming work across them:

* ``"round-robin"`` — strict rotation, oblivious to load;
* ``"least-loaded"`` — each submission goes to the replica with the
  smallest outstanding load (submitted but unanswered requests: queued,
  in-flight, or still on a scheduled arrival event), ties broken by lowest
  replica index so routing is deterministic.

Routing is **health-aware**: a replica whose fabric reports unhealthy
(any tier with zero online workers — e.g. a
:class:`~repro.hierarchy.faults.WorkerCrash` blackout window), or one
manually marked down with :meth:`LoadBalancer.mark_down`, is excluded
from :meth:`~LoadBalancer.pick` until it recovers.  When *every* replica
is down, submission raises a clear :class:`RuntimeError` instead of
routing work into a black hole (or crashing with an index error).

Replicas are independent discrete-event simulations; the balancer only
decides *where* work enters.  ``run_until_idle`` drains every replica and
merges their responses.

**Hedged offloads** change one thing: replicas stop being independent
timelines.  When a plan (or caller) carries a
:class:`~repro.serving.resilience.HedgePolicy`, :meth:`LoadBalancer.from_plan`
builds every replica over ONE shared :class:`~repro.serving.clock.EventLoop`
and :meth:`enable_hedging` unifies their request-id source and wires each
fabric's ``hedge_router`` back to :meth:`_hedge_sibling` — so a slow offload
on one stack can race a speculative copy on a sibling stack, first arrival
wins, and the merged response stream stays globally unique.  A hedge win
lands its response on the *sibling's* ledger; use :meth:`report` for the
fleet-honest view.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.cascade import Thresholds
from ..hierarchy.plan import PartitionPlan
from .admission import AdmissionStats
from .clock import EventLoop, WallClock
from .fabric import DistributedServingFabric, FabricReport, FabricRequest
from .resilience import HedgePolicy, ResilienceStats

__all__ = ["LoadBalancer", "BALANCER_STRATEGIES"]

BALANCER_STRATEGIES = ("round-robin", "least-loaded")


class LoadBalancer:
    """Route submissions across replica fabrics serving the same model."""

    def __init__(
        self,
        replicas: Sequence[DistributedServingFabric],
        strategy: str = "round-robin",
    ) -> None:
        if not replicas:
            raise ValueError("at least one replica fabric is required")
        if strategy not in BALANCER_STRATEGIES:
            raise ValueError(
                f"unknown strategy '{strategy}' (choose from {BALANCER_STRATEGIES})"
            )
        self.replicas = list(replicas)
        self.strategy = strategy
        #: Submissions routed to each replica, by index.
        self.assignments: List[int] = [0] * len(self.replicas)
        self._cursor = 0
        self._forced_down: set = set()

    # ------------------------------------------------------------------ #
    @classmethod
    def from_plan(
        cls,
        plan: PartitionPlan,
        thresholds: Thresholds,
        strategy: str = "round-robin",
        **kwargs,
    ) -> "LoadBalancer":
        """Stamp out ``plan.replicas`` identical fabrics and balance them.

        Each replica materialises its own deployment from the plan (shared
        model, private nodes/links/queues); keyword arguments are forwarded
        to every :meth:`DistributedServingFabric.from_plan` call.

        When the plan (or a ``hedge=`` kwarg) carries a
        :class:`~repro.serving.resilience.HedgePolicy` and there are
        sibling replicas, the fabrics are built over one shared event loop
        (unless a shared ``events=`` was passed explicitly) and hedging is
        wired via :meth:`enable_hedging`.
        """
        hedge = kwargs.pop("hedge", plan.hedge)
        events = kwargs.pop("events", None)
        if hedge is not None and plan.replicas > 1 and events is None:
            # Hedge copies race their originals on one timeline, so sibling
            # replicas must share a loop (and therefore a clock).
            events = EventLoop(WallClock() if kwargs.get("backend") == "thread" else None)
        if events is not None:
            kwargs["events"] = events
        if hedge is not None:
            kwargs["hedge"] = hedge
        fabrics = [
            DistributedServingFabric.from_plan(plan, thresholds, **kwargs)
            for _ in range(plan.replicas)
        ]
        balancer = cls(fabrics, strategy=strategy)
        if hedge is not None and plan.replicas > 1:
            balancer.enable_hedging()
        return balancer

    # ------------------------------------------------------------------ #
    def _depth(self, fabric: DistributedServingFabric) -> int:
        # Outstanding = everything submitted that has not been answered or
        # turned away.  Counting from the submission side (rather than the
        # tier queues) makes least-loaded meaningful in simulated time too,
        # where arrivals sit on scheduled events until the loop runs.
        stats = fabric.admission_stats
        return (
            fabric.offered
            - fabric.answered
            - stats.rejected
            - stats.dropped
        )

    @staticmethod
    def _online_workers(fabric: DistributedServingFabric) -> int:
        """Total online (non-crashed) worker slots across the stack's tiers.

        A replica can be technically "up" (every tier has >= 1 online
        worker) while a chaos window has thinned one of its tiers; routing
        ties should prefer the stack with more surviving capacity.
        """
        return sum(tier.pool.online for tier in fabric.tiers)

    # -- hedged offloads ------------------------------------------------- #
    def enable_hedging(self, policy: Optional[HedgePolicy] = None) -> "LoadBalancer":
        """Wire hedged offloads across the replica set.

        Every replica must share one event loop (a hedge copy and its
        original race on a single timeline — :meth:`from_plan` arranges
        this) and carry an offload :class:`~repro.serving.resilience.RetryPolicy`.
        The request-id source is unified across replicas so the merged
        response stream stays globally unique (wire hedging *before*
        submitting work), and each fabric's ``hedge_router`` is pointed at
        :meth:`_hedge_sibling`.  ``policy`` overrides/installs the
        :class:`~repro.serving.resilience.HedgePolicy` on every replica;
        without it every replica must already carry one.
        """
        if len(self.replicas) < 2:
            raise ValueError(
                "hedging needs replicas >= 2: hedge copies go to sibling stacks"
            )
        loop = self.replicas[0].events
        if any(fabric.events is not loop for fabric in self.replicas):
            raise ValueError(
                "hedging requires every replica to share one EventLoop — "
                "build the fabrics with a common events=... "
                "(LoadBalancer.from_plan does this automatically)"
            )
        shared_ids = self.replicas[0]._ids
        # The replicas reach the balancer weakly (it owns them): a dropped
        # balancer frees itself and its replicas, and a replica that
        # outlives its balancer simply has no sibling to hedge to.
        sibling_of = weakref.WeakMethod(self._hedge_sibling)

        def route(origin: DistributedServingFabric, origin_tier: int):
            route_from = sibling_of()
            return None if route_from is None else route_from(origin, origin_tier)

        for index, fabric in enumerate(self.replicas):
            if not fabric.offload_policy.can_time_out:
                raise ValueError(
                    f"replica {index} has no offload RetryPolicy; hedge "
                    "copies ride the resilient offload path"
                )
            if policy is not None:
                fabric.hedge_policy = policy
            elif fabric.hedge_policy is None:
                raise ValueError(
                    f"replica {index} has no HedgePolicy — pass policy=... "
                    "or construct the fabrics with hedge=..."
                )
            fabric._ids = shared_ids
            fabric.hedge_router = route
        return self

    def _hedge_sibling(
        self, origin: DistributedServingFabric, origin_tier: int
    ) -> Optional[DistributedServingFabric]:
        """Pick the sibling replica a hedge copy is sent to, or ``None``.

        Healthy stacks only (never the origin), least-loaded first by the
        ranking :meth:`pick` uses (:meth:`_load_rank`) — fully
        deterministic, so seeded simulated runs replay hedge routing byte
        for byte.
        """
        candidates = [
            index
            for index in self.healthy_indices()
            if self.replicas[index] is not origin
        ]
        if not candidates:
            return None
        return self.replicas[min(candidates, key=self._load_rank)]

    # -- health --------------------------------------------------------- #
    def mark_down(self, index: int) -> None:
        """Administratively exclude a replica from routing (idempotent)."""
        self._forced_down.add(self._check_index(index))

    def mark_up(self, index: int) -> None:
        """Lift an administrative exclusion (the fabric's own health still
        applies)."""
        self._forced_down.discard(self._check_index(index))

    def _check_index(self, index: int) -> int:
        if not 0 <= index < len(self.replicas):
            raise IndexError(
                f"replica index {index} out of range (have {len(self.replicas)})"
            )
        return int(index)

    def healthy_indices(self) -> List[int]:
        """Replicas currently eligible for routing, in index order."""
        return [
            index
            for index, fabric in enumerate(self.replicas)
            if index not in self._forced_down and getattr(fabric, "healthy", True)
        ]

    def pick(self) -> int:
        """The replica index the next submission will be routed to.

        Unhealthy replica stacks (a tier with zero online workers, or
        :meth:`mark_down`) are routed around; with every replica down this
        raises :class:`RuntimeError` rather than submitting into the void.
        """
        candidates = self.healthy_indices()
        if not candidates:
            raise RuntimeError(
                f"all {len(self.replicas)} replica stacks are unhealthy "
                "(each needs at least one online worker per tier and no "
                "mark_down); wait for a crash window to close or mark_up a "
                "replica before submitting"
            )
        if self.strategy == "round-robin":
            # The next healthy replica at or after the rotation cursor, so
            # healthy stacks still see strict rotation around the outage.
            for step in range(len(self.replicas)):
                index = (self._cursor + step) % len(self.replicas)
                if index in candidates:
                    return index
        return min(candidates, key=self._load_rank)

    def _load_rank(self, index: int) -> Tuple[int, int, int]:
        """Least-loaded order: smallest outstanding depth; depth ties prefer
        the stack with more online workers (a replica whose cloud tier is
        mid-crash-window stops winning ties while technically "up"), then
        lowest index — deterministic either way."""
        replica = self.replicas[index]
        return (self._depth(replica), -self._online_workers(replica), index)

    def submit(
        self,
        views: np.ndarray,
        client_id: str = "default",
        target: Optional[int] = None,
        at: Optional[float] = None,
        slo_s: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Route one sample; returns ``(replica_index, request_id)``."""
        replica, ids = self.submit_many(
            [views], client_id=client_id, targets=[target], at=at, slo_s=slo_s
        )
        return replica, ids[0]

    def submit_many(
        self,
        views_list: Sequence[np.ndarray],
        client_id: str = "default",
        targets: Optional[Sequence[Optional[int]]] = None,
        at: Optional[float] = None,
        slo_s: Optional[float] = None,
    ) -> Tuple[int, List[int]]:
        """Route a co-arriving group to one replica; returns its index + ids."""
        index = self.pick()
        ids = self.replicas[index].submit_many(
            views_list, client_id=client_id, targets=targets, at=at, slo_s=slo_s
        )
        self.assignments[index] += len(ids)
        # Rotation resumes after the replica actually used (which pick() may
        # have skipped ahead to); with every replica healthy this is the
        # same strict rotation as before.
        self._cursor = index + 1
        return index, ids

    # ------------------------------------------------------------------ #
    def run_until_idle(self, drain: bool = False) -> List[FabricRequest]:
        """Drain every replica; responses merged in (replica, id) order.

        Replicas sharing one event loop (hedging) are drained in a single
        run — their events interleave on the shared timeline; independent
        replicas are drained sequentially as before.
        """
        loop = self.replicas[0].events
        if len(self.replicas) > 1 and all(
            fabric.events is loop for fabric in self.replicas
        ):
            previous = [fabric._draining for fabric in self.replicas]
            for fabric in self.replicas:
                fabric._draining = fabric._draining or drain
            try:
                loop.run()
            finally:
                for fabric, before in zip(self.replicas, previous):
                    fabric._draining = before
            return self.responses
        responses: List[FabricRequest] = []
        for fabric in self.replicas:
            responses.extend(fabric.run_until_idle(drain=drain))
        return responses

    @property
    def responses(self) -> List[FabricRequest]:
        merged: List[FabricRequest] = []
        for fabric in self.replicas:
            merged.extend(fabric.responses)
        return merged

    def report(
        self,
        responses: Optional[Sequence[FabricRequest]] = None,
        duration_s: Optional[float] = None,
    ) -> FabricReport:
        """Fleet-level report: merged responses, summed hedge/resilience
        counters, and per-replica breaker metadata keyed ``r{i}:a->b``.

        A hedge win lands its response on the sibling's ledger, so only
        this merged view (never a single replica's
        :meth:`DistributedServingFabric.report`) accounts every request
        exactly once under hedging.
        """
        merged = list(self.responses if responses is None else responses)
        base = self.replicas[0].report(merged, duration_s=duration_s)
        stats = ResilienceStats.merged(
            [fabric.resilience_stats for fabric in self.replicas]
        )
        base.hedge_total = stats.hedges
        base.hedge_win_fraction = (
            stats.hedge_wins / stats.hedges if stats.hedges else 0.0
        )
        base.hedge_bytes = sum(fabric.hedge_bytes for fabric in self.replicas)
        reasons = Counter()
        for fabric in self.replicas:
            reasons.update(fabric.reasons)
        base.metadata = {
            "resilience": stats.report(reasons),
            "admission": AdmissionStats.merged(
                [fabric.admission_stats for fabric in self.replicas]
            ).as_dict(),
            "breakers": {
                f"r{index}:{key}": value
                for index, fabric in enumerate(self.replicas)
                for key, value in fabric.report_metadata()["breakers"].items()
            },
        }
        return base

    def close(self) -> None:
        for fabric in self.replicas:
            fabric.close()

    def __enter__(self) -> "LoadBalancer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
