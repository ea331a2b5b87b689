"""Watermark-driven worker autoscaling for the distributed serving fabric.

The elastic half of the tier plane: a
:class:`~repro.hierarchy.plan.PartitionPlan` carries per-tier
:class:`~repro.hierarchy.plan.AutoscalePolicy` watermarks, and the
:class:`Autoscaler` here turns them into live pool resizes on the fabric.

The scaler is deliberately *passive*: it never schedules its own events, it
only reacts inside the fabric's existing arrival/completion hooks
(:meth:`Autoscaler.observe_arrival` / :meth:`Autoscaler.observe`).  That
keeps ``run_until_idle`` semantics intact — an idle fabric stays idle
instead of being kept alive by a periodic evaluation timer — and it means
scaling decisions happen exactly when the evidence changes: a queue can
only cross the high watermark on an arrival, and only fall below the low
watermark on a completion.

Scale-up is immediate (backlog at the high watermark is evidence *now*);
scale-down is damped by the policy's cooldown since the last size change,
so the lull between two bursts does not flap the pool.  A
:class:`RateTracker` per tier additionally measures the windowed arrival
rate, which the optional ``target_rps_per_worker`` floor uses to keep
enough workers provisioned for the observed offered load even when the
queue momentarily drains.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple, Union

from ..hierarchy.plan import AutoscalePolicy

__all__ = ["RateTracker", "Autoscaler"]


class RateTracker:
    """Sliding-window arrival-rate estimator (event timestamps in a deque)."""

    def __init__(self, window_s: float) -> None:
        if not window_s > 0.0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.window_s = float(window_s)
        self._events: Deque[Tuple[float, int]] = deque()
        self._count = 0

    def observe(self, now: float, count: int = 1) -> None:
        self._events.append((now, count))
        self._count += count
        self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        while self._events and self._events[0][0] <= horizon:
            _, count = self._events.popleft()
            self._count -= count

    def rate(self, now: float) -> float:
        """Arrivals per second over the trailing window."""
        self._prune(now)
        return self._count / self.window_s


class Autoscaler:
    """Per-tier watermark scaling driven by the fabric's own event hooks.

    Parameters
    ----------
    fabric:
        The :class:`~repro.serving.fabric.DistributedServingFabric` whose
        tiers to scale (the scaler calls its ``_resize_tier``).
    policies:
        One :class:`~repro.hierarchy.plan.AutoscalePolicy` per tier (a
        single policy broadcasts; ``None`` entries leave that tier's pool
        alone).
    """

    def __init__(
        self,
        fabric,
        policies: Union[AutoscalePolicy, Sequence[Optional[AutoscalePolicy]]],
    ) -> None:
        # The fabric owns its autoscaler; a strong reference back would
        # make the pair cyclic garbage.
        self.fabric = weakref.proxy(fabric)
        self.policies: List[Optional[AutoscalePolicy]] = []
        self.trackers: List[Optional[RateTracker]] = []
        self._last_change: List[Optional[float]] = []
        #: Every size change as ``(time, tier_name, workers)`` — the worker
        #: trajectory the elastic experiment plots.
        self.trajectory: List[Tuple[float, str, int]] = []
        #: Peak pool size ever reached, per tier index.
        self.peak_workers: List[int] = [len(t.pool) for t in fabric.tiers]
        self.reconfigure(policies)

    # ------------------------------------------------------------------ #
    def reconfigure(
        self,
        policies: Union[AutoscalePolicy, Sequence[Optional[AutoscalePolicy]]],
    ) -> None:
        """Swap in a new per-tier policy set (used by ``apply_plan``).

        Rate trackers are rebuilt only where the window changed, so the
        observed-rate floor keeps its history across a re-partition.
        """
        num_tiers = len(self.fabric.tiers)
        if isinstance(policies, AutoscalePolicy) or policies is None:
            resolved: List[Optional[AutoscalePolicy]] = [policies] * num_tiers
        else:
            resolved = list(policies)
            if len(resolved) != num_tiers:
                raise ValueError(
                    f"policies must have {num_tiers} entries, got {len(resolved)}"
                )
        old_trackers = self.trackers if self.trackers else [None] * num_tiers
        trackers: List[Optional[RateTracker]] = []
        for index, policy in enumerate(resolved):
            if policy is None:
                trackers.append(None)
                continue
            previous = old_trackers[index] if index < len(old_trackers) else None
            if previous is not None and previous.window_s == policy.window_s:
                trackers.append(previous)
            else:
                trackers.append(RateTracker(policy.window_s))
        self.policies = resolved
        self.trackers = trackers
        if len(self._last_change) != num_tiers:
            self._last_change = [None] * num_tiers

    # ------------------------------------------------------------------ #
    def observe_arrival(self, tier_index: int, now: float, count: int = 1) -> None:
        """Hook: ``count`` requests just joined tier ``tier_index``'s queue."""
        tracker = self.trackers[tier_index]
        if tracker is not None:
            tracker.observe(now, count)
        self._evaluate(tier_index, now)

    def observe(self, fabric, now: float) -> None:
        """Hook: a batch completed somewhere — re-evaluate every tier."""
        for tier_index in range(len(fabric.tiers)):
            self._evaluate(tier_index, now)

    # ------------------------------------------------------------------ #
    def _rate_floor(self, tier_index: int, policy: AutoscalePolicy, now: float) -> int:
        if policy.target_rps_per_worker <= 0.0:
            return policy.min_workers
        tracker = self.trackers[tier_index]
        needed = math.ceil(tracker.rate(now) / policy.target_rps_per_worker)
        return int(min(max(needed, policy.min_workers), policy.max_workers))

    def _evaluate(self, tier_index: int, now: float) -> None:
        policy = self.policies[tier_index]
        if policy is None:
            return
        tier = self.fabric.tiers[tier_index]
        current = len(tier.pool)
        depth = len(tier.queue)
        floor = self._rate_floor(tier_index, policy, now)

        target = current
        if depth >= policy.high_watermark and current < policy.max_workers:
            target = min(current + policy.step, policy.max_workers)
        elif depth <= policy.low_watermark and current > max(policy.min_workers, floor):
            last = self._last_change[tier_index]
            if last is None or now - last >= policy.cooldown_s:
                target = max(current - policy.step, policy.min_workers, floor)
        target = max(target, floor)
        if target == current:
            return

        actual = self.fabric._resize_tier(tier_index, target, now)
        if actual != current:
            self._last_change[tier_index] = now
            self.trajectory.append((now, tier.name, actual))
            self.peak_workers[tier_index] = max(self.peak_workers[tier_index], actual)

    # ------------------------------------------------------------------ #
    def workers(self) -> List[int]:
        """Current pool size per tier."""
        return [len(tier.pool) for tier in self.fabric.tiers]
