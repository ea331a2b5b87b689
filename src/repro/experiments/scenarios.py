"""What the online serving studies (chaos, SLO, elastic) share — one copy.

* :class:`ServingTrace` — the trained model, its request stream and the
  machine-independent service/batching constants every study serves with;
* :func:`retry_ladder` — the offload :class:`RetryPolicy` and
  :class:`CircuitBreaker`, scaled to the deployment's real uplink cost;
* :func:`fault_windows` / :func:`flap_cycle` / :func:`chaos_schedule` —
  when each chaos scenario's fault is live, and the
  :class:`ChaosSchedule` that injects it.

Keeping these in one place is what makes the chaos and SLO tables
comparable cell for cell: same trace, same ladder, same fault timetable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..hierarchy.faults import ChaosSchedule, LinkFlap, LinkLoss, LinkOutage, WorkerCrash
from ..hierarchy.plan import PartitionPlan
from ..hierarchy.sections import build_tier_sections
from ..serving import BatchingPolicy, CircuitBreaker, RetryPolicy, ServiceModel
from .runner import ExperimentScale, get_dataset, get_trained_ddnn

__all__ = [
    "SCENARIOS",
    "ServingTrace",
    "retry_ladder",
    "fault_windows",
    "flap_cycle",
    "chaos_schedule",
]

SCENARIOS = ("none", "flaky-uplink", "cloud-partition", "worker-crash")


class ServingTrace:
    """One trained model, its request stream and the service constants it is
    served with — the cached CI/paper model and test split.

    The service times are constants, not measurements, so every simulated
    row is machine-independent and the studies stay comparable.
    """

    def __init__(self, scale: ExperimentScale, num_requests: int) -> None:
        self.model, _ = get_trained_ddnn(scale)
        _, test_set = get_dataset(scale)
        self.views = test_set.images
        self.targets = [int(label) for label in test_set.labels]
        self.service = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.004)
        self.batching = BatchingPolicy(max_batch_size=4, max_wait_s=0.004)
        self.one_worker_rps = self.service.capacity_rps(self.batching.max_batch_size)
        # The chaos/SLO Poisson trace offers half of one worker's capacity, so
        # a latency bulge measured under chaos is the fault, not overload.
        self.rate_rps = 0.5 * self.one_worker_rps
        self.horizon_s = num_requests / self.rate_rps

    def service_models(self, plan: PartitionPlan) -> List[ServiceModel]:
        return [self.service] * plan.num_tiers


def retry_ladder(
    plan: PartitionPlan, seed: int, max_retries: int = 3
) -> Tuple[RetryPolicy, CircuitBreaker, float]:
    """``(policy, breaker, transfer estimate)`` for offloads over ``plan``'s uplinks.

    The deadline scales with the deployment's worst single-offload transfer
    time, so the fault-free baseline never times out a healthy transfer at
    any scale.  The backoff cap sits at the ladder's own top rung doubled:
    it documents the ceiling without ever binding.
    """
    sections = build_tier_sections(plan.materialize(), plan=plan)
    transfer = max(section.transfer_estimate_s() for section in sections[:-1])
    deadline = max(2.0 * transfer, 0.04)
    policy = RetryPolicy(
        deadline_s=deadline,
        max_retries=max_retries,
        backoff_base_s=deadline / 2.0,
        backoff_multiplier=2.0,
        backoff_max_s=2.0 ** (max_retries - 1) * deadline,
        jitter_s=deadline / 10.0,
        seed=seed,
    )
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=2.5 * deadline)
    return policy, breaker, transfer


def fault_windows(horizon: float, crash_end: float) -> Dict[str, Tuple[float, float]]:
    """``scenario -> [start, end)`` of its fault over a ``horizon``-second trace.

    ``crash_end`` is the caller's: the chaos study crashes the top tier for
    a quarter of the horizon, the SLO study needs the blackout to outlast
    its end-to-end budget.
    """
    return {
        "none": (0.0, float("inf")),
        "flaky-uplink": (0.1 * horizon, 0.9 * horizon),
        "cloud-partition": (0.25 * horizon, 0.75 * horizon),
        "worker-crash": (0.30 * horizon, crash_end),
    }


def flap_cycle(horizon: float, deadline: float) -> Tuple[float, float]:
    """``(period, dark time)`` of the flaky uplink.  The cycle tracks the offload
    deadline: a flap shorter than one deadline would be invisible to the
    retry machinery."""
    period = max(horizon / 5.0, 4.0 * deadline)
    return period, min(1.25 * deadline, 0.45 * period)


def chaos_schedule(
    scenario: str,
    windows: Dict[str, Tuple[float, float]],
    flap: Tuple[float, float],
    top_tier: str,
    seed: int,
) -> Optional[ChaosSchedule]:
    """The chaos that strikes ``top_tier`` (or the uplink into it) in ``scenario``."""
    if scenario == "none":
        return None
    start, end = windows[scenario]
    if scenario == "flaky-uplink":
        return ChaosSchedule(
            flaps=[
                LinkFlap(
                    period_s=flap[0], down_s=flap[1], destination=top_tier, start=start, end=end
                )
            ],
            losses=[LinkLoss(probability=0.08, destination=top_tier, start=start, end=end)],
            seed=seed,
        )
    if scenario == "cloud-partition":
        return ChaosSchedule(
            outages=[LinkOutage(destination=top_tier, start=start, end=end)], seed=seed
        )
    return ChaosSchedule(crashes=[WorkerCrash(tier=top_tier, start=start, end=end)], seed=seed)
