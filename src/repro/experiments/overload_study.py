"""Experiment S2 — tail latency under open-loop overload with admission control.

A *closed* loop submits a fixed backlog and drains it, so the server can
never fall behind.  The paper's end devices are the opposite — an
**open-loop** stream that keeps arriving whether or not the serving tier
keeps up.  This study drives the one-tier
:class:`~repro.serving.server.DDNNServer` with
:meth:`~repro.serving.fabric.DistributedServingFabric.open_loop`: a seeded
Poisson arrival process on a simulated clock, each arrival offered at its
own instant, and one worker busy for an affine service time per batch
(deterministic, machine-independent latencies; real model predictions).
It sweeps offered load against serving capacity:

* ``unbounded`` — today's default FIFO queue: every request is eventually
  served, but past saturation the backlog (and therefore p95/p99 latency)
  grows without bound — shown directly by the run-length sweep rows;
* ``reject`` / ``drop-oldest`` / ``shed-local`` — a bounded queue with each
  admission policy: tail latency stays pinned under the configured bound
  while the reject/drop/shed rate absorbs the excess load.

Rows report p50/p95/p99 latency over the queued-and-served requests (a
shed request is answered at once and counted apart), admission rates, and
the analytic latency bound implied by the queue capacity
(``p95_bound_ms``).  Every row is checked before it is added: admission
conserves what was offered, every accepted request is served or dropped,
and no admitted request waits past the bound (its maximum, not its p95).
The benchmark harness records the table as
``benchmarks/results/overload_tail_latency.txt``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..serving import (
    AdmissionStats,
    BatchingPolicy,
    DDNNServer,
    FabricReport,
    PoissonProcess,
    ServiceModel,
    admission_policy,
)
from ..serving.invariants import check_conservation, require
from .results import ExperimentResult
from .runner import ExperimentScale, default_scale, get_dataset, get_trained_ddnn

__all__ = ["run_overload_study", "queue_latency_bound_s"]

THRESHOLD = 0.8
#: Request-queue bound of the admission policies.
CAPACITY = 48
BATCHING = BatchingPolicy(max_batch_size=16, max_wait_s=0.005)
SERVICE_MODEL = ServiceModel()

#: Offered load as multiples of the serving capacity.
LOAD_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)

#: "unbounded" is the no-admission baseline; the rest are bounded-queue policies.
POLICIES = ("unbounded", "reject", "drop-oldest", "shed-local")

#: Arrivals per run; the unbounded divergence sweep runs n/2, n and 2n.
NUM_REQUESTS = 400
GROWTH_LENGTHS = (NUM_REQUESTS // 2, NUM_REQUESTS, 2 * NUM_REQUESTS)
SEED = 0


def queue_latency_bound_s(
    capacity: int, policy: BatchingPolicy, service_model: ServiceModel
) -> float:
    """Worst-case sojourn time a bounded queue can impose on an admitted request.

    An admitted request finds at most ``capacity - 1`` requests ahead of it;
    they drain in at most ``ceil(capacity / B)`` full batches, plus one
    batch the worker may already be busy with, plus the batching policy's
    ``max_wait_s`` hold.
    """
    batches = math.ceil(capacity / policy.max_batch_size) + 1
    return batches * service_model.batch_time_s(policy.max_batch_size) + policy.max_wait_s


def _run_one(
    model, test_set, policy_name: str, offered_rps: float, num_requests: int, seed: int
) -> Tuple[FabricReport, AdmissionStats]:
    """One open-loop run: the report over the queued-and-served responses,
    and the ingress admission counters."""
    bounded = policy_name != "unbounded"
    server = DDNNServer(
        model,
        THRESHOLD,
        policy=BATCHING,
        capacity=CAPACITY if bounded else None,
        admission=admission_policy(policy_name) if bounded else None,
        service_models=[SERVICE_MODEL],
    )
    report = server.open_loop(
        PoissonProcess(offered_rps, seed=seed),
        test_set.images,
        targets=test_set.labels,
        num_requests=num_requests,
    )
    served = [response for response in report.responses if not response.shed]
    return server.report(served), server.admission_stats


def run_overload_study(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Sweep offered load x admission policy; add a run-length sweep for the
    unbounded baseline at 2x capacity (the divergence demonstration).

    The server's real inference runs on the compiled path (it routes
    exactly like the eager one); the tabulated latencies come from the
    deterministic affine :data:`SERVICE_MODEL`, so every row is
    machine-independent and the table is reproduced byte for byte.
    """
    scale = scale if scale is not None else default_scale()
    capacity_rps = SERVICE_MODEL.capacity_rps(BATCHING.max_batch_size)
    bound_s = queue_latency_bound_s(CAPACITY, BATCHING, SERVICE_MODEL)

    model, _ = get_trained_ddnn(scale)
    _, test_set = get_dataset(scale)

    result = ExperimentResult(
        name="overload_tail_latency",
        paper_reference="Overload study (open-loop serving)",
        columns=[
            "policy",
            "offered_x",
            "offered_rps",
            "requests",
            "served",
            "reject_pct",
            "drop_pct",
            "shed_pct",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "p95_bound_ms",
        ],
        metadata={
            "scale": scale.name,
            "threshold": THRESHOLD,
            "capacity": CAPACITY,
            "max_batch_size": BATCHING.max_batch_size,
            "max_wait_s": BATCHING.max_wait_s,
            "service_batch_overhead_s": SERVICE_MODEL.batch_overhead_s,
            "service_per_sample_s": SERVICE_MODEL.per_sample_s,
            "capacity_rps": capacity_rps,
            "num_requests": NUM_REQUESTS,
            "growth_lengths": GROWTH_LENGTHS,
            "seed": SEED,
        },
    )

    def _add_row(
        policy_name: str,
        multiplier: float,
        requests: int,
        report: FabricReport,
        stats: AdmissionStats,
    ) -> None:
        bounded = policy_name != "unbounded"
        problems = check_conservation(requests, stats.as_dict())
        if report.served + stats.dropped != stats.accepted:
            problems.append(
                f"{report.served} served + {stats.dropped} dropped != "
                f"{stats.accepted} accepted"
            )
        if bounded and report.max_latency_s > bound_s:
            problems.append(
                f"an admitted request waited {1e3 * report.max_latency_s:.2f} ms, "
                f"past the {1e3 * bound_s:.2f} ms queue bound"
            )
        require(f"overload study, {policy_name} at {multiplier}x, {requests} requests", problems)
        result.add_row(
            policy=policy_name,
            offered_x=multiplier,
            offered_rps=multiplier * capacity_rps,
            requests=requests,
            served=report.served,
            reject_pct=100.0 * stats.rejected / requests,
            drop_pct=100.0 * stats.dropped / requests,
            shed_pct=100.0 * stats.shed / requests,
            p50_ms=1e3 * report.p50_latency_s,
            p95_ms=1e3 * report.p95_latency_s,
            p99_ms=1e3 * report.p99_latency_s,
            p95_bound_ms=1e3 * bound_s if bounded else float("inf"),
        )

    for policy_name in POLICIES:
        for multiplier_index, multiplier in enumerate(LOAD_MULTIPLIERS):
            report, stats = _run_one(
                model,
                test_set,
                policy_name,
                offered_rps=multiplier * capacity_rps,
                num_requests=NUM_REQUESTS,
                seed=SEED + multiplier_index,
            )
            _add_row(policy_name, multiplier, NUM_REQUESTS, report, stats)

    # Divergence demonstration: the unbounded baseline at 2x capacity,
    # re-run with growing run lengths.  Bounded policies' p95 is flat in run
    # length (pinned by the capacity bound above); the unbounded p95 scales
    # with it.  Same arrival seed for every length, so the shorter runs are
    # prefixes of the longer ones.
    for length in GROWTH_LENGTHS:
        report, stats = _run_one(
            model,
            test_set,
            "unbounded",
            offered_rps=2.0 * capacity_rps,
            num_requests=length,
            seed=SEED + 1000,
        )
        _add_row("unbounded", 2.0, length, report, stats)
    return result
