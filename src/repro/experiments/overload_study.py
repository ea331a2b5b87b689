"""Experiment S2 — tail latency under open-loop overload with admission control.

A *closed* loop submits a fixed backlog and drains it, so the server can
never fall behind.  The paper's end devices are the opposite — an
**open-loop** stream that keeps arriving whether or not the serving tier
keeps up.  This study drives :class:`~repro.serving.server.DDNNServer` with
a seeded Poisson arrival process on a simulated clock and an affine
service-time model (deterministic, machine-independent latencies; real
model predictions) and sweeps offered load against serving capacity:

* ``unbounded`` — today's default FIFO queue: every request is eventually
  served, but past saturation the backlog (and therefore p95/p99 latency)
  grows without bound — shown directly by the run-length sweep rows;
* ``reject`` / ``drop-oldest`` / ``shed-local`` — a bounded queue with each
  admission policy: tail latency stays pinned under the configured bound
  while the reject/drop/shed rate absorbs the excess load.

Rows report p50/p95/p99 latency, admission rates, and the analytic latency
bound implied by the queue capacity (``p95_bound_ms``); the benchmark
harness records the table as ``benchmarks/results/overload_tail_latency.txt``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from ..serving import (
    BatchingPolicy,
    DDNNServer,
    LoadGenerator,
    LoadReport,
    PoissonProcess,
    ServiceModel,
    SimulatedClock,
    admission_policy,
)
from .results import ExperimentResult
from .runner import ExperimentScale, default_scale, get_dataset, get_trained_ddnn

__all__ = [
    "DEFAULT_LOAD_MULTIPLIERS",
    "DEFAULT_POLICIES",
    "run_overload_study",
    "queue_latency_bound_s",
]

#: Offered load as multiples of the measured serving capacity.
DEFAULT_LOAD_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)

#: "unbounded" is the no-admission baseline; the rest are bounded-queue policies.
DEFAULT_POLICIES = ("unbounded", "reject", "drop-oldest", "shed-local")


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
    model,
    test_set,
    threshold: float,
    policy_name: str,
    batching: BatchingPolicy,
    service_model: ServiceModel,
    capacity: int,
    offered_rps: float,
    num_requests: int,
    seed: int,
) -> LoadReport:
    clock = SimulatedClock()
    server = DDNNServer(
        model,
        threshold,
        policy=batching,
        clock=clock,
        capacity=None if policy_name == "unbounded" else capacity,
        admission=None if policy_name == "unbounded" else admission_policy(policy_name),
    )
    generator = LoadGenerator(
        server,
        PoissonProcess(offered_rps, seed=seed),
        test_set.images,
        targets=test_set.labels,
        service_model=service_model,
    )
    return generator.run(num_requests)


def run_overload_study(
    scale: Optional[ExperimentScale] = None,
    threshold: float = 0.8,
    capacity: int = 48,
    max_batch_size: int = 16,
    max_wait_s: float = 0.005,
    load_multipliers: Sequence[float] = DEFAULT_LOAD_MULTIPLIERS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    num_requests: int = 400,
    growth_lengths: Optional[Tuple[int, ...]] = None,
    service_model: Optional[ServiceModel] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Sweep offered load x admission policy; add a run-length sweep for the
    unbounded baseline at 2x capacity (the divergence demonstration).

    ``growth_lengths`` defaults to ``(num_requests // 2, num_requests,
    2 * num_requests)`` so one knob scales the whole study (the CI smoke
    job runs it tiny).

    The server's real inference runs on the compiled path (it routes
    exactly like the eager one); the tabulated latencies come from the
    deterministic affine ``service_model``, so every row is
    machine-independent and the table is reproduced byte for byte.
    """
    scale = scale if scale is not None else default_scale()
    if num_requests < 2:
        raise ValueError("num_requests must be >= 2")
    if growth_lengths is None:
        growth_lengths = (max(num_requests // 2, 2), num_requests, 2 * num_requests)
    service_model = service_model if service_model is not None else ServiceModel()
    batching = BatchingPolicy(max_batch_size=max_batch_size, max_wait_s=max_wait_s)
    capacity_rps = service_model.capacity_rps(max_batch_size)
    bound_s = queue_latency_bound_s(capacity, batching, service_model)

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
            "threshold": threshold,
            "capacity": capacity,
            "max_batch_size": max_batch_size,
            "max_wait_s": max_wait_s,
            "service_batch_overhead_s": service_model.batch_overhead_s,
            "service_per_sample_s": service_model.per_sample_s,
            "capacity_rps": capacity_rps,
            "num_requests": num_requests,
            "growth_lengths": tuple(growth_lengths),
            "seed": seed,
        },
    )

    def _add_row(policy_name: str, multiplier: float, requests: int, report: LoadReport) -> None:
        result.add_row(
            policy=policy_name,
            offered_x=multiplier,
            offered_rps=multiplier * capacity_rps,
            requests=requests,
            served=report.served,
            reject_pct=100.0 * report.reject_rate,
            drop_pct=100.0 * report.drop_rate,
            shed_pct=100.0 * report.shed_rate,
            p50_ms=1e3 * report.p50_latency_s,
            p95_ms=1e3 * report.p95_latency_s,
            p99_ms=1e3 * report.p99_latency_s,
            p95_bound_ms=float("inf") if policy_name == "unbounded" else 1e3 * bound_s,
        )

    for policy_name in policies:
        for multiplier_index, multiplier in enumerate(load_multipliers):
            report = _run_one(
                model,
                test_set,
                threshold,
                policy_name,
                batching,
                service_model,
                capacity,
                offered_rps=multiplier * capacity_rps,
                num_requests=num_requests,
                seed=seed + multiplier_index,
            )
            _add_row(policy_name, multiplier, num_requests, report)

    # Divergence demonstration: the unbounded baseline at 2x capacity,
    # re-run with growing run lengths.  Bounded policies' p95 is flat in run
    # length (pinned by the capacity bound above); the unbounded p95 scales
    # with it.  Same arrival seed for every length, so the shorter runs are
    # prefixes of the longer ones.
    for length in growth_lengths:
        report = _run_one(
            model,
            test_set,
            threshold,
            "unbounded",
            batching,
            service_model,
            capacity,
            offered_rps=2.0 * capacity_rps,
            num_requests=length,
            seed=seed + 1000,
        )
        _add_row("unbounded", 2.0, length, report)
    return result
