"""Experiment S3 — distributed serving over the tier-aware fabric.

The overload study (S2) stresses a *single* serving tier.  This study runs
the full distributed picture the paper argues for: requests enter at the
device tier, exit locally when confident, and are offloaded up the
hierarchy as messages over bandwidth/latency-modelled links, served by a
configurable number of workers per tier
(:class:`~repro.serving.fabric.DistributedServingFabric`).

Three sweeps, all open-loop Poisson arrivals at a fixed multiple of one
worker's device-tier capacity (deterministic simulated time, real model
predictions):

* **worker count** — with one worker the device tier saturates and p95
  diverges toward the run length; doubling workers restores a bounded tail
  without touching the model or thresholds;
* **uplink bandwidth** — shrinking the tier links' bandwidth inflates every
  offloaded request's transfer delay, so the p95 gap between local and
  offloaded answers widens while the offload *fraction* stays fixed;
* **exit threshold** — a lower local threshold offloads more traffic,
  shifting answers between the local and upper classifiers (the paper's
  Table 2 knob, now visible end-to-end in serving terms: offload fraction,
  bytes per request, tail latency and accuracy all move together).

A final row **sheds at admission**: the saturated single-worker row (same
seed) behind a device-tier queue of two batches whose
:class:`~repro.serving.admission.ShedToLocalExit` answers an arrival that
finds it full from the local exit — p95 falls toward the local-exit
latency for the gap between local and full-cascade answers on the shed
arrivals.  Every row's answer reasons are checked honest.

Latency rows use hand-set affine :class:`~repro.serving.loadgen.ServiceModel`
coefficients so the table is machine-independent.
"""

from __future__ import annotations

from typing import Optional

from ..hierarchy.partition import (
    DEFAULT_EDGE_LINK,
    DEFAULT_LOCAL_LINK,
    DEFAULT_UPLINK,
    LinkSpec,
    partition_ddnn,
)
from ..serving import (
    BatchingPolicy,
    DistributedServingFabric,
    PoissonProcess,
    ServiceModel,
    ShedToLocalExit,
)
from ..serving.invariants import check_honest_reasons, require
from .results import ExperimentResult
from .runner import ExperimentScale, default_scale, get_dataset, get_trained_ddnn

__all__ = ["run_distributed_serving"]

#: Base local-exit entropy threshold of the cascade.
THRESHOLD = 0.8
WORKER_COUNTS = (1, 2, 4)
BANDWIDTH_SCALES = (0.5, 0.25)
THRESHOLD_SWEEP = (0.5, 0.95)
#: Offered load as a multiple of one device-tier worker's capacity.
OFFERED_X = 1.5
#: Open-loop arrivals per row.
NUM_REQUESTS = 240
BATCHING = BatchingPolicy(max_batch_size=8, max_wait_s=0.005)
SEED = 0

#: Device-tier affine service model (same coefficients as the overload study).
DEVICE_SERVICE = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)
#: Upper tiers run on beefier hardware: half the overhead and per-sample cost.
UPPER_SERVICE = ServiceModel(batch_overhead_s=0.001, per_sample_s=0.0005)


def _scaled_link(link: LinkSpec, scale: float) -> LinkSpec:
    return LinkSpec(
        bandwidth_bytes_per_s=link.bandwidth_bytes_per_s * scale,
        latency_s=link.latency_s,
    )


def run_distributed_serving(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Sweep p95 latency and offload fraction across the fabric's knobs."""
    scale = scale if scale is not None else default_scale()
    model, _ = get_trained_ddnn(scale)
    _, test_set = get_dataset(scale)
    capacity_rps = DEVICE_SERVICE.capacity_rps(BATCHING.max_batch_size)
    offered_rps = OFFERED_X * capacity_rps

    result = ExperimentResult(
        name="distributed_serving",
        paper_reference="Distributed serving fabric (tier-aware, open-loop)",
        columns=[
            "sweep",
            "workers",
            "bandwidth_x",
            "threshold",
            "capacity",
            "served",
            "offload_pct",
            "shed_pct",
            "p50_ms",
            "p95_ms",
            "kb_per_req",
            "accuracy_pct",
        ],
        metadata={
            "scale": scale.name,
            "offered_x": OFFERED_X,
            "offered_rps": offered_rps,
            "capacity_rps_1worker": capacity_rps,
            "num_requests": NUM_REQUESTS,
            "max_batch_size": BATCHING.max_batch_size,
            "max_wait_s": BATCHING.max_wait_s,
            "seed": SEED,
            "backend": "simulated",
        },
    )

    def _run_row(
        sweep: str,
        workers: int,
        bandwidth_x: float,
        row_threshold: float,
        capacity: Optional[int],
        row_seed: int,
    ) -> None:
        deployment = partition_ddnn(
            model,
            local_link=_scaled_link(DEFAULT_LOCAL_LINK, bandwidth_x),
            uplink=_scaled_link(DEFAULT_UPLINK, bandwidth_x),
            edge_link=_scaled_link(DEFAULT_EDGE_LINK, bandwidth_x),
        )
        fabric = DistributedServingFabric(
            deployment,
            row_threshold,
            workers_per_tier=workers,
            batching=BATCHING,
            service_models=[DEVICE_SERVICE]
            + [UPPER_SERVICE] * (1 + (1 if deployment.model.has_edge else 0)),
            capacity=capacity,  # None: unbounded, the policy never runs
            admission=ShedToLocalExit(),
        )
        report = fabric.open_loop(
            PoissonProcess(offered_rps, seed=row_seed),
            test_set.images,
            targets=test_set.labels,
            num_requests=NUM_REQUESTS,
        )
        require(
            f"distributed serving row '{sweep}'",
            check_honest_reasons(report.responses, [c.threshold for c in fabric.criteria]),
        )
        result.add_row(
            sweep=sweep,
            workers=workers,
            bandwidth_x=bandwidth_x,
            threshold=row_threshold,
            capacity="none" if capacity is None else capacity,
            served=report.served,
            offload_pct=100.0 * report.offload_fraction,
            shed_pct=100.0 * (report.reasons["shed"] / report.served),
            p50_ms=1e3 * report.p50_latency_s,
            p95_ms=1e3 * report.p95_latency_s,
            kb_per_req=report.mean_bytes / 1e3,
            accuracy_pct=0.0 if report.accuracy is None else 100.0 * report.accuracy,
        )

    for workers in WORKER_COUNTS:
        _run_row("workers", workers, 1.0, THRESHOLD, None, SEED)
    for bandwidth_x in BANDWIDTH_SCALES:
        _run_row("bandwidth", 2, bandwidth_x, THRESHOLD, None, SEED + 1)
    for row_threshold in THRESHOLD_SWEEP:
        _run_row("threshold", 2, 1.0, row_threshold, None, SEED + 2)
    # Shedding under a saturated single worker: matched pair with the
    # workers=1 row (same seed), unbounded vs an ingress of two batches.
    _run_row("shed", 1, 1.0, THRESHOLD, 2 * BATCHING.max_batch_size, SEED)
    return result
