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

A final pair of rows shows **adaptive shedding**
(:class:`~repro.serving.fabric.AdaptiveThreshold`): under device-tier queue
pressure the local exit threshold is raised instead of rejecting requests —
p95 collapses back to the local-exit latency while accuracy degrades only
by the (small) gap between the local and full-cascade answers on the shed
tail.

Latency rows use hand-set affine :class:`~repro.serving.loadgen.ServiceModel`
coefficients so the table is machine-independent; the metadata additionally
records coefficients calibrated from the compiled plan's per-op timing hook
(:meth:`ServiceModel.from_plan_timings`), and ``calibrate=True`` swaps the
calibrated models into the rows for a machine-true table.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..hierarchy.partition import (
    DEFAULT_EDGE_LINK,
    DEFAULT_LOCAL_LINK,
    DEFAULT_UPLINK,
    LinkSpec,
    partition_ddnn,
)
from ..serving import (
    AdaptiveThreshold,
    BatchingPolicy,
    DDNNServer,
    DistributedServingFabric,
    PoissonProcess,
    ServiceModel,
)
from .results import ExperimentResult
from .runner import ExperimentScale, default_scale, get_dataset, get_trained_ddnn

__all__ = [
    "DEFAULT_WORKER_COUNTS",
    "DEFAULT_BANDWIDTH_SCALES",
    "DEFAULT_THRESHOLD_SWEEP",
    "run_distributed_serving",
]

DEFAULT_WORKER_COUNTS = (1, 2, 4)
DEFAULT_BANDWIDTH_SCALES = (0.5, 0.25)
DEFAULT_THRESHOLD_SWEEP = (0.5, 0.95)

#: Device-tier affine service model (same coefficients as the overload study).
DEVICE_SERVICE = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)
#: Upper tiers run on beefier hardware: half the overhead and per-sample cost.
UPPER_SERVICE = ServiceModel(batch_overhead_s=0.001, per_sample_s=0.0005)


def _scaled_link(link: LinkSpec, scale: float) -> LinkSpec:
    return LinkSpec(
        bandwidth_bytes_per_s=link.bandwidth_bytes_per_s * scale,
        latency_s=link.latency_s,
    )


def run_distributed_serving(
    scale: Optional[ExperimentScale] = None,
    threshold: float = 0.8,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    bandwidth_scales: Sequence[float] = DEFAULT_BANDWIDTH_SCALES,
    threshold_sweep: Sequence[float] = DEFAULT_THRESHOLD_SWEEP,
    offered_x: float = 1.5,
    num_requests: int = 240,
    max_batch_size: int = 8,
    max_wait_s: float = 0.005,
    seed: int = 0,
    calibrate: bool = False,
    backend: str = "simulated",
) -> ExperimentResult:
    """Sweep p95 latency and offload fraction across the fabric's knobs.

    ``backend="thread"`` runs every row on real thread-pool workers against
    wall-clock time: latencies become machine-dependent measurements
    instead of deterministic simulated values, while offload fractions,
    bytes and accuracy stay identical to the simulated table — that
    cross-check is what the CI smoke row relies on.
    """
    scale = scale if scale is not None else default_scale()
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    model, _ = get_trained_ddnn(scale)
    _, test_set = get_dataset(scale)

    # Per-op-timing calibration of the device-tier service model: always
    # recorded in the metadata, swapped into the rows with calibrate=True.
    calibration_batch = max(2, min(max_batch_size, len(test_set)))
    measured = ServiceModel.from_plan_timings(
        DDNNServer(model, threshold),
        test_set.images[0],
        batch_size=calibration_batch,
    )
    device_service = measured if calibrate else DEVICE_SERVICE
    upper_service = (
        ServiceModel(
            batch_overhead_s=0.5 * measured.batch_overhead_s,
            per_sample_s=0.5 * measured.per_sample_s,
        )
        if calibrate
        else UPPER_SERVICE
    )
    capacity_rps = device_service.capacity_rps(max_batch_size)
    offered_rps = offered_x * capacity_rps
    batching = BatchingPolicy(max_batch_size=max_batch_size, max_wait_s=max_wait_s)

    result = ExperimentResult(
        name="distributed_serving",
        paper_reference="Distributed serving fabric (tier-aware, open-loop)",
        columns=[
            "sweep",
            "workers",
            "bandwidth_x",
            "threshold",
            "adaptive",
            "served",
            "offload_pct",
            "relaxed_pct",
            "p50_ms",
            "p95_ms",
            "kb_per_req",
            "accuracy_pct",
        ],
        metadata={
            "scale": scale.name,
            "offered_x": offered_x,
            "offered_rps": offered_rps,
            "capacity_rps_1worker": capacity_rps,
            "num_requests": num_requests,
            "max_batch_size": max_batch_size,
            "max_wait_s": max_wait_s,
            "seed": seed,
            "backend": backend,
            "service_calibration": "plan-timings" if calibrate else "hand-set",
            "measured_plan_batch_overhead_ms": 1e3 * measured.batch_overhead_s,
            "measured_plan_per_sample_ms": 1e3 * measured.per_sample_s,
        },
    )

    def _run_row(
        sweep: str,
        workers: int,
        bandwidth_x: float,
        row_threshold: float,
        adaptive: Optional[AdaptiveThreshold],
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
            batching=batching,
            service_models=[device_service]
            + [upper_service] * (1 + (1 if deployment.model.has_edge else 0)),
            adaptive=adaptive,
            backend=backend,
        )
        try:
            report = fabric.open_loop(
                PoissonProcess(offered_rps, seed=row_seed),
                test_set.images,
                targets=test_set.labels,
                num_requests=num_requests,
            )
        finally:
            fabric.close()
        result.add_row(
            sweep=sweep,
            workers=workers,
            bandwidth_x=bandwidth_x,
            threshold=row_threshold,
            adaptive="yes" if adaptive is not None else "no",
            served=report.served,
            offload_pct=100.0 * report.offload_fraction,
            relaxed_pct=100.0 * report.relaxed_fraction,
            p50_ms=1e3 * report.p50_latency_s,
            p95_ms=1e3 * report.p95_latency_s,
            kb_per_req=report.mean_bytes / 1e3,
            accuracy_pct=0.0 if report.accuracy is None else 100.0 * report.accuracy,
        )

    for workers in worker_counts:
        _run_row("workers", workers, 1.0, threshold, None, seed)
    for bandwidth_x in bandwidth_scales:
        _run_row("bandwidth", 2, bandwidth_x, threshold, None, seed + 1)
    for row_threshold in threshold_sweep:
        _run_row("threshold", 2, 1.0, row_threshold, None, seed + 2)
    # Adaptive shedding under a saturated single worker: matched pair with
    # the workers=1 row (same seed), adaptive off vs on.
    adaptive = AdaptiveThreshold(depth_trigger=2 * max_batch_size, relaxed_threshold=1.0)
    _run_row("adaptive", 1, 1.0, threshold, adaptive, seed)
    return result
