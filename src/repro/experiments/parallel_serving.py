"""Experiment S4 — wall-clock parallel serving on real thread-pool workers.

Every other serving study in this repo reports *simulated* time: workers
are bookkeeping slots on a discrete-event loop and no two forwards ever
execute together.  This study measures the real thing — the
``backend="thread"`` worker pools behind
:class:`~repro.serving.fabric.DistributedServingFabric` running per-worker
:class:`~repro.compile.CompiledDDNN` plan bundles on a
:class:`~concurrent.futures.ThreadPoolExecutor` — and answers two
questions:

* **equivalence** — the thread backend must route every request exactly
  like the deterministic simulated backend (same prediction and exit index
  per request, at any worker count).  The rows record the cross-check and
  the run *raises* on any mismatch, so a passing table is itself evidence.
  Entropy *floats* are deliberately left out of the byte-for-byte check:
  real timing changes which requests share an upper-tier batch, and BLAS
  kernels pick shape-dependent summation orders, so per-row logits (and
  hence entropies) wobble by a few ULPs across batch compositions while
  the decisions they induce stay identical.
* **scaling** — wall-clock throughput versus worker count (1/2/4 threads)
  on compiled batch-1 forwards.  The forwards are GEMM-dominated numpy
  kernels that release the GIL, so on a multi-core machine throughput
  scales with threads; a deliberately heavier-than-CI model keeps the
  per-forward cost compute-bound rather than Python-overhead-bound.

Wall-clock rows are machine-dependent by nature; the metadata records the
visible CPU count so a reader (or the benchmark's scaling assertion) can
judge the speedups against the cores that were actually available.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..core.ddnn import build_ddnn
from ..hierarchy.partition import LinkSpec, partition_ddnn
from ..serving import BatchingPolicy, DistributedServingFabric
from ..serving.invariants import routing
from .results import ExperimentResult
from .runner import (
    ExperimentScale,
    available_cpu_count,
    default_scale,
    get_dataset,
    get_trained_ddnn,
)

__all__ = ["DEFAULT_PARALLEL_WORKER_COUNTS", "run_parallel_serving"]

DEFAULT_PARALLEL_WORKER_COUNTS = (1, 2, 4)

#: Heavier-than-CI model geometry for the scaling rows: wide enough that a
#: batch-1 forward is dominated by GIL-releasing GEMMs (~5-10 ms) instead of
#: Python dispatch, so thread scaling reflects the hardware.
SCALING_MODEL_OVERRIDES = dict(device_filters=24, cloud_filters=48, cloud_hidden_units=256)

#: Effectively-free links for the scaling fabric: the study measures compute
#: concurrency, not simulated transfer delays.
FAST_LINK = LinkSpec(bandwidth_bytes_per_s=1e15, latency_s=0.0)


def run_parallel_serving(
    scale: Optional[ExperimentScale] = None,
    threshold: float = 0.8,
    worker_counts: Sequence[int] = DEFAULT_PARALLEL_WORKER_COUNTS,
    num_requests: int = 96,
    rounds: int = 2,
) -> ExperimentResult:
    """Measure thread-backend routing equivalence and wall-clock scaling."""
    scale = scale if scale is not None else default_scale()
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    worker_counts = [int(count) for count in worker_counts]
    if any(count < 1 for count in worker_counts):
        raise ValueError(f"worker counts must be >= 1, got {worker_counts}")

    _, test_set = get_dataset(scale)
    result = ExperimentResult(
        name="parallel_serving",
        paper_reference="Wall-clock parallel serving (thread-pool workers)",
        columns=[
            "sweep",
            "backend",
            "workers",
            "requests",
            "wall_ms",
            "throughput_rps",
            "speedup_x",
            "routing_match",
        ],
        metadata={
            "scale": scale.name,
            "threshold": threshold,
            "num_requests": num_requests,
            "rounds": rounds,
            "cpu_count": available_cpu_count(),
            "scaling_model": dict(SCALING_MODEL_OVERRIDES),
            "note": (
                "wall-clock rows are machine-dependent; interpret speedup_x "
                "against cpu_count"
            ),
        },
    )

    # ------------------------------------------------------------------ #
    # Equivalence: the trained CI model served through the fabric on the
    # deterministic simulated backend, then on real threads at every worker
    # count — routing must match byte for byte.
    model, _ = get_trained_ddnn(scale)
    reference = None
    equivalence_plans = [("simulated", 2)] + [("thread", count) for count in worker_counts]
    for backend, workers in equivalence_plans:
        fabric = DistributedServingFabric(
            partition_ddnn(model),
            threshold,
            workers_per_tier=workers,
            batching=BatchingPolicy(max_batch_size=8),
            compile=True,
            backend=backend,
        )
        try:
            start = time.perf_counter()
            responses = fabric.serve_dataset(test_set)
            wall = time.perf_counter() - start
        finally:
            fabric.close()
        routed = routing(responses)
        if reference is None:
            reference = routed
            match = "ref"
        elif routed == reference:
            match = "yes"
        else:
            mismatches = sum(1 for a, b in zip(routed, reference) if a != b)
            raise RuntimeError(
                f"thread backend ({workers} workers) routed {mismatches}/"
                f"{len(reference)} requests differently from the simulated "
                "backend — the backends must be byte-identical"
            )
        result.add_row(
            sweep="equivalence",
            backend=backend,
            workers=workers,
            requests=len(responses),
            wall_ms=1e3 * wall,
            throughput_rps=len(responses) / wall if wall > 0 else 0.0,
            speedup_x=0.0,
            routing_match=match,
        )

    # ------------------------------------------------------------------ #
    # Scaling: untrained heavy model (weights don't matter for timing),
    # batch-1 compiled forwards, best-of-rounds wall clock.
    heavy = build_ddnn(scale.ddnn_config(**SCALING_MODEL_OVERRIDES))
    heavy.eval()
    requests = [test_set.images[index % len(test_set)] for index in range(num_requests)]

    def _fabric_run(workers: int) -> float:
        best = float("inf")
        for _ in range(rounds):
            fabric = DistributedServingFabric(
                partition_ddnn(
                    heavy, local_link=FAST_LINK, uplink=FAST_LINK, edge_link=FAST_LINK
                ),
                threshold,
                workers_per_tier=workers,
                batching=BatchingPolicy(max_batch_size=1),
                compile=True,
                backend="thread",
            )
            try:
                start = time.perf_counter()
                fabric.submit_many(requests)
                fabric.run_until_idle(drain=True)
                best = min(best, time.perf_counter() - start)
            finally:
                fabric.close()
        return best

    base_rps = None
    for workers in worker_counts:
        wall = _fabric_run(workers)
        rps = num_requests / wall
        if base_rps is None:
            base_rps = rps
        result.add_row(
            sweep="fabric",
            backend="thread",
            workers=workers,
            requests=num_requests,
            wall_ms=1e3 * wall,
            throughput_rps=rps,
            speedup_x=rps / base_rps,
            routing_match="-",
        )
    return result
