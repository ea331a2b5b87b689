"""Real thread-pool workers behind the serving fabric: same script, two backends.

Every simulation-based example runs its workers as bookkeeping slots on a
discrete-event loop — deterministic, reproducible, but never actually
concurrent.  This example flips the worker backend to ``"thread"`` and runs
the *same* serving code on a real :class:`~concurrent.futures.ThreadPoolExecutor`
against wall-clock time:

1. train a small multi-exit DDNN on the synthetic MVMC dataset;
2. serve the test set through the tier fabric on the deterministic
   *simulated* backend (compiled forwards) — the reference routing;
3. serve it again on the *thread* backend with 1, 2 and 4 real workers per
   tier, timing each run and cross-checking that every request gets the
   same prediction and exit index (entropies agree to ~1e-12: real timing
   reshuffles upper-tier batch composition, and BLAS kernels are
   shape-dependent in the last ulp).  Speedups depend on the CPUs actually
   available — on a 1-core box threads only add overhead, which the
   printout calls out honestly.

Run with::

    PYTHONPATH=src python examples/parallel_serving.py
"""

from __future__ import annotations

import time

from repro.core import DDNNTrainer, TrainingConfig, build_ddnn
from repro.datasets import DEFAULT_DEVICE_PROFILES, load_mvmc_splits
from repro.experiments.runner import available_cpu_count
from repro.hierarchy import partition_ddnn
from repro.serving import BatchingPolicy, DistributedServingFabric
from repro.serving.invariants import routing


def main() -> None:
    num_devices = 4
    profiles = DEFAULT_DEVICE_PROFILES[:num_devices]
    train_set, test_set = load_mvmc_splits(
        train_samples=160, test_samples=60, profiles=profiles, seed=7
    )

    print("Training a small DDNN (4 devices)...")
    model = build_ddnn(
        num_devices=num_devices,
        device_filters=4,
        cloud_filters=8,
        cloud_conv_blocks=2,
        cloud_hidden_units=32,
        seed=1,
    )
    DDNNTrainer(model, TrainingConfig(epochs=10, batch_size=32, seed=0)).fit(train_set)
    model.eval()

    threshold = 0.8
    batching = BatchingPolicy(max_batch_size=8)

    # ------------------------------------------------------------------ #
    # Reference: deterministic simulated backend, compiled forwards.
    fabric = DistributedServingFabric(
        partition_ddnn(model),
        threshold,
        workers_per_tier=2,
        batching=batching,
        compile=True,
    )
    with fabric:
        reference = routing(fabric.serve_dataset(test_set))
    print(f"\nSimulated backend routed {len(reference)} requests (reference).")

    # Same fabric, real threads — routing must not change.
    cores = available_cpu_count()
    print(f"Thread backend ({cores} CPU core(s) visible):")
    for workers in (1, 2, 4):
        fabric = DistributedServingFabric(
            partition_ddnn(model),
            threshold,
            workers_per_tier=workers,
            batching=batching,
            compile=True,
            backend="thread",
        )
        with fabric:
            start = time.perf_counter()
            got = routing(fabric.serve_dataset(test_set))
            wall_ms = 1e3 * (time.perf_counter() - start)
        verdict = "identical" if got == reference else "MISMATCH"
        print(
            f"  thread backend, {workers} worker(s)/tier: {wall_ms:7.1f} ms, "
            f"routing {verdict}"
        )
        assert got == reference, "thread backend diverged from simulated routing"

    if cores < 2:
        print(
            "  (single visible core: threads can only add overhead here; "
            "run on a multi-core machine to see the scaling)"
        )


if __name__ == "__main__":
    main()
