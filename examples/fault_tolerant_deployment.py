"""Fault-tolerant deployment: run a trained DDNN on the hierarchy simulator.

This example exercises the full distributed stack rather than the monolithic
model: the trained DDNN is partitioned onto simulated end-device, gateway and
cloud nodes connected by bandwidth-constrained links, and inference is driven
by the hierarchy runtime with per-sample byte and latency accounting.  It then
injects device failures — both a dead camera and a flaky wireless link — and
reports how gracefully accuracy degrades (the paper's Figure 10 scenario).

Run with::

    python examples/fault_tolerant_deployment.py [--epochs 25]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import DDNNConfig, DDNNTrainer, TrainingConfig, build_ddnn
from repro.datasets import load_mvmc_splits
from repro.hierarchy import FaultPlan, HierarchyRuntime, partition_ddnn


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-samples", type=int, default=240)
    parser.add_argument("--test-samples", type=int, default=80)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--threshold", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args()


def describe(label: str, runtime: HierarchyRuntime, dataset) -> None:
    result = runtime.run(dataset)
    latencies = result.latencies_s
    print(f"\n{label}")
    print(f"  accuracy          : {100 * result.accuracy():.1f}%")
    print(f"  exit fractions    : " + ", ".join(
        f"{name}={100 * result.exit_fraction(name):.1f}%"
        for name in sorted(set(result.exit_names_per_sample))
    ))
    print(f"  mean latency      : {1e3 * latencies.mean():.2f} ms "
          f"(p95 {1e3 * np.percentile(latencies, 95):.2f} ms)")
    print(f"  bytes per sample  : {result.bytes_per_sample.mean():.1f} B (all devices combined)")


def main() -> None:
    args = parse_args()
    train_set, test_set = load_mvmc_splits(
        train_samples=args.train_samples, test_samples=args.test_samples, seed=args.seed
    )

    print("Training the DDNN ...")
    model = build_ddnn(
        DDNNConfig(num_devices=train_set.num_devices, device_filters=4, cloud_filters=16,
                   cloud_hidden_units=64, seed=args.seed)
    )
    DDNNTrainer(model, TrainingConfig(epochs=args.epochs, batch_size=32)).fit(train_set)

    print("Partitioning the DDNN onto simulated devices, gateway and cloud ...")
    deployment = partition_ddnn(model)
    print(f"  nodes: {[d.name for d in deployment.devices]} + "
          f"{deployment.local_aggregator.name} + {deployment.cloud.name}")
    print(f"  links: {len(deployment.fabric.links())}")

    describe(
        "Healthy system",
        HierarchyRuntime(deployment, args.threshold),
        test_set,
    )

    # A dead camera: the best-placed device (index 5) stops transmitting and
    # the dataset the system observes has that camera blanked out.
    dead_device = test_set.num_devices - 1
    degraded_data = test_set.with_failed_devices([dead_device])
    describe(
        f"Device {dead_device + 1} failed (dead camera)",
        HierarchyRuntime(
            partition_ddnn(model), args.threshold, fault_plan=FaultPlan(failed_devices={dead_device})
        ),
        degraded_data,
    )

    # A flaky wireless link: device 3 drops half of its transmissions.
    describe(
        "Device 3 on a flaky link (50% sample loss)",
        HierarchyRuntime(
            partition_ddnn(model), args.threshold, fault_plan=FaultPlan(intermittent={2: 0.5}, seed=1)
        ),
        test_set,
    )

    # Half of the fleet lost.
    lost = list(range(test_set.num_devices // 2))
    describe(
        f"Devices {[d + 1 for d in lost]} all failed",
        HierarchyRuntime(
            partition_ddnn(model), args.threshold, fault_plan=FaultPlan(failed_devices=set(lost))
        ),
        test_set.with_failed_devices(lost),
    )


if __name__ == "__main__":
    main()
