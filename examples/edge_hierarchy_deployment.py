"""Three-tier deployment: devices, an edge gateway and the cloud (Fig. 2 (e)).

The paper's evaluation uses the device+cloud configuration; this example
demonstrates the vertical-scaling story with an explicit edge tier:

* each camera runs its binary ConvP/FC section locally;
* the local aggregator may exit easy samples immediately;
* harder samples are forwarded to the *edge*, which runs further binary
  layers and may exit;
* only the hardest samples reach the cloud.

The example trains the three-exit DDNN jointly, partitions it onto the
simulated hierarchy and reports per-tier exit rates, latency and bytes.

Run with::

    python examples/edge_hierarchy_deployment.py [--epochs 25]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import (
    DDNNConfig,
    DDNNTopology,
    DDNNTrainer,
    StagedInferenceEngine,
    TrainingConfig,
    build_ddnn,
    evaluate_exit_accuracies,
)
from repro.datasets import load_mvmc_splits
from repro.hierarchy import HierarchyRuntime, partition_ddnn


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-samples", type=int, default=240)
    parser.add_argument("--test-samples", type=int, default=80)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--local-threshold", type=float, default=0.7)
    parser.add_argument("--edge-threshold", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    train_set, test_set = load_mvmc_splits(
        train_samples=args.train_samples, test_samples=args.test_samples, seed=args.seed
    )

    config = DDNNConfig(
        num_devices=train_set.num_devices,
        device_filters=4,
        edge_filters=8,
        cloud_filters=16,
        cloud_hidden_units=64,
        topology=DDNNTopology.from_name("devices_edge_cloud"),
        seed=args.seed,
    )
    model = build_ddnn(config)
    print(f"Built three-exit DDNN: exits = {model.exit_names}")

    print(f"Training for {args.epochs} epochs ...")
    DDNNTrainer(model, TrainingConfig(epochs=args.epochs, batch_size=32)).fit(train_set)

    accuracies = evaluate_exit_accuracies(model, test_set)
    print("\nExit accuracies (100% of samples at each exit):")
    for name, value in accuracies.items():
        print(f"  {name:>6}: {100 * value:.1f}%")

    thresholds = [args.local_threshold, args.edge_threshold]
    staged = StagedInferenceEngine(model, thresholds).run(test_set)
    print(f"\nStaged inference with T_local={args.local_threshold}, T_edge={args.edge_threshold}:")
    print(f"  overall accuracy : {100 * staged.overall_accuracy(test_set.labels):.1f}%")
    for name in model.exit_names:
        print(f"  exited at {name:>6}: {100 * staged.exit_fraction(name):.1f}%")

    print("\nRunning the same inference over the simulated hierarchy ...")
    deployment = partition_ddnn(model)
    runtime = HierarchyRuntime(deployment, thresholds)
    distributed = runtime.run(test_set)
    latencies = distributed.latencies_s
    print(f"  accuracy          : {100 * distributed.accuracy():.1f}%")
    print(f"  mean latency      : {1e3 * latencies.mean():.2f} ms "
          f"(p95 {1e3 * np.percentile(latencies, 95):.2f} ms)")
    print(f"  bytes per sample  : {distributed.bytes_per_sample.mean():.1f} B "
          "(all devices combined)")
    print("  bytes by uplink   :")
    for link in deployment.fabric.links():
        if link.stats.bytes_transferred:
            print(f"    {link.source:>9} -> {link.destination:<9}: "
                  f"{link.stats.bytes_transferred:10.0f} B over {link.stats.messages} messages")


if __name__ == "__main__":
    main()
