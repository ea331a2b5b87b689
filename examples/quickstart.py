"""Quickstart: train a small DDNN and run threshold-based distributed inference.

This is the five-minute tour of the library:

1. generate a synthetic multi-view multi-camera dataset (6 cameras, 3 classes);
2. build the paper's evaluation architecture (binary ConvP/FC device blocks,
   MP local aggregation, CC cloud aggregation);
3. jointly train all exits with the weighted multi-exit loss;
4. forward the test set once (:class:`ExitOracle`), route it with a
   normalized-entropy threshold and report the accuracy / communication
   trade-off.

Run with::

    python examples/quickstart.py [--epochs 30] [--train-samples 300]
"""

from __future__ import annotations

import argparse

from repro.core import (
    CommunicationModel,
    DDNNConfig,
    DDNNTrainer,
    ExitOracle,
    TrainingConfig,
    build_ddnn,
)
from repro.datasets import load_mvmc_splits


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-samples", type=int, default=240)
    parser.add_argument("--test-samples", type=int, default=80)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--device-filters", type=int, default=4)
    parser.add_argument("--threshold", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args()


def main() -> None:
    args = parse_args()

    print("Generating the synthetic multi-view multi-camera dataset ...")
    train_set, test_set = load_mvmc_splits(
        train_samples=args.train_samples, test_samples=args.test_samples, seed=args.seed
    )
    print(f"  train: {len(train_set)} samples, test: {len(test_set)} samples, "
          f"{train_set.num_devices} devices")

    config = DDNNConfig(
        num_devices=train_set.num_devices,
        device_filters=args.device_filters,
        cloud_filters=16,
        cloud_hidden_units=64,
        local_aggregation="MP",
        cloud_aggregation="CC",
        seed=args.seed,
    )
    model = build_ddnn(config)
    print(f"Built DDNN: {model.summary()}")
    print(f"  per-device memory: {max(model.device_memory_bytes()):.1f} B (< 2 KB)")

    print(f"Jointly training all exits for {args.epochs} epochs ...")
    trainer = DDNNTrainer(
        model, TrainingConfig(epochs=args.epochs, batch_size=32, verbose=True, log_every=5)
    )
    trainer.fit(train_set)

    oracle = ExitOracle.capture(model, test_set)
    print("\nExit accuracies (100% of samples classified at each exit):")
    for name, value in oracle.exit_accuracies().items():
        print(f"  {name:>6}: {100 * value:.1f}%")

    result = oracle.route(args.threshold)
    communication = CommunicationModel(config)
    print(f"\nStaged inference with T = {args.threshold}:")
    print(f"  overall accuracy:     {100 * result.accuracy():.1f}%")
    print(f"  exited locally:       {100 * result.local_exit_fraction:.1f}%")
    print(f"  comm. per device:     {oracle.communication_bytes(result):.1f} B/sample")
    print(f"  raw offload baseline: {communication.raw_offload_per_device_bytes():.0f} B/sample "
          f"({communication.reduction_factor(result.local_exit_fraction):.1f}x reduction)")


if __name__ == "__main__":
    main()
