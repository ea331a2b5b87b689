"""Experiment E4 — accuracy as end devices are added (paper Figure 8).

Devices are added one at a time in order of their *individual* accuracy
(worst first), and for each device count a DDNN is trained over just those
devices.  The experiment reports the four curves of Figure 8: Individual
(the newly added device's standalone accuracy), Local, Cloud (each exit
classifying 100% of samples) and Overall (staged inference at the default
threshold).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..baselines.individual import individual_accuracies
from .results import ExperimentResult
from .runner import ExperimentScale, capture_oracle, default_scale, get_dataset, get_trained_ddnn

__all__ = ["run_scaling_devices", "compute_individual_accuracies"]

THRESHOLD = 0.8  #: Local-exit entropy threshold T the table is read at.

_INDIVIDUAL_CACHE: Dict[tuple, Dict[int, float]] = {}


def compute_individual_accuracies(scale: Optional[ExperimentScale] = None) -> Dict[int, float]:
    """Standalone accuracy of each device's individual model (paper Sec. III-F).

    Cached per scale: Figures 8 and 10 both need these baselines, and the
    devices' individual models do not depend on the DDNN under test.
    """
    scale = scale if scale is not None else default_scale()
    key = (
        scale.name,
        scale.train_samples,
        scale.test_samples,
        scale.data_seed,
        scale.num_devices,
        scale.device_filters,
        scale.individual_epochs,
        scale.model_seed,
    )
    if key not in _INDIVIDUAL_CACHE:
        train_set, test_set = get_dataset(scale)
        _INDIVIDUAL_CACHE[key] = individual_accuracies(
            train_set,
            test_set,
            filters=scale.device_filters,
            config=scale.training_config(epochs=scale.individual_epochs),
        )
    return _INDIVIDUAL_CACHE[key]


def run_scaling_devices(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Reproduce Figure 8: accuracy versus the number of end devices."""
    scale = scale if scale is not None else default_scale()
    train_set, test_set = get_dataset(scale)

    individual = compute_individual_accuracies(scale)
    ordered_devices = sorted(individual, key=individual.get)

    result = ExperimentResult(
        name="fig8_scaling_devices",
        paper_reference="Figure 8",
        columns=[
            "num_devices",
            "added_device",
            "individual_accuracy_pct",
            "local_accuracy_pct",
            "cloud_accuracy_pct",
            "overall_accuracy_pct",
            "local_exit_pct",
        ],
        metadata={
            "scale": scale.name,
            "threshold": THRESHOLD,
            "device_order": [d + 1 for d in ordered_devices],
            "individual_accuracy": {d + 1: individual[d] for d in individual},
        },
    )

    for count in range(1, len(ordered_devices) + 1):
        selected = ordered_devices[:count]
        subset_train = train_set.select_devices(selected)
        subset_test = test_set.select_devices(selected)
        config = scale.ddnn_config(num_devices=count)
        # A fresh cache key per device subset: encode the subset in the seed.
        config = type(config)(**{**config.__dict__, "seed": scale.model_seed + 100 * count})
        model, _ = _train_for_subset(scale, config, subset_train)

        oracle = capture_oracle(model, subset_test)
        exit_accuracy = oracle.exit_accuracies()
        staged = oracle.route(THRESHOLD)
        result.add_row(
            num_devices=count,
            added_device=selected[-1] + 1,
            individual_accuracy_pct=100.0 * individual[selected[-1]],
            local_accuracy_pct=100.0 * exit_accuracy["local"],
            cloud_accuracy_pct=100.0 * exit_accuracy["cloud"],
            overall_accuracy_pct=100.0 * staged.accuracy(subset_test.labels),
            local_exit_pct=100.0 * staged.local_exit_fraction,
        )
    return result


_SUBSET_CACHE: Dict[tuple, tuple] = {}


def _train_for_subset(scale: ExperimentScale, config, subset_train):
    """Train a DDNN on a device subset, caching by (scale, config) identity."""
    key = (
        scale.name,
        scale.train_samples,
        scale.epochs,
        config.num_devices,
        config.seed,
        config.scheme,
        config.device_filters,
    )
    if key not in _SUBSET_CACHE:
        from .runner import train_fresh_ddnn

        _SUBSET_CACHE[key] = train_fresh_ddnn(scale, config=config, train_set=subset_train)
    return _SUBSET_CACHE[key]
