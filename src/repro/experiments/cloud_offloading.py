"""Experiment E5 — accuracy vs communication as device size grows (paper Figure 9).

The number of filters in the end-device ConvP blocks is swept; for each
setting the local exit threshold is chosen so that roughly 75% of samples
exit locally (as in the paper), and the experiment reports local, cloud and
overall accuracy against the communication cost of Eq. 1.  The per-device
memory footprint is also recorded to check the paper's "< 2 KB" constraint.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.threshold import threshold_for_exit_rate
from .results import ExperimentResult
from .runner import ExperimentScale, capture_oracle, default_scale, get_dataset, get_trained_ddnn

__all__ = ["run_cloud_offloading", "DEFAULT_FILTER_SWEEP"]

#: Device filter counts swept in the reproduction of Figure 9.
DEFAULT_FILTER_SWEEP = (1, 2, 4, 8)
TARGET_LOCAL_EXIT = 0.75  #: Local exit rate each threshold is calibrated to.


def run_cloud_offloading(
    scale: Optional[ExperimentScale] = None,
    filter_sweep: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Reproduce Figure 9: accuracy and communication vs device filters."""
    scale = scale if scale is not None else default_scale()
    filter_sweep = tuple(filter_sweep) if filter_sweep is not None else DEFAULT_FILTER_SWEEP
    train_set, test_set = get_dataset(scale)

    result = ExperimentResult(
        name="fig9_cloud_offloading",
        paper_reference="Figure 9",
        columns=[
            "device_filters",
            "threshold",
            "local_exit_pct",
            "communication_bytes",
            "local_accuracy_pct",
            "cloud_accuracy_pct",
            "overall_accuracy_pct",
            "device_memory_bytes",
        ],
        metadata={"scale": scale.name, "target_local_exit": TARGET_LOCAL_EXIT},
    )

    for filters in filter_sweep:
        config = scale.ddnn_config(device_filters=filters)
        model, _ = get_trained_ddnn(scale, config=config)
        # Pick the threshold whose local exit rate is closest to the target,
        # calibrating on the training split (acting as validation).  The
        # oracle makes the whole 21-point calibration one forward pass.
        search = threshold_for_exit_rate(
            model, train_set, TARGET_LOCAL_EXIT, oracle=capture_oracle(model, train_set)
        )
        threshold = search.best_threshold

        # One test-set forward answers the exit accuracies, the staged
        # routing and the communication cost (previously two forwards).
        oracle = capture_oracle(model, test_set)
        exit_accuracy = oracle.exit_accuracies()
        staged = oracle.route(threshold)
        result.add_row(
            device_filters=filters,
            threshold=threshold,
            local_exit_pct=100.0 * staged.local_exit_fraction,
            communication_bytes=oracle.communication_bytes(staged),
            local_accuracy_pct=100.0 * exit_accuracy["local"],
            cloud_accuracy_pct=100.0 * exit_accuracy["cloud"],
            overall_accuracy_pct=100.0 * staged.accuracy(test_set.labels),
            device_memory_bytes=max(model.device_memory_bytes()),
        )
    return result
