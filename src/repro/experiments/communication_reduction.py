"""Experiment E7 — communication reduction vs raw offloading (paper Sec. IV-H).

The paper compares the DDNN's average per-sample communication (Eq. 1 at the
chosen threshold) against offloading the raw 32x32 RGB image (3072 bytes) and
reports an over-20x reduction.  This experiment reproduces that comparison
and also reports the cloud-only baseline's accuracy so the trade-off is
visible: the DDNN keeps (or improves) accuracy while transmitting a small
fraction of the bytes.
"""

from __future__ import annotations

from typing import Optional

from ..baselines.cloud_only import CloudOnlyBaseline
from ..core.communication import raw_offload_bytes
from .results import ExperimentResult
from .runner import ExperimentScale, capture_oracle, default_scale, get_dataset, get_trained_ddnn

__all__ = ["run_communication_reduction"]

THRESHOLD = 0.8  #: Local-exit entropy threshold T the table is read at.


def run_communication_reduction(
    scale: Optional[ExperimentScale] = None,
    include_cloud_baseline: bool = True,
) -> ExperimentResult:
    """DDNN bytes/sample and reduction factor vs the raw-offload baseline."""
    scale = scale if scale is not None else default_scale()
    train_set, test_set = get_dataset(scale)
    model, _ = get_trained_ddnn(scale)

    oracle = capture_oracle(model, test_set)
    staged = oracle.route(THRESHOLD)
    ddnn_bytes = oracle.communication_bytes(staged)
    raw_bytes = raw_offload_bytes(model.config.input_channels, model.config.input_size)

    result = ExperimentResult(
        name="sec4h_communication_reduction",
        paper_reference="Section IV-H",
        columns=[
            "system",
            "bytes_per_sample",
            "overall_accuracy_pct",
            "local_exit_pct",
            "reduction_factor",
        ],
        metadata={"scale": scale.name, "threshold": THRESHOLD},
    )
    result.add_row(
        system="ddnn",
        bytes_per_sample=ddnn_bytes,
        overall_accuracy_pct=100.0 * staged.accuracy(test_set.labels),
        local_exit_pct=100.0 * staged.local_exit_fraction,
        reduction_factor=raw_bytes / ddnn_bytes,
    )

    if include_cloud_baseline:
        baseline = CloudOnlyBaseline(
            num_devices=model.config.num_devices,
            num_classes=model.config.num_classes,
            input_channels=model.config.input_channels,
            input_size=model.config.input_size,
            device_filters=model.config.device_filters,
            cloud_filters=model.config.cloud_filters,
            cloud_conv_blocks=model.config.cloud_conv_blocks,
            cloud_hidden_units=model.config.cloud_hidden_units,
            seed=model.config.seed,
        )
        baseline.fit(train_set, scale.training_config())
        evaluation = baseline.evaluate(test_set)
        result.add_row(
            system="cloud_offload_raw",
            bytes_per_sample=evaluation.bytes_per_device_per_sample,
            overall_accuracy_pct=100.0 * evaluation.accuracy,
            local_exit_pct=0.0,
            reduction_factor=1.0,
        )
    return result
