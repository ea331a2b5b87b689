"""Experiment E9b — mixed-precision cloud (paper Section VI, future work).

The paper keeps every NN layer binary but observes that binary layers are
only *required* on the end devices; the cloud could use floating-point
layers.  This extension trains the same MP-CC architecture twice — once with
a binary cloud section and once with a float (standard) cloud section — and
compares the exit accuracies, reproducing the mixed-precision scheme the
authors propose as future work.

Each table row also cross-checks the *kernel-side* compute dtype on the
same trained model: the ``float32`` compiled mode must route in agreement
with the fp64 oracle (its ≥99.9% tolerance guarantee), so the paper-side
mixed-precision scheme (which layers are binary) and the kernel-side dtype
(what the GEMMs run in) are validated against each other in one place.
``"bitpacked"`` names the float64 plan, so the ``bitpacked_identical``
column compares that plan's logits with themselves and always reads
``yes``; it stays until the table's columns change.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..compile import routing_agreement
from .results import ExperimentResult
from .runner import ExperimentScale, capture_oracle, default_scale, get_dataset, get_trained_ddnn

__all__ = ["run_mixed_precision"]

THRESHOLD = 0.8  #: Local-exit entropy threshold T the table is read at.


def run_mixed_precision(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Binary cloud vs floating-point cloud with binary end devices."""
    scale = scale if scale is not None else default_scale()
    _, test_set = get_dataset(scale)

    result = ExperimentResult(
        name="ext_mixed_precision",
        paper_reference="Section VI (mixed precision)",
        columns=[
            "cloud_precision",
            "local_accuracy_pct",
            "cloud_accuracy_pct",
            "overall_accuracy_pct",
            "fp32_overall_accuracy_pct",
            "fp32_routing_agreement",
            "bitpacked_identical",
        ],
        metadata={"scale": scale.name, "threshold": THRESHOLD},
    )
    for label, binary_cloud in (("binary", True), ("float", False)):
        config = scale.ddnn_config(binary_cloud=binary_cloud)
        model, _ = get_trained_ddnn(scale, config=config)
        oracle = capture_oracle(model, test_set)
        accuracies = oracle.exit_accuracies()
        staged = oracle.route(THRESHOLD)

        # Kernel-side compute modes on the same trained model: fp32 carries
        # a routing-agreement tolerance; bitpacked is the float64 plan.
        fp32_oracle = capture_oracle(model, test_set, precision="float32")
        packed_oracle = capture_oracle(model, test_set, precision="bitpacked")
        fp32_staged = fp32_oracle.route(THRESHOLD)
        agreement = routing_agreement(oracle.logits, fp32_oracle.logits)
        packed_identical = np.array_equal(oracle.logits, packed_oracle.logits)

        result.add_row(
            cloud_precision=label,
            local_accuracy_pct=100.0 * accuracies["local"],
            cloud_accuracy_pct=100.0 * accuracies["cloud"],
            overall_accuracy_pct=100.0 * staged.accuracy(test_set.labels),
            fp32_overall_accuracy_pct=100.0
            * fp32_staged.accuracy(test_set.labels),
            fp32_routing_agreement=float(agreement),
            bitpacked_identical="yes" if packed_identical else "no",
        )
    return result
