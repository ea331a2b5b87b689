"""Experiment E8 — exit-weight sensitivity ablation (paper Section IV-A).

The paper trains with equal weights for the local and cloud exit losses and
notes that heavily weighting either exit "did not significantly change the
accuracy of the system".  This ablation reproduces that check by training the
same MP-CC architecture with equal, local-heavy and cloud-heavy weights and
reporting the exit accuracies of each run.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .results import ExperimentResult
from .runner import ExperimentScale, capture_oracle, default_scale, get_dataset, get_trained_ddnn

__all__ = ["run_weight_ablation", "DEFAULT_WEIGHTINGS"]

#: (name, (local weight, cloud weight)) settings compared in the ablation.
DEFAULT_WEIGHTINGS: Tuple[Tuple[str, Tuple[float, float]], ...] = (
    ("equal", (1.0, 1.0)),
    ("local-heavy", (4.0, 1.0)),
    ("cloud-heavy", (1.0, 4.0)),
)

THRESHOLD = 0.8  #: Local-exit entropy threshold T the table is read at.


def run_weight_ablation(
    scale: Optional[ExperimentScale] = None,
    weightings: Optional[Sequence[Tuple[str, Tuple[float, float]]]] = None,
) -> ExperimentResult:
    """Train the default DDNN under different exit-loss weightings."""
    scale = scale if scale is not None else default_scale()
    weightings = tuple(weightings) if weightings is not None else DEFAULT_WEIGHTINGS
    _, test_set = get_dataset(scale)

    result = ExperimentResult(
        name="ablation_exit_weights",
        paper_reference="Section IV-A (weight sensitivity)",
        columns=[
            "weighting",
            "local_weight",
            "cloud_weight",
            "local_accuracy_pct",
            "cloud_accuracy_pct",
            "overall_accuracy_pct",
        ],
        metadata={"scale": scale.name, "threshold": THRESHOLD},
    )
    for name, (local_weight, cloud_weight) in weightings:
        training = scale.training_config(exit_weights=(local_weight, cloud_weight))
        model, _ = get_trained_ddnn(scale, training=training)
        oracle = capture_oracle(model, test_set)
        accuracies = oracle.exit_accuracies()
        staged = oracle.route(THRESHOLD)
        result.add_row(
            weighting=name,
            local_weight=local_weight,
            cloud_weight=cloud_weight,
            local_accuracy_pct=100.0 * accuracies["local"],
            cloud_accuracy_pct=100.0 * accuracies["cloud"],
            overall_accuracy_pct=100.0 * staged.accuracy(test_set.labels),
        )
    return result
