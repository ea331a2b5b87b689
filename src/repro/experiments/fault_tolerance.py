"""Experiment E6 — fault tolerance under device failures (paper Figure 10).

A six-device MP-CC DDNN is trained once; then, for each device in turn, that
device is failed (its views are blanked, exactly what the network sees for an
absent object) and the system's Local, Cloud and Overall accuracies are
re-measured.  The failed device's individual accuracy is reported alongside,
as in the paper's figure.  A second sweep removes an increasing number of the
best devices to show graceful degradation (discussed in Section IV-G).
"""

from __future__ import annotations

from typing import Dict, Optional

from .results import ExperimentResult
from .runner import ExperimentScale, capture_oracle, default_scale, get_dataset, get_trained_ddnn
from .scaling_devices import compute_individual_accuracies

__all__ = ["run_fault_tolerance", "run_multi_device_failures"]

THRESHOLD = 0.8  #: Local-exit entropy threshold T the table is read at.
MAX_FAILURES = 3  #: Most devices failed at once by :func:`run_multi_device_failures`.


def run_fault_tolerance(
    scale: Optional[ExperimentScale] = None,
    individual: Optional[Dict[int, float]] = None,
) -> ExperimentResult:
    """Reproduce Figure 10: accuracy with each single end device failed."""
    scale = scale if scale is not None else default_scale()
    _, test_set = get_dataset(scale)
    model, _ = get_trained_ddnn(scale)
    if individual is None:
        individual = compute_individual_accuracies(scale)

    result = ExperimentResult(
        name="fig10_fault_tolerance",
        paper_reference="Figure 10",
        columns=[
            "failed_device",
            "individual_accuracy_pct",
            "local_accuracy_pct",
            "cloud_accuracy_pct",
            "overall_accuracy_pct",
            "local_exit_pct",
        ],
        metadata={"scale": scale.name, "threshold": THRESHOLD},
    )

    for device_index in range(test_set.num_devices):
        degraded = test_set.with_failed_devices([device_index])
        # One forward of the degraded set answers both the per-exit and the
        # staged measures (previously two forwards per failed device).
        oracle = capture_oracle(model, degraded)
        exit_accuracy = oracle.exit_accuracies()
        staged = oracle.route(THRESHOLD)
        result.add_row(
            failed_device=device_index + 1,
            individual_accuracy_pct=100.0 * individual.get(device_index, float("nan")),
            local_accuracy_pct=100.0 * exit_accuracy["local"],
            cloud_accuracy_pct=100.0 * exit_accuracy["cloud"],
            overall_accuracy_pct=100.0 * staged.accuracy(degraded.labels),
            local_exit_pct=100.0 * staged.local_exit_fraction,
        )
    return result


def run_multi_device_failures(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Graceful degradation: fail an increasing number of devices (Sec. IV-G)."""
    scale = scale if scale is not None else default_scale()
    _, test_set = get_dataset(scale)
    model, _ = get_trained_ddnn(scale)
    individual = compute_individual_accuracies(scale)
    # Fail the strongest devices first — the paper's worst case.
    order = sorted(individual, key=individual.get, reverse=True)

    result = ExperimentResult(
        name="multi_device_failures",
        paper_reference="Section IV-G",
        columns=[
            "num_failed",
            "failed_devices",
            "local_accuracy_pct",
            "cloud_accuracy_pct",
            "overall_accuracy_pct",
        ],
        metadata={"scale": scale.name, "threshold": THRESHOLD},
    )
    for count in range(0, MAX_FAILURES + 1):
        failed = order[:count]
        degraded = test_set.with_failed_devices(failed) if failed else test_set
        oracle = capture_oracle(model, degraded)
        exit_accuracy = oracle.exit_accuracies()
        staged = oracle.route(THRESHOLD)
        result.add_row(
            num_failed=count,
            failed_devices=",".join(str(d + 1) for d in failed) if failed else "-",
            local_accuracy_pct=100.0 * exit_accuracy["local"],
            cloud_accuracy_pct=100.0 * exit_accuracy["cloud"],
            overall_accuracy_pct=100.0 * staged.accuracy(degraded.labels),
        )
    return result
