"""Classification metrics used across the evaluation harness."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of predictions matching the targets.

    ``predictions`` may be class indices of shape ``(N,)`` or logits /
    probabilities of shape ``(N, num_classes)``.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"prediction shape {predictions.shape} does not match target shape {targets.shape}"
        )
    if predictions.size == 0:
        return 0.0
    return float(np.mean(predictions == targets))
