"""Loss functions, including the multi-exit joint loss used to train DDNNs."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .functional import softmax_cross_entropy
from .tensor import Tensor

__all__ = ["softmax_cross_entropy", "joint_exit_loss"]


def joint_exit_loss(
    exit_logits: Sequence[Tensor],
    targets: np.ndarray,
    exit_weights: Optional[Sequence[float]] = None,
) -> Tensor:
    """Weighted sum of per-exit softmax cross-entropy losses (paper Sec. III-C).

    Parameters
    ----------
    exit_logits:
        Logits produced at each exit point, ordered from the earliest exit
        (local) to the last exit (cloud).
    targets:
        Integer class labels of shape ``(N,)``.
    exit_weights:
        Weight ``w_n`` for each exit.  Defaults to equal weights, as used for
        the experimental results of the paper.
    """
    if not exit_logits:
        raise ValueError("joint_exit_loss requires at least one exit")
    if exit_weights is None:
        exit_weights = [1.0] * len(exit_logits)
    if len(exit_weights) != len(exit_logits):
        raise ValueError(
            f"got {len(exit_weights)} exit weights for {len(exit_logits)} exits"
        )

    total: Optional[Tensor] = None
    for logits, weight in zip(exit_logits, exit_weights):
        loss = softmax_cross_entropy(logits, targets) * float(weight)
        total = loss if total is None else total + loss
    return total
