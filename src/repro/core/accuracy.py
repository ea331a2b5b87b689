"""Accuracy measures defined by the paper (Section III-F).

* **Local / Edge / Cloud accuracy** — accuracy when 100% of samples are
  classified at that exit.
* **Overall accuracy** — accuracy of staged inference, where each sample is
  classified at the first exit whose normalized entropy is below its
  threshold.
* **Individual accuracy** — accuracy of a per-device model trained in
  isolation (see :mod:`repro.baselines.individual`).

The exit accuracies here are a thin veneer over the forward-once
:class:`~repro.core.oracle.ExitOracle`: the model is forwarded exactly once
per (model, dataset) call.  Pass ``oracle=`` to reuse an existing capture
and skip the forward entirely; overall accuracy is
``ExitOracle.route(thresholds).overall_accuracy()``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..datasets.mvmc import MVMCDataset
from .ddnn import DDNN
from .oracle import ExitOracle

__all__ = ["evaluate_exit_accuracies"]


def evaluate_exit_accuracies(
    model: DDNN,
    dataset: MVMCDataset,
    batch_size: int = 64,
    compile: bool = False,
    oracle: Optional[ExitOracle] = None,
) -> Dict[str, float]:
    """Accuracy of each exit when classifying 100% of the dataset there."""
    resolved = ExitOracle.resolve(model, dataset, batch_size, compile, oracle)
    return resolved.exit_accuracies()
