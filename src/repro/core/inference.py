"""Staged DDNN inference with entropy-threshold exits (paper Sections III-D/F).

Inference proceeds bottom-up through the hierarchy: the local exit evaluates
the aggregated device scores and exits every sample whose normalized entropy
is at or below the local threshold; remaining samples are (conceptually)
forwarded to the edge and finally to the cloud, whose exit always classifies.

:class:`StagedInferenceEngine` runs this procedure on an in-memory model and
produces an :class:`InferenceResult` with per-sample predictions, exit
assignments and the communication cost implied by the local exit rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from ..datasets.mvmc import MVMCDataset
from .cascade import ExitCascade, Thresholds
from .ddnn import DDNN
from .exits import ExitCriterion

__all__ = ["InferenceResult", "StagedInferenceEngine", "staged_inference"]


@dataclass
class InferenceResult:
    """Per-sample outcome of staged DDNN inference.

    Attributes
    ----------
    predictions:
        Final predicted class per sample (from whichever exit classified it).
    exit_indices:
        Index of the exit each sample used (0 = local, last = cloud).
    exit_names:
        Names of the exits, indexed by ``exit_indices`` values.
    entropies:
        Normalized entropy observed at the exit that classified each sample.
    exit_predictions:
        For reference, each exit's prediction for every sample (as if all
        samples were classified there).
    targets:
        Ground-truth labels if they were supplied.
    """

    predictions: np.ndarray
    exit_indices: np.ndarray
    exit_names: List[str]
    entropies: np.ndarray
    exit_predictions: Dict[str, np.ndarray] = field(default_factory=dict)
    targets: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def exit_fraction(self, exit_name: str) -> float:
        """Fraction of samples classified at the named exit."""
        index = self.exit_names.index(exit_name)
        if self.exit_indices.size == 0:
            return 0.0
        return float(np.mean(self.exit_indices == index))

    @property
    def local_exit_fraction(self) -> float:
        """Fraction of samples exited at the first (local) exit."""
        return self.exit_fraction(self.exit_names[0])

    def overall_accuracy(self, targets: Optional[np.ndarray] = None) -> float:
        """Accuracy of the staged predictions against the targets."""
        targets = self._resolve_targets(targets)
        return float(np.mean(self.predictions == targets))

    def exit_accuracy(self, exit_name: str, targets: Optional[np.ndarray] = None) -> float:
        """Accuracy of one exit when classifying 100% of the samples."""
        targets = self._resolve_targets(targets)
        return float(np.mean(self.exit_predictions[exit_name] == targets))

    def _resolve_targets(self, targets: Optional[np.ndarray]) -> np.ndarray:
        if targets is not None:
            return np.asarray(targets)
        if self.targets is None:
            raise ValueError("targets were not recorded; pass them explicitly")
        return self.targets


class StagedInferenceEngine:
    """Runs threshold-based multi-exit inference for a trained DDNN.

    A thin adapter over the shared :class:`~repro.core.cascade.ExitCascade`
    engine, which owns threshold normalization, the per-exit decision rule
    and the per-sample routing loop.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.ddnn.DDNN`.
    thresholds:
        One entropy threshold per non-final exit, or per exit (the final
        exit's threshold is ignored because it always classifies).  A single
        float is broadcast to all non-final exits.
    compile:
        If ``True``, forwards run through the :mod:`repro.compile` fused
        inference plan instead of the eager autograd stack (same
        predictions and routing, ~3-6x faster at serving batch sizes).
    precision:
        Compute mode for the compiled path (``"float64"`` exact default,
        ``"float32"`` tolerance mode, ``"bitpacked"`` XNOR-popcount binary
        blocks).  Only meaningful with ``compile=True``.
    """

    def __init__(
        self,
        model: DDNN,
        thresholds: Thresholds,
        batch_size: int = 64,
        compile: bool = False,
        precision: str = "float64",
    ) -> None:
        self.model = model
        self.batch_size = batch_size
        self.cascade = ExitCascade.for_model(
            model, thresholds, compile=compile, precision=precision
        )
        self.communication = self.cascade.communication

    @property
    def criteria(self) -> List[ExitCriterion]:
        """The cascade's per-exit criteria (final threshold forced to 1.0)."""
        return self.cascade.criteria

    # ------------------------------------------------------------------ #
    def run(
        self, dataset: Union[MVMCDataset, np.ndarray], targets: Optional[np.ndarray] = None
    ) -> InferenceResult:
        """Run staged inference over a dataset or raw view array."""
        if isinstance(dataset, MVMCDataset):
            views = dataset.images
            targets = dataset.labels if targets is None else targets
        else:
            views = np.asarray(dataset)

        routed = self.cascade.run_model(self.model, views, batch_size=self.batch_size)
        return InferenceResult(
            predictions=routed.predictions,
            exit_indices=routed.exit_indices,
            exit_names=routed.exit_names,
            entropies=routed.entropies,
            exit_predictions=routed.exit_predictions,
            targets=None if targets is None else np.asarray(targets),
        )

    # ------------------------------------------------------------------ #
    def communication_bytes(self, result: InferenceResult) -> float:
        """Average per-device communication per sample implied by a result."""
        return self.communication.per_device_bytes(result.local_exit_fraction)

    def communication_reduction(self, result: InferenceResult) -> float:
        """Reduction factor versus offloading raw sensor input to the cloud."""
        return self.communication.reduction_factor(result.local_exit_fraction)


def staged_inference(
    model: DDNN,
    dataset: MVMCDataset,
    thresholds: Thresholds,
    batch_size: int = 64,
    compile: bool = False,
    precision: str = "float64",
) -> InferenceResult:
    """One-call helper: build an engine, run it on the dataset, return the result."""
    engine = StagedInferenceEngine(
        model, thresholds, batch_size=batch_size, compile=compile, precision=precision
    )
    return engine.run(dataset)
