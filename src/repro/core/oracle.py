"""Forward-once evaluation plane: the per-exit logit cache (``ExitOracle``).

Every offline result of the paper — Table II's threshold sweep, Figure 9's
calibrated offloading points, Figure 10's fault-tolerance rows, all the exit
accuracy reports — is a function of a single quantity: the per-exit logits of
a fixed model on a fixed dataset.  The entropy-threshold cascade never looks
at the inputs again once the logits exist; routing is pure numpy over the
``(num_exits, N)`` entropy matrix.

:class:`ExitOracle` exploits that: :meth:`ExitOracle.capture` runs the
forward pass **once** (batched, compiled by default) and stores every exit's
logits, argmax predictions and normalized entropies.  From the cache,

* :meth:`route` reproduces :meth:`~repro.core.cascade.ExitCascade.run_model`
  routing *byte-identically* (first exit at-or-below threshold, final exit
  forced) without touching the model;
* :meth:`sweep` answers an entire threshold grid in ``O(num_exits x N)``
  numpy per grid point — a 21-point calibration costs one forward instead
  of 21;
* :meth:`exit_accuracies` / :meth:`accuracy_report` replace the
  double-forward ``evaluate_exit_accuracies`` + engine-run pattern;
* :meth:`exit_rate_cdf` / :meth:`quantile_threshold` read local-exit rates
  straight off the empirical entropy CDF, making exit-rate calibration an
  exact quantile lookup.

Byte-identity with the eager cascade holds because every per-sample quantity
(softmax, entropy, argmax) is computed row-wise by the same code paths on the
same logits: the oracle forwards the dataset in the same ``batch_size``
chunks the engine would, so even BLAS batch-blocking effects are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..datasets.mvmc import MVMCDataset
from ..nn.tensor import Tensor, no_grad
from .cascade import Thresholds, normalize_thresholds
from .communication import CommunicationModel
from .ddnn import DDNN
from .exits import exit_statistics
from .inference import InferenceResult

__all__ = ["ExitOracle", "SweepPoint", "SweepTable"]


@dataclass
class SweepPoint:
    """Cascade metrics at one (broadcast) threshold of a sweep grid."""

    threshold: float
    overall_accuracy: float
    local_exit_fraction: float
    communication_bytes: Optional[float]
    exit_fractions: Dict[str, float] = field(default_factory=dict)


@dataclass
class SweepTable:
    """Vectorized answers for a whole threshold grid (one row per point)."""

    thresholds: np.ndarray  # (G,)
    overall_accuracy: np.ndarray  # (G,)
    local_exit_fraction: np.ndarray  # (G,)
    exit_fractions: np.ndarray  # (G, num_exits)
    exit_names: List[str]
    communication_bytes: Optional[np.ndarray] = None  # (G,) if a comm model exists

    def __len__(self) -> int:
        return len(self.thresholds)

    def points(self) -> List[SweepPoint]:
        """The table as one :class:`SweepPoint` per grid threshold."""
        rows = []
        for i in range(len(self.thresholds)):
            rows.append(
                SweepPoint(
                    threshold=float(self.thresholds[i]),
                    overall_accuracy=float(self.overall_accuracy[i]),
                    local_exit_fraction=float(self.local_exit_fraction[i]),
                    communication_bytes=(
                        None
                        if self.communication_bytes is None
                        else float(self.communication_bytes[i])
                    ),
                    exit_fractions={
                        name: float(self.exit_fractions[i, j])
                        for j, name in enumerate(self.exit_names)
                    },
                )
            )
        return rows


class ExitOracle:
    """One forward pass, every offline evaluation answer.

    Attributes
    ----------
    logits:
        ``(num_exits, N, num_classes)`` float64 — every exit's logits for
        every sample.
    predictions:
        ``(num_exits, N)`` int64 — each exit's argmax prediction, computed
        from the softmax probabilities exactly as the cascade's
        :class:`~repro.core.exits.ExitCriterion` does.
    entropies:
        ``(num_exits, N)`` float64 — normalized entropies in ``[0, 1]``.
    targets:
        ``(N,)`` ground-truth labels if the capture source carried them.

    Use :meth:`capture` to build one; the constructor accepts pre-computed
    arrays so tests and simulators can synthesize oracles directly.
    """

    def __init__(
        self,
        logits: np.ndarray,
        exit_names: Sequence[str],
        targets: Optional[np.ndarray] = None,
        communication: Optional[CommunicationModel] = None,
    ) -> None:
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 3:
            raise ValueError(
                f"expected logits of shape (num_exits, N, num_classes), got {logits.shape}"
            )
        if logits.shape[0] != len(exit_names):
            raise ValueError(
                f"{logits.shape[0]} logit blocks but {len(exit_names)} exit names"
            )
        self.logits = logits
        self.exit_names = list(exit_names)
        self.targets = None if targets is None else np.asarray(targets)
        self.communication = communication

        _, self.entropies, predictions = exit_statistics(logits)
        self.predictions = predictions.astype(np.int64)
        # Local-exit entropies sorted once: exit-rate CDF lookups and quantile
        # calibration are O(log N) searchsorted calls from here on.
        self._sorted_local_entropies = np.sort(self.entropies[0])

    # ------------------------------------------------------------------ #
    @classmethod
    def capture(
        cls,
        model: DDNN,
        dataset: Union[MVMCDataset, np.ndarray],
        targets: Optional[np.ndarray] = None,
        batch_size: int = 64,
        compile: bool = True,
        precision: str = "float64",
    ) -> "ExitOracle":
        """Run the one batched forward pass and cache every exit's logits.

        ``compile=True`` (the default) runs the shared
        :mod:`repro.compile` plan from the process-wide plan cache; the
        forward happens in ``batch_size`` chunks — the same chunks
        :class:`~repro.core.inference.StagedInferenceEngine` would use — so
        captured logits are byte-identical to what the engine at the same
        ``compile`` setting would see.  ``precision`` selects the compiled
        compute mode (exact ``"float64"`` default, tolerance ``"float32"``,
        ``"bitpacked"``); the cached logit matrix is always stored as
        float64 regardless of the compute mode.
        """
        if isinstance(dataset, MVMCDataset):
            views = dataset.images
            if targets is None:
                targets = dataset.labels
        else:
            views = np.asarray(dataset)

        plan = None
        if compile:
            from ..compile.cache import compiled_plan_for

            plan = compiled_plan_for(model, precision)

        num_samples = len(views)
        exit_names = list(model.exit_names)
        logits: Optional[np.ndarray] = None

        model.eval()
        with no_grad():
            for start in range(0, num_samples, batch_size):
                stop = min(start + batch_size, num_samples)
                chunk = views[start:stop]
                output = plan(chunk) if plan is not None else model(chunk)
                for index, exit_logits in enumerate(output.exit_logits):
                    block = exit_logits.data if isinstance(exit_logits, Tensor) else exit_logits
                    if logits is None:
                        logits = np.empty(
                            (len(exit_names), num_samples, block.shape[-1]), dtype=np.float64
                        )
                    # Copy out of the plan's arena: compiled outputs are views
                    # that the next chunk's forward overwrites.
                    logits[index, start:stop] = block

        if logits is None:  # empty dataset
            logits = np.zeros((len(exit_names), 0, max(model.config.num_classes, 2)))
        return cls(
            logits,
            exit_names,
            targets=targets,
            communication=CommunicationModel(model.config),
        )

    @classmethod
    def resolve(
        cls,
        model: DDNN,
        dataset: Union[MVMCDataset, np.ndarray],
        batch_size: int = 64,
        compile: bool = False,
        oracle: Optional["ExitOracle"] = None,
        precision: str = "float64",
    ) -> "ExitOracle":
        """Return ``oracle`` unchanged if given, else capture a fresh one.

        The shared resolve-or-capture step behind every ``oracle=`` kwarg in
        :mod:`repro.core.accuracy` and :mod:`repro.core.threshold`.
        """
        if oracle is not None:
            return oracle
        return cls.capture(
            model, dataset, batch_size=batch_size, compile=compile, precision=precision
        )

    # ------------------------------------------------------------------ #
    @property
    def num_exits(self) -> int:
        return len(self.exit_names)

    @property
    def num_samples(self) -> int:
        return self.logits.shape[1]

    def _require_targets(self, targets: Optional[np.ndarray]) -> np.ndarray:
        if targets is not None:
            return np.asarray(targets)
        if self.targets is None:
            raise ValueError("targets were not captured; pass them explicitly")
        return self.targets

    def _normalized(self, thresholds: Thresholds) -> np.ndarray:
        """Per-exit thresholds with the engine's full validation.

        :func:`normalize_thresholds` rejects bool/NaN/negative; the engine
        additionally rejects non-final thresholds above 1.0 when it builds
        its :class:`~repro.core.exits.ExitCriterion` list.  Mirror that here
        so a typo'd threshold (80 instead of 0.80) fails loudly instead of
        producing a plausible everything-exits-locally table.
        """
        values = normalize_thresholds(thresholds, self.num_exits)
        for value in values:
            if value > 1.0:
                raise ValueError(f"threshold must lie in [0, 1], got {value}")
        return np.array(values)

    def _first_exits(self, threshold_matrix: np.ndarray) -> np.ndarray:
        """First confident exit per (grid row, sample); final exit forced.

        ``threshold_matrix`` has shape ``(G, num_exits)``; the result is
        ``(G, N)`` int64.  This is exactly the
        :class:`~repro.core.cascade.CascadeRouter` rule — a sample leaves at
        the earliest exit with ``entropy <= threshold`` and the last exit
        claims whatever remains — evaluated as an argmax over a boolean
        mask instead of a per-tier loop.
        """
        confident = self.entropies[None, :, :] <= threshold_matrix[:, :, None]
        confident[:, -1, :] = True
        return np.argmax(confident, axis=1).astype(np.int64)

    # ------------------------------------------------------------------ #
    def route(self, thresholds: Thresholds) -> InferenceResult:
        """Replay cascade routing for one threshold setting — no model call.

        Byte-identical to
        ``StagedInferenceEngine(model, thresholds, batch_size).run(dataset)``
        at the capture's ``compile`` setting: predictions, exit indices and
        entropies match element for element.
        """
        values = self._normalized(thresholds)
        exit_indices = self._first_exits(values[None, :])[0]
        sample_axis = np.arange(self.num_samples)
        return InferenceResult(
            predictions=self.predictions[exit_indices, sample_axis],
            exit_indices=exit_indices,
            exit_names=list(self.exit_names),
            entropies=self.entropies[exit_indices, sample_axis],
            # Copies, not views: the engine returned fresh arrays, and a
            # caller mutating its result must not corrupt this cache.
            exit_predictions={
                name: self.predictions[index].copy()
                for index, name in enumerate(self.exit_names)
            },
            targets=None if self.targets is None else self.targets.copy(),
        )

    def sweep(
        self, grid: Sequence[float], targets: Optional[np.ndarray] = None
    ) -> SweepTable:
        """Cascade metrics for every (broadcast) threshold of a grid at once.

        Each grid value is broadcast across the non-final exits exactly as a
        scalar threshold passed to the engine would be; per-point results are
        identical to running the engine per threshold, but the whole grid
        costs ``O(num_exits x N)`` numpy per point and zero forwards.
        """
        targets = self._require_targets(targets)
        grid_values = np.array([float(value) for value in grid], dtype=np.float64)
        matrix = np.stack([self._normalized(float(v)) for v in grid_values])
        first_exits = self._first_exits(matrix)  # (G, N)
        chosen = self.predictions[first_exits, np.arange(self.num_samples)[None, :]]
        overall = (chosen == targets[None, :]).mean(axis=1) if self.num_samples else np.zeros(len(grid_values))
        exit_fractions = np.stack(
            [(first_exits == index).mean(axis=1) if self.num_samples else np.zeros(len(grid_values))
             for index in range(self.num_exits)],
            axis=1,
        )
        communication = None
        if self.communication is not None:
            communication = np.array(
                [self.communication.per_device_bytes(fraction) for fraction in exit_fractions[:, 0]]
            )
        return SweepTable(
            thresholds=grid_values,
            overall_accuracy=overall,
            local_exit_fraction=exit_fractions[:, 0],
            exit_fractions=exit_fractions,
            exit_names=list(self.exit_names),
            communication_bytes=communication,
        )

    # ------------------------------------------------------------------ #
    def exit_accuracies(self, targets: Optional[np.ndarray] = None) -> Dict[str, float]:
        """Accuracy of each exit classifying 100% of the samples there.

        Matches the historical ``evaluate_exit_accuracies`` loop exactly: it
        compares raw-logit argmax (not softmax argmax) against the targets,
        preserving that code path's tie behaviour bit for bit.
        """
        targets = self._require_targets(targets)
        logit_argmax = self.logits.argmax(axis=-1)
        return {
            name: float(np.mean(logit_argmax[index] == targets))
            for index, name in enumerate(self.exit_names)
        }

    def overall_accuracy(self, thresholds: Thresholds, targets: Optional[np.ndarray] = None) -> float:
        """Staged-inference accuracy at one threshold setting."""
        targets = self._require_targets(targets)
        return self.route(thresholds).overall_accuracy(targets)

    def accuracy_report(
        self,
        thresholds: Thresholds,
        targets: Optional[np.ndarray] = None,
        individual_accuracy: Optional[Dict[int, float]] = None,
    ):
        """Every paper accuracy measure in one report, from the cache.

        The forward-once replacement for the ``evaluate_exit_accuracies`` +
        ``StagedInferenceEngine.run`` double-forward pattern.
        """
        from .accuracy import AccuracyReport

        targets = self._require_targets(targets)
        routed = self.route(thresholds)
        report = AccuracyReport(
            exit_accuracy={
                name: float(np.mean(routed.exit_predictions[name] == targets))
                for name in self.exit_names
            },
            overall_accuracy=routed.overall_accuracy(targets),
            local_exit_fraction=routed.local_exit_fraction,
            communication_bytes=(
                None
                if self.communication is None
                else self.communication.per_device_bytes(routed.local_exit_fraction)
            ),
        )
        if individual_accuracy is not None:
            report.individual_accuracy = dict(individual_accuracy)
        return report

    def communication_bytes(self, result: InferenceResult) -> float:
        """Average per-device communication per sample implied by a result.

        Mirrors :meth:`StagedInferenceEngine.communication_bytes` so oracle
        consumers keep the one-call Eq. 1 accounting.
        """
        if self.communication is None:
            raise ValueError("this oracle was built without a CommunicationModel")
        return self.communication.per_device_bytes(result.local_exit_fraction)

    # ------------------------------------------------------------------ #
    def exit_rate_cdf(self, thresholds: Union[float, Sequence[float]]) -> np.ndarray:
        """Local-exit fraction at each threshold, off the entropy CDF.

        ``P(entropy_local <= T)`` evaluated by binary search on the sorted
        local-exit entropies — exactly the local-exit fraction the cascade
        produces at threshold ``T``, without routing anything.
        """
        values = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
        if self.num_samples == 0:
            return np.zeros(values.shape)
        counts = np.searchsorted(self._sorted_local_entropies, values, side="right")
        return counts / self.num_samples

    def quantile_threshold(self, target_fraction: float) -> float:
        """The exact threshold whose local-exit rate is closest to a target.

        The achievable exit rates form a step function with jumps at the
        observed entropy values; this picks, among those achievable rates,
        the one nearest ``target_fraction`` (ties resolved toward the higher
        rate, i.e. the cheaper-communication side) and returns the smallest
        threshold realizing it.  This replaces grid search with an exact
        quantile lookup on the empirical local-entropy CDF.
        """
        if not 0.0 <= target_fraction <= 1.0:
            raise ValueError("target_fraction must be in [0, 1]")
        if self.num_samples == 0:
            return 0.0
        # Candidate thresholds: 0.0 (exit nothing) and each distinct entropy
        # value (exit everything at or below it).  Observed entropies can
        # overshoot 1.0 by a few ulps (near-uniform softmax, e.g. blanked
        # failed-device views), so clip into the valid threshold range —
        # the returned value must be routable.
        candidates = np.concatenate(
            ([0.0], np.unique(np.minimum(self._sorted_local_entropies, 1.0)))
        )
        fractions = self.exit_rate_cdf(candidates)
        distances = np.abs(fractions - target_fraction)
        best = np.flatnonzero(distances == distances.min())[-1]
        return float(candidates[best])
