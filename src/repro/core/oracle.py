"""The untimed evaluation plane: the per-exit logit cache (``ExitOracle``).

Every offline result of the paper — Table II's threshold sweep, Figure 9's
calibrated offloading points, Figure 10's fault-tolerance rows, all the exit
accuracy reports — is a function of a single quantity: the per-exit logits of
a fixed model on a fixed dataset.  The entropy-threshold cascade never looks
at the inputs again once the logits exist; routing is pure numpy over the
``(num_exits, N)`` entropy matrix.

:class:`ExitOracle` exploits that: :meth:`ExitOracle.capture` runs the
forward pass **once** (batched, compiled by default) and stores every exit's
logits, argmax predictions and normalized entropies.  From the cache,

* :meth:`route` applies the paper's exit rule (Sec. III-D: first exit whose
  normalized entropy is at or below its threshold, final exit forced) and
  returns an :class:`InferenceResult`.  This is the one untimed
  implementation of the rule; the timed one is the serving fabric's
  per-tier :class:`~repro.core.exits.ExitCriterion` step, and the two agree
  sample for sample (covered by tests);
* :meth:`sweep` answers an entire threshold grid in ``O(num_exits x N)``
  numpy per grid point — a 21-point calibration costs one forward instead
  of 21;
* :meth:`exit_accuracies` reports each exit classifying every sample;
* :meth:`exit_rate_cdf` / :meth:`quantile_threshold` read local-exit rates
  straight off the empirical entropy CDF, making exit-rate calibration an
  exact quantile lookup.

A model's local-exit fraction is the fraction of samples at the exit named
``"local"`` — 0.0 for a model without one (``cloud_only``) — the same rule
the fabric's accounting uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..datasets.mvmc import MVMCDataset, _int_at_least
from ..nn.tensor import Tensor, no_grad
from .cascade import Thresholds, normalize_thresholds
from .communication import CommunicationModel
from .ddnn import DDNN
from .exits import exit_statistics

__all__ = ["ExitOracle", "InferenceResult", "SweepPoint", "SweepTable"]

#: The exit whose rate Eq. 1's offload term depends on.
LOCAL_EXIT = "local"


@dataclass
class InferenceResult:
    """Per-sample outcome of the entropy-exit cascade.

    :meth:`ExitOracle.route` fills the routing fields;
    :meth:`~repro.hierarchy.runtime.HierarchyRuntime.run` also fills the
    path latency and bytes the fabric accounted for each sample.

    Attributes
    ----------
    predictions:
        Final predicted class per sample (from whichever exit classified it).
    exit_indices:
        Index of the exit each sample used (0 = first, last = cloud).
    exit_names:
        Names of the exits, indexed by ``exit_indices`` values.
    entropies:
        Normalized entropy observed at the exit that classified each sample.
    exit_predictions:
        Each exit's prediction for every sample (as if all samples were
        classified there); filled by :meth:`ExitOracle.route`.
    targets:
        Ground-truth labels if they were supplied.
    latencies_s, bytes_per_sample:
        Path latency and bytes sent per sample; filled by the hierarchy
        runtime.
    """

    predictions: np.ndarray
    exit_indices: np.ndarray
    exit_names: List[str]
    entropies: np.ndarray
    exit_predictions: Dict[str, np.ndarray] = field(default_factory=dict)
    targets: Optional[np.ndarray] = None
    latencies_s: Optional[np.ndarray] = None
    bytes_per_sample: Optional[np.ndarray] = None

    @property
    def exit_names_per_sample(self) -> List[str]:
        """The exit name each sample used, in sample order."""
        return [self.exit_names[index] for index in self.exit_indices.tolist()]

    def exit_fraction(self, exit_name: str) -> float:
        """Fraction of samples classified at the named exit (0.0 if absent)."""
        if exit_name not in self.exit_names or self.exit_indices.size == 0:
            return 0.0
        return float(np.mean(self.exit_indices == self.exit_names.index(exit_name)))

    @property
    def local_exit_fraction(self) -> float:
        """Fraction of samples exited at the local exit (0.0 without one)."""
        return self.exit_fraction(LOCAL_EXIT)

    def accuracy(self, targets: Optional[np.ndarray] = None) -> float:
        """Accuracy of the cascade's predictions against the targets."""
        return float(np.mean(self.predictions == self._resolve_targets(targets)))

    def _resolve_targets(self, targets: Optional[np.ndarray]) -> np.ndarray:
        if targets is not None:
            return np.asarray(targets)
        if self.targets is None:
            raise ValueError("targets were not recorded; pass them explicitly")
        return self.targets


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
        self._local = self.exit_names.index(LOCAL_EXIT) if LOCAL_EXIT in self.exit_names else None
        # Local-exit entropies sorted once: exit-rate CDF lookups and quantile
        # calibration are O(log N) searchsorted calls from here on.
        self._sorted_local_entropies = (
            np.empty(0) if self._local is None else np.sort(self.entropies[self._local])
        )

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

        ``compile=True`` (the default) runs the model's own compiled plan
        (:func:`~repro.compile.compiled_plan_for`); the forward happens in
        ``batch_size`` chunks.  ``precision`` selects the
        compiled compute mode (exact ``"float64"`` default, tolerance
        ``"float32"``; ``"bitpacked"`` runs the float64 plan); the cached
        logit matrix is always stored as float64 regardless of the mode.

        Views must be finite: the binary blocks' sign compare would turn a
        NaN into -1 and answer it with a confident exit, so a non-finite
        sample is a :class:`ValueError` naming its index, and so is a
        ``batch_size`` that is not an int >= 1.
        """
        batch_size = _int_at_least(batch_size, "batch_size")
        if isinstance(dataset, MVMCDataset):
            views = dataset.images
            if targets is None:
                targets = dataset.labels
        else:
            views = np.asarray(dataset)
        finite = np.isfinite(views)
        if not finite.all():
            bad = int(np.argmin(finite.reshape(len(views), -1).all(axis=1)))
            raise ValueError(f"sample {bad} has non-finite views (NaN or infinity)")

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
        :mod:`repro.core.threshold`.
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
        ``(G, N)`` int64.  The paper's exit rule — a sample leaves at the
        earliest exit with ``entropy <= threshold`` and the last exit claims
        whatever remains — evaluated as an argmax over a boolean mask
        instead of a per-tier loop.
        """
        confident = self.entropies[None, :, :] <= threshold_matrix[:, :, None]
        confident[:, -1, :] = True
        return np.argmax(confident, axis=1).astype(np.int64)

    # ------------------------------------------------------------------ #
    def route(self, thresholds: Thresholds) -> InferenceResult:
        """Route every captured sample for one threshold setting — no model call."""
        values = self._normalized(thresholds)
        exit_indices = self._first_exits(values[None, :])[0]
        sample_axis = np.arange(self.num_samples)
        return InferenceResult(
            predictions=self.predictions[exit_indices, sample_axis],
            exit_indices=exit_indices,
            exit_names=list(self.exit_names),
            entropies=self.entropies[exit_indices, sample_axis],
            # Copies, not views: a caller mutating its result must not
            # corrupt this cache.
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
        scalar threshold passed to :meth:`route` is; per-point results equal
        :meth:`route` per threshold, but the whole grid costs
        ``O(num_exits x N)`` numpy per point and zero forwards.
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
        local = (
            np.zeros(len(grid_values)) if self._local is None else exit_fractions[:, self._local]
        )
        communication = None
        if self.communication is not None:
            communication = np.array(
                [self.communication.per_device_bytes(fraction) for fraction in local]
            )
        return SweepTable(
            thresholds=grid_values,
            overall_accuracy=overall,
            local_exit_fraction=local,
            exit_fractions=exit_fractions,
            exit_names=list(self.exit_names),
            communication_bytes=communication,
        )

    # ------------------------------------------------------------------ #
    def exit_accuracies(self, targets: Optional[np.ndarray] = None) -> Dict[str, float]:
        """Accuracy of each exit classifying 100% of the samples there.

        It compares raw-logit argmax (not softmax argmax) against the
        targets, the convention of the training loop's per-epoch report.
        """
        targets = self._require_targets(targets)
        logit_argmax = self.logits.argmax(axis=-1)
        return {
            name: float(np.mean(logit_argmax[index] == targets))
            for index, name in enumerate(self.exit_names)
        }

    def communication_bytes(self, result: InferenceResult) -> float:
        """Average per-device bytes per sample implied by a result (Eq. 1)."""
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
        if self.num_samples == 0 or self._local is None:
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
