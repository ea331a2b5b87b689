"""Exit points and the normalized-entropy confidence criterion (paper Sec. III-D).

A sample exits the DDNN at the earliest exit point whose prediction is
confident enough.  Confidence is measured by the *normalized entropy* of the
softmax probability vector,

    eta(x) = - sum_i x_i log(x_i) / log(|C|),

which lies in ``[0, 1]``: values near 0 mean the network is confident, values
near 1 mean it is not.  A sample exits at a point when ``eta <= T`` for that
point's threshold ``T``; the final exit always classifies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..nn.tensor import Tensor

__all__ = [
    "normalized_entropy",
    "softmax_probabilities",
    "exit_statistics",
    "ExitDecision",
    "ExitCriterion",
]


def softmax_probabilities(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis of a plain array.

    With :func:`normalized_entropy` this is the reference every exit
    decision must equal bit for bit; :func:`exit_statistics` computes both
    (and the arg-max) in one pass."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / exponentials.sum(axis=-1, keepdims=True)


#: Floor inside the entropy's logarithm (the ``0 * log 0 = 0`` convention).
_PROBABILITY_FLOOR = 1e-12


def normalized_entropy(
    probabilities: np.ndarray, eps: float = _PROBABILITY_FLOOR
) -> np.ndarray:
    """Normalized entropy of probability vectors, in ``[0, 1]``.

    Parameters
    ----------
    probabilities:
        Array of shape ``(..., num_classes)`` whose last axis sums to 1.
    eps:
        Numerical floor inside the logarithm so zero probabilities contribute
        zero entropy (the ``0 * log 0 = 0`` convention).
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    num_classes = probabilities.shape[-1]
    if num_classes < 2:
        raise ValueError("normalized entropy requires at least two classes")
    clipped = np.clip(probabilities, eps, 1.0)
    entropy = -np.sum(probabilities * np.log(clipped), axis=-1)
    return entropy / np.log(num_classes)


def exit_statistics(logits):
    """``(probabilities, entropies, predictions)`` of a batch of logits.

    The one implementation of the exit decision's arithmetic: the same
    ufuncs in the same order as :func:`softmax_probabilities` followed by
    :func:`normalized_entropy` and an arg-max, so all three results are
    bit-identical to theirs, but each intermediate is written in place and
    the reductions call their ufuncs directly — half the numpy calls, which
    at the batch sizes an exit sees (often one row) are the whole cost.
    The upper clip of :func:`normalized_entropy` is left out: a softmax
    probability never exceeds 1.0 (the row maximum contributes
    ``exp(0) = 1`` to a sum of non-negative terms); and ``-s / log(C)`` is
    computed as ``s / -log(C)``, the same correctly rounded quotient.
    """
    logits = np.asarray(logits, dtype=np.float64)
    num_classes = logits.shape[-1]
    if num_classes < 2:
        raise ValueError("normalized entropy requires at least two classes")
    probabilities = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(probabilities, out=probabilities)
    probabilities /= np.add.reduce(probabilities, axis=-1, keepdims=True)
    terms = np.maximum(probabilities, _PROBABILITY_FLOOR)
    np.log(terms, out=terms)
    terms *= probabilities
    entropies = np.add.reduce(terms, axis=-1) / _negative_log(num_classes)
    return probabilities, entropies, probabilities.argmax(axis=-1)


@functools.lru_cache(maxsize=None)
def _negative_log(num_classes: int) -> np.float64:
    """``-log(num_classes)``, the entropy normaliser, computed once per class
    count (by ``np.log``, as :func:`normalized_entropy` computes it)."""
    return -np.log(num_classes)


@dataclass
class ExitDecision:
    """Outcome of applying an exit criterion to a batch of logits.

    Attributes
    ----------
    probabilities:
        Softmax probabilities, shape ``(N, num_classes)``.
    predictions:
        Arg-max class per sample, shape ``(N,)``.
    entropies:
        Normalized entropy per sample, shape ``(N,)``.
    exit_mask:
        Boolean mask of samples confident enough to exit here, shape ``(N,)``.
    """

    probabilities: np.ndarray
    predictions: np.ndarray
    entropies: np.ndarray
    exit_mask: np.ndarray

    @property
    def exit_fraction(self) -> float:
        """Fraction of the batch that exits at this point."""
        if self.exit_mask.size == 0:
            return 0.0
        return float(np.mean(self.exit_mask))


class ExitCriterion:
    """Normalized-entropy threshold rule applied at one exit point.

    Parameters
    ----------
    threshold:
        Threshold ``T`` in ``[0, 1]``.  ``T=0`` exits no samples, ``T=1``
        exits every sample.
    name:
        Optional label (e.g. ``"local"``, ``"edge"``, ``"cloud"``) used in
        reports and telemetry.
    """

    def __init__(self, threshold: float, name: Optional[str] = None) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
        self.threshold = float(threshold)
        self.name = name or "exit"

    def __repr__(self) -> str:
        return f"ExitCriterion(name={self.name!r}, threshold={self.threshold})"

    def evaluate(self, logits) -> ExitDecision:
        """Apply the criterion to logits (``Tensor`` or ``ndarray``)."""
        if isinstance(logits, Tensor):
            logits = logits.data
        probabilities, entropies, predictions = exit_statistics(logits)
        exit_mask = entropies <= self.threshold
        return ExitDecision(
            probabilities=probabilities,
            predictions=predictions,
            entropies=entropies,
            exit_mask=exit_mask,
        )

    def with_threshold(self, threshold: float) -> "ExitCriterion":
        """Return a copy with a different threshold."""
        return ExitCriterion(threshold, name=self.name)


def exit_thresholds_from_sequence(
    thresholds: Sequence[float], names: Optional[Sequence[str]] = None
) -> list:
    """Build a list of :class:`ExitCriterion` from plain thresholds."""
    if names is None:
        names = [f"exit{i}" for i in range(len(thresholds))]
    if len(names) != len(thresholds):
        raise ValueError("names and thresholds must have the same length")
    return [ExitCriterion(t, name=n) for t, n in zip(thresholds, names)]
