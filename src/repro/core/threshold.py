"""Entropy-threshold selection (paper Section III-D and IV-D).

The paper picks the local-exit threshold ``T`` by sweeping candidate values
on a validation set and choosing the one with the best overall accuracy; when
several thresholds tie, the one that exits the most samples locally (i.e. the
cheapest in communication) is preferred.  A variant used in Section IV-F
instead chooses the threshold whose local-exit rate is closest to a target
fraction (about 75% in the paper's Figure 9 experiment).

Both searches run on the forward-once :class:`~repro.core.oracle.ExitOracle`:
the validation set is forwarded exactly once (compiled if requested) and the
whole candidate grid is answered by vectorized routing over the cached
per-exit entropies — a 21-point calibration that used to cost 21 full eager
forwards now costs one forward plus ``O(num_exits x N)`` numpy per point.
The local-exit rate itself never needs routing at all: it is the empirical
CDF of the local-exit entropies, so exit-rate calibration is a quantile
lookup (:meth:`~repro.core.oracle.ExitOracle.quantile_threshold` exposes the
exact, grid-free variant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..datasets.mvmc import MVMCDataset
from .ddnn import DDNN
from .oracle import ExitOracle, SweepPoint

__all__ = [
    "ThresholdSearchResult",
    "search_threshold",
    "threshold_for_exit_rate",
]

DEFAULT_GRID = tuple(np.round(np.arange(0.0, 1.0001, 0.05), 4))


@dataclass
class ThresholdSearchResult:
    """Outcome of a threshold sweep: one :class:`SweepPoint` per candidate."""

    best: SweepPoint
    candidates: List[SweepPoint]

    @property
    def best_threshold(self) -> float:
        return self.best.threshold


def search_threshold(
    model: DDNN,
    validation_set: MVMCDataset,
    grid: Optional[Sequence[float]] = None,
    batch_size: int = 64,
    compile: bool = False,
    oracle: Optional[ExitOracle] = None,
) -> ThresholdSearchResult:
    """Pick the threshold with the best overall accuracy on a validation set.

    Ties are resolved in favour of the largest local-exit fraction, which
    minimises communication at equal accuracy.  The grid is evaluated by one
    vectorized oracle sweep (one forward pass total; none if ``oracle`` is
    supplied).
    """
    grid = DEFAULT_GRID if grid is None else grid
    oracle = ExitOracle.resolve(model, validation_set, batch_size, compile, oracle)
    candidates = oracle.sweep(grid).points()
    best = max(candidates, key=lambda c: (c.overall_accuracy, c.local_exit_fraction))
    return ThresholdSearchResult(best=best, candidates=candidates)


def threshold_for_exit_rate(
    model: DDNN,
    validation_set: MVMCDataset,
    target_fraction: float,
    grid: Optional[Sequence[float]] = None,
    batch_size: int = 64,
    compile: bool = False,
    oracle: Optional[ExitOracle] = None,
    exact: bool = False,
) -> ThresholdSearchResult:
    """Pick the threshold whose local-exit rate is closest to ``target_fraction``.

    The local-exit rate at any threshold is an exact quantile lookup on the
    validation set's local-entropy CDF, so the whole calibration needs one
    forward pass (zero if ``oracle`` is supplied).  With ``exact=True`` the
    grid is bypassed entirely and the returned threshold is the entropy
    value whose achievable exit rate is nearest the target
    (:meth:`~repro.core.oracle.ExitOracle.quantile_threshold`); otherwise the
    best grid point is selected with the same tie-breaking as the historical
    grid search (closest rate, then highest overall accuracy, then grid
    order).
    """
    if not 0.0 <= target_fraction <= 1.0:
        raise ValueError("target_fraction must be in [0, 1]")
    oracle = ExitOracle.resolve(model, validation_set, batch_size, compile, oracle)
    if exact:
        threshold = oracle.quantile_threshold(target_fraction)
        candidates = oracle.sweep([threshold]).points()
        return ThresholdSearchResult(best=candidates[0], candidates=candidates)

    grid = DEFAULT_GRID if grid is None else grid
    candidates = oracle.sweep(grid).points()
    best = min(
        candidates,
        key=lambda c: (abs(c.local_exit_fraction - target_fraction), -c.overall_accuracy),
    )
    return ThresholdSearchResult(best=best, candidates=candidates)
