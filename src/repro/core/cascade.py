"""Threshold rules and exit criteria of the entropy cascade (paper Sec. III-D).

Each sample travels up the exit hierarchy (local -> edge -> cloud) and
leaves at the first exit whose normalized entropy is at or below that exit's
threshold; the final exit always classifies whatever reaches it.  The rule
itself is applied in two places: untimed by
:meth:`~repro.core.oracle.ExitOracle.route`, timed by the serving fabric's
per-tier :class:`~repro.core.exits.ExitCriterion` step.  This module holds
what both share:

* :func:`normalize_thresholds` — threshold broadcasting/validation rules;
* :func:`build_exit_criteria` — thresholds -> :class:`ExitCriterion` list;
* :func:`require_compiled` — the serving constructors' refusal of
  ``compile=False``.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from .exits import ExitCriterion

__all__ = [
    "Thresholds",
    "normalize_thresholds",
    "build_exit_criteria",
]

#: A single broadcast threshold or one value per (non-final) exit.
Thresholds = Union[float, Sequence[float]]


def _validate_threshold_value(value) -> float:
    """One threshold: a real, non-negative, non-NaN number (bools rejected)."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(
            f"thresholds must be numbers, got bool {value!r} — "
            "True/False silently coercing to 1.0/0.0 is almost never intended"
        )
    value = float(value)
    if np.isnan(value):
        raise ValueError("thresholds must not be NaN")
    if value < 0.0:
        raise ValueError(f"thresholds must be >= 0 (normalized entropy scale), got {value}")
    return value


def normalize_thresholds(thresholds: Thresholds, num_exits: int) -> List[float]:
    """Normalize user-supplied thresholds to one value per exit.

    Rules (identical for every cascade consumer —
    :class:`~repro.core.oracle.ExitOracle`,
    :class:`~repro.hierarchy.runtime.HierarchyRuntime`, the serving fabric
    and :class:`~repro.serving.server.DDNNServer`):

    * a single float is broadcast to every exit;
    * a sequence may carry ``num_exits - 1`` values (one per non-final
      exit) or ``num_exits`` values; anything else is a :class:`ValueError`;
    * booleans, NaN and negative values are rejected with a
      :class:`ValueError` (a bool would silently coerce to 0.0/1.0, and a
      NaN threshold would make every exit comparison False);
    * the final exit's threshold is always forced to ``1.0`` because the
      last exit classifies every sample that reaches it.
    """
    if num_exits < 1:
        raise ValueError("a cascade needs at least one exit")
    if isinstance(thresholds, (bool, np.bool_)) or (
        isinstance(thresholds, (int, float, np.integer, np.floating))
    ):
        values = [_validate_threshold_value(thresholds)] * num_exits
    else:
        values = [_validate_threshold_value(t) for t in thresholds]
        if len(values) == num_exits - 1:
            values = values + [1.0]
        if len(values) != num_exits:
            raise ValueError(
                f"expected {num_exits - 1} or {num_exits} thresholds, got {len(values)}"
            )
    values[-1] = 1.0
    return values


def build_exit_criteria(thresholds: Thresholds, exit_names: Sequence[str]) -> List[ExitCriterion]:
    """Build one :class:`ExitCriterion` per exit from raw thresholds."""
    values = normalize_thresholds(thresholds, len(exit_names))
    return [ExitCriterion(value, name=name) for value, name in zip(values, exit_names)]


def require_compiled(compile: bool) -> None:
    """Reject ``compile=False`` on a serving constructor: the tier plane runs
    only compiled plan bundles, and the parameter stays for callers that
    still pass ``compile=True``."""
    if not compile:
        raise ValueError(
            "compile=False is not supported: serving runs only on compiled "
            "plan bundles; the eager reference forward is "
            "ExitOracle.capture(compile=False)"
        )
