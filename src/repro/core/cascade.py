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
* :class:`ExitCascade` — the criteria of one deployment, the compiled plan
  it serves (:meth:`ExitCascade.compiled_for`, evicted by
  :meth:`ExitCascade.invalidate_compiled`) and the first-exit-only forward
  that shedding uses (:meth:`ExitCascade.first_exit`).
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Union

import numpy as np

from ..nn.tensor import no_grad
from .exits import ExitCriterion, ExitDecision

__all__ = [
    "Thresholds",
    "normalize_thresholds",
    "build_exit_criteria",
    "ExitCascade",
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


class ExitCascade:
    """One deployment's exit criteria and the compiled plan it serves.

    Parameters
    ----------
    thresholds:
        One threshold per (non-final) exit, or a single broadcast float —
        see :func:`normalize_thresholds`.
    exit_names:
        Exit names in cascade order (e.g. ``["local", "cloud"]``).
    compile:
        Default for :meth:`first_exit`: the compiled plan or the eager model.
    precision:
        Compute mode for the compiled path (one of
        :data:`repro.compile.PRECISIONS`): exact ``"float64"`` (default),
        tolerance-mode ``"float32"``, or ``"bitpacked"``.  Ignored unless
        the compiled path is used.
    """

    def __init__(
        self,
        thresholds: Thresholds,
        exit_names: Sequence[str],
        compile: bool = False,
        precision: str = "float64",
    ) -> None:
        from ..compile.ops import PRECISIONS

        if precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {precision!r}; expected one of {PRECISIONS}"
            )
        self.exit_names = list(exit_names)
        self.criteria = build_exit_criteria(thresholds, self.exit_names)
        self.compile_enabled = bool(compile)
        self.precision = precision
        # Models this cascade has served compiled plans for, so a no-arg
        # invalidate_compiled() evicts exactly those from the shared cache.
        self._compiled_models: "weakref.WeakSet" = weakref.WeakSet()

    @classmethod
    def for_model(
        cls,
        model,
        thresholds: Thresholds,
        compile: bool = False,
        precision: str = "float64",
    ) -> "ExitCascade":
        """Build a cascade matching a :class:`~repro.core.ddnn.DDNN`'s exits."""
        return cls(thresholds, model.exit_names, compile=compile, precision=precision)

    @property
    def num_exits(self) -> int:
        return len(self.criteria)

    @property
    def thresholds(self) -> List[float]:
        """The normalized per-exit thresholds (final always 1.0)."""
        return [criterion.threshold for criterion in self.criteria]

    # ------------------------------------------------------------------ #
    def compiled_for(self, model, precision: Optional[str] = None):
        """The compiled inference plan for a model, from the shared cache.

        Plans are memoized process-wide in :mod:`repro.compile.cache` keyed
        by ``(model, precision)``, so every cascade, oracle and grid helper
        built over the same model at the same precision reuses one plan
        instead of recompiling.  ``precision`` defaults to the cascade's
        own mode.  The plan snapshots the model's weights; call
        :meth:`invalidate_compiled` after (re)training to force a rebuild.
        """
        from ..compile.cache import compiled_plan_for

        self._compiled_models.add(model)
        return compiled_plan_for(model, precision or self.precision)

    def invalidate_compiled(self, model=None) -> None:
        """Drop the cached plan(s) this cascade served (after retraining).

        With ``model`` the eviction targets that model; without, every model
        this cascade has served a plan for.  Eviction happens in the shared
        process-wide cache, so *all* consumers of an invalidated model get a
        fresh plan — the plan really is stale for everyone once the model
        retrained — but plans of unrelated models are untouched.
        """
        from ..compile.cache import invalidate_plan

        if model is not None:
            invalidate_plan(model)
            self._compiled_models.discard(model)
            return
        for served in list(self._compiled_models):
            invalidate_plan(served)
        self._compiled_models.clear()

    def first_exit(self, model, views, compile: Optional[bool] = None) -> ExitDecision:
        """The cascade's first exit applied to a batch, computing only that
        exit's logits (see ``first_exit_logits`` on the eager and compiled
        models) — what shedding a request to the local exit costs.

        ``compile`` overrides ``compile_enabled``; the decision is
        bit-identical to the first exit's on a whole forward of the same
        batch.
        """
        use_compiled = self.compile_enabled if compile is None else bool(compile)
        model.eval()
        if use_compiled:
            logits = self.compiled_for(model).first_exit_logits(views)
        else:
            with no_grad():
                logits = model.first_exit_logits(views)
        return self.criteria[0].evaluate(logits)
