"""Shared staged exit-cascade engine (paper Sections III-D/F).

The entropy-threshold cascade is the heart of DDNN inference: each sample
travels up the exit hierarchy (local -> edge -> cloud) and leaves at the
first exit whose normalized entropy is at or below that exit's threshold;
the final exit always classifies whatever reaches it.

Historically this logic was duplicated between the monolithic
:class:`~repro.core.inference.StagedInferenceEngine` and the distributed
:class:`~repro.hierarchy.runtime.HierarchyRuntime`.  This module is the
single source of truth both layers (and the online
:mod:`repro.serving` subsystem) now share:

* :func:`normalize_thresholds` — threshold broadcasting/validation rules;
* :func:`build_exit_criteria` — thresholds -> :class:`ExitCriterion` list;
* :class:`CascadeRouter` — stateful per-batch router that applies the
  criteria tier by tier and records which exit took each sample;
* :class:`ExitCascade` — criteria + optional communication accounting,
  with :meth:`ExitCascade.run_model` implementing the full batched loop
  over an in-memory :class:`~repro.core.ddnn.DDNN`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..nn.tensor import no_grad
from .communication import CommunicationModel
from .exits import ExitCriterion, ExitDecision

__all__ = [
    "Thresholds",
    "normalize_thresholds",
    "build_exit_criteria",
    "StageOutcome",
    "CascadeRouter",
    "CascadeResult",
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
    :class:`~repro.core.inference.StagedInferenceEngine`,
    :class:`~repro.hierarchy.runtime.HierarchyRuntime` and
    :class:`~repro.serving.server.DDNNServer`):

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


@dataclass
class StageOutcome:
    """What one exit of the cascade did to the current batch."""

    exit_index: int
    exit_name: str
    decision: ExitDecision
    newly_assigned: np.ndarray  # bool mask over the batch

    @property
    def assigned_rows(self) -> np.ndarray:
        """Batch row indices the exit claimed on this offer."""
        return np.flatnonzero(self.newly_assigned)


class CascadeRouter:
    """Stateful per-batch router applying the exit criteria tier by tier.

    Callers feed each exit's logits (in exit order) via :meth:`offer`; the
    router evaluates the criterion, claims the confident not-yet-assigned
    samples for that exit, and forces the final exit to claim everything
    still unassigned.  Tiers whose samples have all exited may simply not
    be offered — the per-sample result arrays are valid as soon as every
    sample is assigned.
    """

    def __init__(self, criteria: Sequence[ExitCriterion], batch_size: int) -> None:
        self.criteria = list(criteria)
        self.batch_size = batch_size
        self.predictions = np.zeros(batch_size, dtype=np.int64)
        self.exit_indices = np.zeros(batch_size, dtype=np.int64)
        self.entropies = np.zeros(batch_size, dtype=np.float64)
        self.assigned = np.zeros(batch_size, dtype=bool)
        self._next_exit = 0

    @property
    def remaining(self) -> np.ndarray:
        """Boolean mask of samples no exit has claimed yet."""
        return ~self.assigned

    def has_remaining(self) -> bool:
        return not self.assigned.all()

    def offer(self, logits, exit_index: Optional[int] = None) -> StageOutcome:
        """Apply the next (or an explicit) exit's criterion to its logits."""
        index = self._next_exit if exit_index is None else exit_index
        if not 0 <= index < len(self.criteria):
            raise IndexError(f"exit index {index} outside cascade of {len(self.criteria)} exits")
        criterion = self.criteria[index]
        decision = criterion.evaluate(logits)
        if decision.exit_mask.shape[0] != self.batch_size:
            raise ValueError(
                f"logits describe {decision.exit_mask.shape[0]} samples, "
                f"router was built for {self.batch_size}"
            )
        if index == len(self.criteria) - 1:
            take = ~self.assigned
        else:
            take = decision.exit_mask & ~self.assigned
        rows = np.flatnonzero(take)
        self.predictions[rows] = decision.predictions[take]
        self.exit_indices[rows] = index
        self.entropies[rows] = decision.entropies[take]
        self.assigned |= take
        self._next_exit = index + 1
        return StageOutcome(
            exit_index=index,
            exit_name=criterion.name,
            decision=decision,
            newly_assigned=take,
        )


@dataclass
class CascadeResult:
    """Per-sample routing produced by :meth:`ExitCascade.run_model`."""

    predictions: np.ndarray
    exit_indices: np.ndarray
    entropies: np.ndarray
    exit_names: List[str]
    exit_predictions: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def exit_names_per_sample(self) -> List[str]:
        """The exit name each sample used, in sample order."""
        return [self.exit_names[index] for index in self.exit_indices.tolist()]


class ExitCascade:
    """The staged entropy-threshold cascade shared by every inference layer.

    Parameters
    ----------
    thresholds:
        One threshold per (non-final) exit, or a single broadcast float —
        see :func:`normalize_thresholds`.
    exit_names:
        Exit names in cascade order (e.g. ``["local", "cloud"]``).
    communication:
        Optional :class:`CommunicationModel` so the cascade can also account
        the per-device bytes implied by a local exit rate (paper Eq. 1).
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
        communication: Optional[CommunicationModel] = None,
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
        self.communication = communication
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
        return cls(
            thresholds,
            model.exit_names,
            CommunicationModel(model.config),
            compile=compile,
            precision=precision,
        )

    @property
    def num_exits(self) -> int:
        return len(self.criteria)

    @property
    def thresholds(self) -> List[float]:
        """The normalized per-exit thresholds (final always 1.0)."""
        return [criterion.threshold for criterion in self.criteria]

    def router(self, batch_size: int) -> CascadeRouter:
        """A fresh per-batch router over this cascade's criteria."""
        return CascadeRouter(self.criteria, batch_size)

    # ------------------------------------------------------------------ #
    def compiled_for(self, model, precision: Optional[str] = None):
        """The compiled inference plan for a model, from the shared cache.

        Plans are memoized process-wide in :mod:`repro.compile.cache` keyed
        by ``(model, precision)``, so every cascade, engine and grid helper
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

        ``compile`` overrides ``compile_enabled`` as in :meth:`run_model`;
        the decision is bit-identical to the first exit's on a whole
        forward of the same batch.
        """
        use_compiled = self.compile_enabled if compile is None else bool(compile)
        model.eval()
        if use_compiled:
            logits = self.compiled_for(model).first_exit_logits(views)
        else:
            with no_grad():
                logits = model.first_exit_logits(views)
        return self.criteria[0].evaluate(logits)

    def run_model(
        self,
        model,
        views: np.ndarray,
        batch_size: int = 64,
        compile: Optional[bool] = None,
    ) -> CascadeResult:
        """Route every sample of ``views`` through the model's exit cascade.

        This is the monolithic staged-inference loop: the model computes all
        exits' logits in one forward pass per batch and the router assigns
        each sample to its earliest confident exit.  ``exit_predictions``
        records every exit's hypothetical prediction for every sample.

        ``compile`` overrides the cascade's ``compile_enabled`` default: the
        compiled path runs the :mod:`repro.compile` inference plan (no
        autograd graph, fused/folded ops) and produces the same predictions
        and routing as the eager path.
        """
        use_compiled = self.compile_enabled if compile is None else bool(compile)
        num_samples = len(views)
        predictions = np.zeros(num_samples, dtype=np.int64)
        exit_indices = np.zeros(num_samples, dtype=np.int64)
        entropies = np.zeros(num_samples, dtype=np.float64)
        exit_predictions: Dict[str, List[np.ndarray]] = {name: [] for name in self.exit_names}

        plan = self.compiled_for(model) if use_compiled else None
        model.eval()
        with no_grad():
            for start in range(0, num_samples, batch_size):
                stop = min(start + batch_size, num_samples)
                chunk = views[start:stop]
                output = plan(chunk) if plan is not None else model(chunk)
                router = self.router(stop - start)
                for name, logits in zip(output.exit_names, output.exit_logits):
                    outcome = router.offer(logits)
                    exit_predictions[name].append(outcome.decision.predictions)
                predictions[start:stop] = router.predictions
                exit_indices[start:stop] = router.exit_indices
                entropies[start:stop] = router.entropies

        return CascadeResult(
            predictions=predictions,
            exit_indices=exit_indices,
            entropies=entropies,
            exit_names=list(self.exit_names),
            exit_predictions={
                name: np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
                for name, chunks in exit_predictions.items()
            },
        )

    # ------------------------------------------------------------------ #
    def per_device_bytes(self, local_exit_fraction: float) -> float:
        """Average per-device bytes per sample implied by a local exit rate."""
        if self.communication is None:
            raise ValueError("this cascade was built without a CommunicationModel")
        return self.communication.per_device_bytes(local_exit_fraction)

    def communication_reduction(self, local_exit_fraction: float) -> float:
        """Reduction factor versus offloading the raw sensor input."""
        if self.communication is None:
            raise ValueError("this cascade was built without a CommunicationModel")
        return self.communication.reduction_factor(local_exit_fraction)
