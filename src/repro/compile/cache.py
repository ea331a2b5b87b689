"""The compiled plans of a model, kept on the model itself.

Every consumer of a model's inference plan — oracle captures, the serving
fabric's shed path, each deployment's bundle and each thread worker's —
draws it from :func:`compiled_plan_for`, which compiles on first use and
keeps one plan per dtype on the model.  A plan snapshots the weights it
was compiled from, so :meth:`~repro.core.ddnn.DDNN._weights_changed` (every
training epoch and every ``load_state_dict`` call it) drops the model's plans
and bumps its ``_weights_version``; the next lookup compiles the new weights.
The plan lives exactly as long as its model and its weights: nothing needs
evicting or invalidating by hand.  Each plan is stamped with the
``weights_version`` it was compiled at, so a bundle made from it (a
deployment's or a worker's, see
:meth:`~repro.compile.ddnn.CompiledDDNN.with_own_buffers`) can tell when it
falls behind the model.
"""

from __future__ import annotations

from .ops import precision_dtype

__all__ = ["compiled_plan_for"]


def compiled_plan_for(model, precision: str = "float64"):
    """The model's compiled plan at ``precision``, compiling on first use.

    Plans are kept per dtype, so the model holds at most two: serving uses
    ``"float64"``, and oracle captures may ask for any of
    :data:`~repro.compile.ops.PRECISIONS` (``"bitpacked"`` gets the float64
    plan).  Racing first-use compiles from several threads each build a
    plan and all return the one stored first; a compile that a weights
    change overtakes stores its plan into the dropped table, never the
    model's new one.
    """
    dtype = precision_dtype(precision).name
    plans = model._compiled_plans
    plan = plans.get(dtype)
    if plan is None:
        from .ddnn import compile_ddnn

        plan = plans.setdefault(dtype, compile_ddnn(model, precision=dtype))
    return plan
