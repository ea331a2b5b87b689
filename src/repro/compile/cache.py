"""Module-level memoization of compiled inference plans.

Before this cache existed every :class:`~repro.core.cascade.ExitCascade`
(and therefore every fresh oracle capture, grid helper or short-lived
server) carried its own ``_compiled_plans`` dict
and recompiled :func:`~repro.compile.ddnn.compile_ddnn` for a model the
process had already compiled.  The cache here is shared by all of them:

* keyed by ``(id(model), precision)`` with the identity double-checked
  against a weak reference, so a recycled ``id()`` can never serve another
  model's plan and a ``float32`` request can never be answered with another
  caller's ``float64`` plan — one model may have one live plan per
  precision mode simultaneously;
* entries hold the model only *weakly* — dropping the last strong reference
  to a model evicts its plans instead of leaking them;
* :func:`invalidate_plan` is the explicit hook to call after (re)training a
  model in place (it evicts *every* precision's plan for that model, since
  all of them snapshot weights at compile time, the scoped plans below
  included);
* :func:`scoped_plan_for` keeps one bundle per ``(scope, model, precision)``
  as well, for callers that must not share a plan's buffer arenas with the
  rest of the process but can share one among themselves (the simulated
  serving workers of one deployment, which compute one at a time); a scoped
  bundle is not compiled again: it shares the ops — weights, thresholds,
  aggregators — of the process-wide plan and owns only its arenas, program
  caches and timing counters
  (:meth:`~repro.compile.ddnn.CompiledDDNN.with_own_buffers`, which the
  thread workers' bundles come from too), so a model is compiled once per
  precision however many fabrics, replicas and workers serve it; it lives
  as long as its scope, and both are held weakly;
* all bookkeeping is guarded by one re-entrant lock, so worker threads
  (:mod:`repro.serving.workers`) can look plans up while a training loop
  invalidates them — compilation itself happens *outside* the lock, so a
  slow compile never stalls other threads' cache hits, and a lost compile
  race just discards the loser's plan.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Optional, Tuple

from .ops import PRECISIONS

__all__ = ["compiled_plan_for", "scoped_plan_for", "invalidate_plan", "cached_plan_count"]

#: (id(model), precision) -> (weakref to the model, its CompiledDDNN plan).
_PLAN_CACHE: Dict[Tuple[int, str], Tuple["weakref.ref", object]] = {}
#: scope -> model -> precision -> that scope's CompiledDDNN plan.
_SCOPED_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
# RLock, not Lock: the weakref eviction callback can fire during a GC
# triggered while the owning thread already holds the lock.
_CACHE_LOCK = threading.RLock()


def compiled_plan_for(model, precision: str = "float64"):
    """The process-wide compiled plan for a model, compiling on first use.

    The plan snapshots the model's weights; call :func:`invalidate_plan`
    after the model is (re)trained to force a rebuild.  Each precision mode
    gets its own cached plan, so mixed-precision deployments (e.g. a
    bitpacked device tier next to an fp64 cloud) coexist without evicting
    each other.  Thread-safe: racing first-use compiles both build a plan,
    and the second to finish adopts the first one's entry.
    """
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )
    key = (id(model), precision)
    with _CACHE_LOCK:
        entry = _PLAN_CACHE.get(key)
        if entry is not None and entry[0]() is model:
            return entry[1]

    from .ddnn import compile_ddnn

    plan = compile_ddnn(model, precision=precision)

    def _evict(ref, key=key):
        # Only drop the entry if it still belongs to the dead model — the id
        # may have been recycled and the slot overwritten by a newer model.
        with _CACHE_LOCK:
            current = _PLAN_CACHE.get(key)
            if current is not None and current[0] is ref:
                del _PLAN_CACHE[key]

    with _CACHE_LOCK:
        entry = _PLAN_CACHE.get(key)
        if entry is not None and entry[0]() is model:
            return entry[1]
        _PLAN_CACHE[key] = (weakref.ref(model, _evict), plan)
    return plan


def scoped_plan_for(model, precision: str, scope):
    """``scope``'s own bundle for a model: the ops of
    :func:`compiled_plan_for`'s plan over buffers of its own.

    Every call with the same ``scope`` object, model and precision returns
    one bundle, whose arenas are distinct from :func:`compiled_plan_for`'s
    and from every other scope's, so its users need no synchronisation
    beyond their own.  The entry goes when the scope or the model is
    collected, or when :func:`invalidate_plan` evicts the model.
    """
    with _CACHE_LOCK:
        plans = _SCOPED_PLANS.setdefault(scope, weakref.WeakKeyDictionary())
        plan = plans.get(model, {}).get(precision)
    if plan is None:
        plan = compiled_plan_for(model, precision).with_own_buffers()
        with _CACHE_LOCK:
            plan = plans.setdefault(model, {}).setdefault(precision, plan)
    return plan


def invalidate_plan(model: Optional[object] = None) -> None:
    """Drop every cached plan for one model (all precisions and scopes), or
    all plans.

    Required after in-place retraining: compiled plans bake the weights in
    and would otherwise keep serving the stale snapshot.
    """
    with _CACHE_LOCK:
        if model is None:
            _PLAN_CACHE.clear()
            _SCOPED_PLANS.clear()
            return
        for plans in list(_SCOPED_PLANS.values()):
            plans.pop(model, None)
        stale = [
            key
            for key, entry in _PLAN_CACHE.items()
            if key[0] == id(model) and entry[0]() is model
        ]
        for key in stale:
            del _PLAN_CACHE[key]


def cached_plan_count() -> int:
    """Number of live cached plans (one per (model, precision) pair)."""
    with _CACHE_LOCK:
        return len(_PLAN_CACHE)
