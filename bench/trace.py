"""Span recorder for the traced benchmark run.

Layers are measured from outside: :meth:`Tracer.install` replaces the public
entry points listed in :data:`PATCHES` with timing wrappers and
:meth:`Tracer.remove` puts the originals back, so nothing under ``src/``
knows it is being traced and an untraced run executes the original code.

A span is ``(name, start, end, parent, thread, trial)``; the parent comes
from a per-thread stack.  A layer's *self time* is its span's duration
minus the part of that interval its child spans cover.  Totals are kept per
thread (worker threads record spans too) and merged by :meth:`snapshot`.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "NullTracer", "PATCHES"]

_clock = time.perf_counter

#: (module, class or None, attributes sharing one original, span name).
#: ``CompiledPlan.__call__`` is a class-level alias of ``forward``, so both
#: names are replaced by one wrapper.
PATCHES: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    ("repro.datasets.mvmc", None, ("load_mvmc_splits",), "datasets.build"),
    ("repro.core.ddnn", "DDNN", ("forward",), "nn.forward"),
    ("repro.nn.tensor", "Tensor", ("backward",), "nn.backward"),
    ("repro.nn.optim", "Adam", ("step",), "nn.optim_step"),
    ("repro.nn.layers", "Module", ("num_parameters",), "nn.num_parameters"),
    ("repro.core.training", "DDNNTrainer", ("train_epoch",), "core.training.epoch"),
    ("repro.core.training", "DDNNTrainer", ("evaluate_exits",), "core.training.evaluate_exits"),
    ("repro.compile.ddnn", "CompiledDDNN", ("__init__",), "compile.compile"),
    ("repro.compile.plan", "CompiledPlan", ("forward", "__call__"), "compile.plan_forward"),
    ("repro.core.oracle", "ExitOracle", ("sweep",), "core.oracle.sweep"),
    ("repro.core.oracle", "ExitOracle", ("route",), "core.oracle.route"),
    ("repro.core.exits", "ExitCriterion", ("evaluate",), "core.cascade.offer"),
    ("repro.hierarchy.runtime", "HierarchyRuntime", ("run",), "hierarchy.runtime.run"),
    ("repro.hierarchy.sections", "DeviceTierSection", ("process",), "hierarchy.sections.device_process"),
    ("repro.hierarchy.sections", "CloudTierSection", ("process",), "hierarchy.sections.cloud_process"),
    ("repro.hierarchy.sections", "DeviceTierSection", ("offload",), "hierarchy.sections.offload"),
    ("repro.hierarchy.network", "NetworkFabric", ("send",), "hierarchy.network.send"),
    ("repro.hierarchy.network", "NetworkFabric", ("delivery",), "hierarchy.faults.delivery"),
    ("repro.hierarchy.plan", "PartitionPlan", ("materialize",), "hierarchy.plan.materialize"),
    ("repro.serving.fabric", "DistributedServingFabric", ("submit_many",), "serving.fabric.submit"),
    ("repro.serving.fabric", "DistributedServingFabric", ("report",), "serving.fabric.report"),
    ("repro.serving.balancer", "LoadBalancer", ("submit_many",), "serving.balancer.submit"),
    ("repro.serving.admission", "ShedToLocalExit", ("decide",), "serving.admission.decide"),
    ("repro.serving.clock", "EventLoop", ("run",), "serving.fabric.loop"),
    ("repro.serving.clock", "EventLoop", ("schedule",), "serving.clock.schedule"),
    ("repro.serving.clock", "EventHandle", ("cancel",), "serving.clock.cancel"),
    ("repro.serving.workers", "SimulatedWorkerPool", ("execute",), "serving.workers.execute"),
    ("repro.serving.workers", "ThreadPoolWorkerPool", ("execute",), "serving.workers.execute"),
)

#: Spans whose wrapper also reads the call (see :meth:`Tracer._special`).
_EVENT_LOOP_RUN = "serving.fabric.loop"
_WORKER_EXECUTE = "serving.workers.execute"


class _ThreadState:
    """One thread's open-span stack, totals and (optionally) raw spans."""

    __slots__ = ("stack", "totals", "spans", "counters", "ident")

    def __init__(self, ident: int) -> None:
        self.stack: List[list] = []  # [name, child_seconds] per open span
        self.totals: Dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self.ident = ident


class Tracer:
    """Records spans in memory; see the module docstring."""

    enabled = True

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._originals: List[Tuple[object, str, object]] = []
        #: Raw spans are only kept while this is set (one trial's worth goes
        #: to the Chrome trace; totals are always kept).
        self.keep_spans = False
        self.trial = -1

    # -- recording ------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _enter(self, name: str) -> Tuple[_ThreadState, list, float]:
        state = self._state()
        frame = [name, 0.0]
        state.stack.append(frame)
        return state, frame, _clock()

    def _exit(self, state: _ThreadState, frame: list, started: float) -> None:
        ended = _clock()
        state.stack.pop()
        duration = ended - started
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[1] += duration
        total = state.totals.get(frame[0])
        if total is None:
            total = state.totals[frame[0]] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        if self.keep_spans:
            state.spans.append(
                (
                    frame[0],
                    started,
                    ended,
                    parent[0] if parent is not None else None,
                    state.ident,
                    self.trial,
                )
            )

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        state, frame, started = self._enter(name)
        try:
            yield
        finally:
            self._exit(state, frame, started)

    def add(self, counter: str, value: float) -> None:
        """Add to a named counter (counts taken where the work happens)."""
        counters = self._state().counters
        counters[counter] = counters.get(counter, 0.0) + value

    def wrap(self, function: Callable, name: str) -> Callable:
        """A wrapper recording one ``name`` span per call of ``function``."""
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            state, frame, started = enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                leave(state, frame, started)

        traced.__wrapped__ = function
        return traced

    # -- wrappers that also read the call -------------------------------- #
    def _special(self, function: Callable, name: str) -> Optional[Callable]:
        if name == _EVENT_LOOP_RUN:
            # EventLoop.run returns the number of events it fired.
            inner = self.wrap(function, name)

            def run(*args, **kwargs):
                fired = inner(*args, **kwargs)
                self.add("serving.clock.events_fired", fired)
                return fired

            return run
        if name == _WORKER_EXECUTE:
            # Hand-off = submit -> task start, plus task end -> completion
            # callback; zero on the simulated pool (task runs inline).
            inner = self.wrap(function, name)

            def execute(pool, worker, task, service_for, on_complete):
                stamps = [_clock(), 0.0, 0.0]

                def timed_task(plans):
                    stamps[1] = _clock()
                    try:
                        return task(plans)
                    finally:
                        stamps[2] = _clock()

                def timed_complete(result, fire_time):
                    if pool.backend == "thread":
                        self.add(
                            "serving.workers.handoff_s",
                            (stamps[1] - stamps[0]) + (_clock() - stamps[2]),
                        )
                    return on_complete(result, fire_time)

                return inner(pool, worker, timed_task, service_for, timed_complete)

            return execute
        return None

    # -- install / remove ------------------------------------------------ #
    def install(self) -> None:
        """Replace every entry point in :data:`PATCHES` with its wrapper."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for module_name, class_name, attributes, span_name in PATCHES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attributes[0]]
            wrapper = self._special(original, span_name) or self.wrap(original, span_name)
            for attribute in attributes:
                self._originals.append((owner, attribute, owner.__dict__[attribute]))
                setattr(owner, attribute, wrapper)

    def remove(self) -> None:
        """Put every original back (safe to call when not installed)."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- read-out -------------------------------------------------------- #
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Merged totals since the last snapshot, then reset.

        ``{span name: {"calls", "total_s", "self_s"}}`` plus
        ``{counter name: {"value"}}``.  Call it from the benchmark thread
        while no traced work is in flight.
        """
        merged: Dict[str, Dict[str, float]] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.totals.items():
                entry = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += own
            for name, value in state.counters.items():
                entry = merged.setdefault(name, {"value": 0.0})
                entry["value"] += value
            state.totals = {}
            state.counters = {}
        return merged

    def spans(self) -> List[tuple]:
        with self._states_lock:
            states = list(self._states)
        collected = [span for state in states for span in state.spans]
        collected.sort(key=lambda span: span[1])
        return collected

    def write_chrome(self, path) -> int:
        """Write the kept spans in Chrome trace-event format; returns the count."""
        spans = self.spans()
        origin = spans[0][1] if spans else 0.0
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": 1e6 * (start - origin),
                "dur": 1e6 * (end - start),
                "pid": 1,
                "tid": thread,
                "args": {"parent": parent, "trial": trial},
            }
            for name, start, end, parent, thread, trial in spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)


class NullTracer:
    """The untraced run's tracer: records nothing, wraps nothing."""

    enabled = False
    keep_spans = False
    trial = -1

    @contextmanager
    def span(self, name: str):
        yield

    def add(self, counter: str, value: float) -> None:
        pass

    def install(self) -> None:
        pass

    def remove(self) -> None:
        pass

