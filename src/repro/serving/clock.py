"""Time sources and the event scheduler shared by serving layers.

:class:`SimulatedClock` is the manually-advanced time source the open-loop
load generator has always used; it now lives here so the distributed serving
fabric can share it.  :class:`EventLoop` adds the missing half of a
discrete-event simulation: a time-ordered queue of callbacks.  Events fired
at the same timestamp run in scheduling order, which makes every simulation
built on the loop fully deterministic — the property all serving studies in
this repo rely on for machine-independent latency tables.

The loop also has a *wall-clock dispatch mode* (:class:`WallClock`, or
``realtime=True``): instead of jumping the clock to the next event's
timestamp, :meth:`EventLoop.run` genuinely waits for it, and callbacks may
be posted from other threads (:meth:`EventLoop.post`) — which is how the
thread-pool worker backend turns completed forwards on real worker threads
back into loop events.  While external work is outstanding
(:meth:`EventLoop.begin_inflight` / :meth:`EventLoop.end_inflight`), an
empty queue blocks instead of terminating, so ``run()`` still means "serve
until everything in flight has completed".  Queue operations take the
loop's lock whenever another thread can be involved — in realtime mode, and
while in-flight work is registered; a simulated loop with nothing in flight
is only ever touched by the thread that runs it and pushes and pops its
heap directly (thousands of events per simulated second of traffic, each of
which would otherwise pay a lock and a ``notify_all``).  The firing order is
the same either way, bit for bit.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from typing import Callable, List, Optional, Tuple

__all__ = ["SimulatedClock", "WallClock", "EventHandle", "EventLoop"]


class EventHandle:
    """A cancellation token for one scheduled event.

    Cancelling is O(1): the heap entry stays where it is and is skipped
    (discarded) when it reaches the head, so the loop never fires a
    cancelled callback and never *waits* for one either — in realtime mode
    a cancelled head is popped eagerly instead of slept on.  Cancelling an
    already-fired or already-cancelled event is a harmless no-op, which is
    exactly what the offload deadline/delivery race wants.

    ``daemon`` marks events that must not keep the loop alive on their own
    (chaos window boundaries, per-request expiry timers): they fire
    normally while real work is pending, but once only daemon events
    remain — and every registered idle gate agrees there is no outstanding
    work — :meth:`EventLoop.run` returns instead of waiting out the rest
    of the timetable.
    """

    __slots__ = ("cancelled", "daemon")

    def __init__(self, daemon: bool = False) -> None:
        self.cancelled = False
        self.daemon = daemon

    def cancel(self) -> None:
        self.cancelled = True


class SimulatedClock:
    """A manually-advanced time source; never moves backwards."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0.0:
            raise ValueError(f"cannot advance time by {seconds} (negative)")
        self.now += seconds

    def advance_to(self, timestamp: float) -> None:
        """Move to ``timestamp`` if it is in the future; no-op otherwise."""
        if timestamp > self.now:
            self.now = timestamp


class WallClock:
    """Real elapsed time with the :class:`SimulatedClock` reading interface.

    ``now`` is seconds since construction (monotonic, ``perf_counter``
    based), so timelines start at 0.0 like a fresh simulated clock and the
    same fabric code reads either clock.  Wall time advances on its own:
    :meth:`advance_to` is a no-op — the waiting happens in
    :meth:`EventLoop.run`'s realtime dispatch, which sleeps until the next
    event is due instead of jumping the clock.
    """

    def __init__(self) -> None:
        self._origin = time.perf_counter()

    @property
    def now(self) -> float:
        return time.perf_counter() - self._origin

    def __call__(self) -> float:
        return self.now

    def advance_to(self, timestamp: float) -> None:
        """Wall time cannot be advanced; the event loop waits instead."""


class EventLoop:
    """Event scheduler over a :class:`SimulatedClock` or :class:`WallClock`.

    Callbacks are invoked in ``(time, scheduling order)`` order; a callback
    may schedule further events (including at the current instant, which run
    after every already-scheduled event at that instant).  An event scheduled
    in the past fires "now" — time never rewinds.

    In simulated mode (the default), :meth:`run` jumps the clock from event
    to event, which is fully deterministic.  In realtime mode (a
    :class:`WallClock`, or ``realtime=True``), :meth:`run` waits for each
    event's wall-clock deadline, wakes early when another thread posts new
    work, and keeps serving while registered in-flight operations are
    outstanding.
    """

    def __init__(self, clock=None, realtime: Optional[bool] = None) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        self.realtime = (
            isinstance(self.clock, WallClock) if realtime is None else bool(realtime)
        )
        self._heap: List[Tuple[float, int, Callable[[float], None], EventHandle]] = []
        self._sequence = 0
        self._mutex = threading.Lock()
        self._wakeup = threading.Condition(self._mutex)
        self._inflight = 0
        self._non_daemon = 0
        self._idle_gates: List[Callable[[], bool]] = []

    def __len__(self) -> int:
        with self._mutex:
            return len(self._heap)

    def add_idle_gate(self, gate: Callable[[], bool]) -> None:
        """Register a predicate consulted before idling out daemon events.

        When only daemon events remain queued, :meth:`run` returns early —
        *unless* some gate returns ``False``, signalling outstanding work
        the daemon events are still needed for (e.g. a fabric whose tier
        queue holds requests waiting for a chaos window's worker-restart
        event).  Gates must be cheap and must not touch the loop.
        """
        self._idle_gates.append(gate)

    def schedule(
        self,
        when: float,
        callback: Callable[[float], None],
        daemon: bool = False,
    ) -> EventHandle:
        """Enqueue ``callback(fire_time)`` to run at time ``when`` (from any
        thread on a realtime loop or while work is in flight, else from the
        loop's own).

        Returns an :class:`EventHandle` whose :meth:`~EventHandle.cancel`
        prevents the callback from firing (no-op if it already fired).
        ``daemon=True`` events never keep the loop alive on their own (see
        :class:`EventHandle`).
        """
        if math.isnan(when):
            raise ValueError("cannot schedule an event at NaN time")
        handle = EventHandle(daemon=daemon)
        # Another thread can only touch the queue of a realtime loop (worker
        # threads post completions) or of one with external work in flight.
        if self.realtime or self._inflight:
            with self._wakeup:
                self._push(when, callback, handle)
                self._wakeup.notify_all()
        else:
            self._push(when, callback, handle)
        return handle

    def _push(self, when: float, callback: Callable[[float], None], handle: EventHandle) -> None:
        heapq.heappush(
            self._heap, (max(when, self.clock.now), self._sequence, callback, handle)
        )
        self._sequence += 1
        if not handle.daemon:
            self._non_daemon += 1

    def post(self, callback: Callable[[float], None]) -> EventHandle:
        """Enqueue a callback at the current instant, waking a waiting run().

        This is the cross-thread entry point: worker threads hand their
        completions back to the loop with it, and the loop thread runs them.
        """
        return self.schedule(self.clock.now, callback)

    # -- in-flight external work (thread-pool completions) -------------- #
    def begin_inflight(self) -> None:
        """Register one outstanding external operation; run() won't exit
        on an empty queue until it is resolved with :meth:`end_inflight`."""
        with self._wakeup:
            self._inflight += 1

    def end_inflight(self) -> None:
        """Resolve one outstanding external operation."""
        with self._wakeup:
            if self._inflight <= 0:
                raise RuntimeError("end_inflight() without matching begin_inflight()")
            self._inflight -= 1
            self._wakeup.notify_all()

    # ------------------------------------------------------------------ #
    def _pop(self):
        entry = heapq.heappop(self._heap)
        if not entry[3].daemon:
            self._non_daemon -= 1
        return entry

    def _daemon_only_idle(self) -> bool:
        """Only daemon events left, nothing in flight, every gate open."""
        return (
            self._non_daemon == 0
            and self._inflight == 0
            and all(gate() for gate in self._idle_gates)
        )

    def _next_event(self):
        """Pop the next due event, waiting in realtime mode; None when idle."""
        if self.realtime or self._inflight:  # shared with other threads
            with self._wakeup:
                return self._next_due()
        return self._next_due()

    def _next_due(self):
        # Only waits when the loop is shared, i.e. with the lock held.
        while True:
            # Cancelled events are discarded at the head so the loop
            # neither fires nor (in realtime mode) waits for them.
            while self._heap and self._heap[0][3].cancelled:
                self._pop()
            if self._heap:
                if self._daemon_only_idle():
                    # A timetable of daemon events (chaos boundaries,
                    # expiry timers) with no work left to govern: done.
                    return None
                if not self.realtime:
                    return self._pop()
                delay = self._heap[0][0] - self.clock.now
                if delay <= 0.0:
                    return self._pop()
                # Wait for the deadline; an earlier post() re-examines.
                self._wakeup.wait(timeout=delay)
            elif self._inflight > 0:
                # Nothing queued, but worker threads owe completions.
                # The timeout is belt-and-braces against a lost notify.
                self._wakeup.wait(timeout=0.1)
            else:
                return None

    def run(self, max_events: int | None = None) -> int:
        """Fire events until the queue is empty and nothing is in flight.

        ``max_events`` is a safety valve for tests; exceeding it raises
        :class:`RuntimeError` instead of looping forever.
        """
        fired = 0
        while True:
            entry = self._next_event()
            if entry is None:
                return fired
            if max_events is not None and fired >= max_events:
                raise RuntimeError(f"event loop exceeded {max_events} events")
            when, _, callback, handle = entry
            if handle.cancelled:  # cancelled between pop and fire
                continue
            self.clock.advance_to(when)
            callback(self.clock.now)
            fired += 1
