"""Pluggable worker-pool backends for the serving fabric.

The fabric's :class:`~repro.serving.fabric.TierServer` describes *what* a
worker does — run a batch through a tier section, then hand the result to a
completion callback.  *How* that work occupies time is the pool's job, and
there are two answers:

* :class:`SimulatedWorkerPool` — the deterministic discrete-event slots the
  paper-table replays use: the batch is computed inline at dispatch, the
  worker is marked busy for the *modelled* service time, and the completion
  fires as a simulated-time event.  Semantics (event order, timestamps,
  results) are byte-identical to the pre-pool fabric.  Every forward runs
  on the event loop's thread, one at a time, so the workers of every
  simulated pool on one loop can share one compiled plan bundle.
* :class:`ThreadPoolWorkerPool` — real concurrency: each worker slot owns a
  thread on a :class:`~concurrent.futures.ThreadPoolExecutor` plus its own
  compiled plan bundle (disjoint buffer arenas), the batch runs on the
  worker thread while the event loop keeps dispatching, and the completion
  is posted back to the loop when the forward *actually* finishes.  Against
  a :class:`~repro.serving.clock.WallClock` this turns the fabric's
  throughput into a wall-clock number — numpy's GEMM kernels release the
  GIL, so compiled forwards on separate threads genuinely overlap.

Both pools present the same four-method surface (:meth:`WorkerPool.acquire`
/ :meth:`~WorkerPool.execute` / :meth:`~WorkerPool.release` /
:meth:`~WorkerPool.shutdown`), so the fabric script that replays a paper
table is the same script that serves concurrently — only the clock/pool
pair changes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .clock import EventLoop

__all__ = [
    "WorkerHandle",
    "WorkerPool",
    "SimulatedWorkerPool",
    "ThreadPoolWorkerPool",
    "WORKER_POOL_BACKENDS",
    "make_worker_pool",
]

#: Task given to a worker: receives the worker's plan bundle, returns the
#: processed result (a section's ``TierResult`` or the cascade's routing).
WorkerTask = Callable[[object], object]
#: Maps a task's result to its modelled service time (simulated pools only).
ServiceFor = Callable[[object], float]
#: Completion callback: ``on_complete(result, fire_time)`` on the loop thread.
OnComplete = Callable[[object, float], None]


@dataclass
class WorkerHandle:
    """One worker slot: occupancy bookkeeping plus the plan bundle it runs."""

    index: int
    busy_until: float = 0.0
    plans: object = None  # the CompiledDDNN bundle this worker's forwards run on
    #: Crashed by a chaos schedule: the slot exists but takes no work until
    #: its crash window closes (see :meth:`WorkerPool.apply_offline`).
    offline: bool = False
    #: Batch-formation buffer (see :meth:`stage`).
    _staging: Optional[np.ndarray] = field(default=None, repr=False)

    def stage(self, rows: Sequence[np.ndarray], capacity: int) -> np.ndarray:
        """The per-request ``rows`` of one batch as a ``(len(rows), ...)``
        array: a view of the row for a batch of one, else the rows stacked
        into this worker's reusable batch buffer.

        The buffer holds ``capacity`` rows (the tier's maximum batch size)
        and is re-made when the rows' shape or dtype changes or a batch
        outgrows it.  Only the batch this worker is about to run may be
        staged here: a worker is busy until its completion is posted, and
        the section it runs does not keep its payload.
        """
        if len(rows) == 1:
            return rows[0][None]
        shape, dtype = rows[0].shape, np.result_type(*rows)
        buffer = self._staging
        if (
            buffer is None
            or buffer.shape[1:] != shape
            or buffer.dtype != dtype
            or len(buffer) < len(rows)
        ):
            buffer = np.empty((max(capacity, len(rows)),) + shape, dtype=dtype)
            self._staging = buffer
        return np.stack(rows, out=buffer[: len(rows)])


class WorkerPool:
    """Occupancy-tracked worker slots feeding completions to an event loop."""

    backend = "abstract"

    def __init__(
        self,
        events: EventLoop,
        num_workers: int,
        worker_plans: Optional[Sequence[object]] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        plans = list(worker_plans) if worker_plans is not None else [None] * num_workers
        if len(plans) != num_workers:
            raise ValueError("worker_plans must provide one bundle per worker")
        self.events = events
        self.workers: List[WorkerHandle] = [
            WorkerHandle(index, plans=plan) for index, plan in enumerate(plans)
        ]

    def __len__(self) -> int:
        return len(self.workers)

    def acquire(self, now: float) -> Optional[WorkerHandle]:
        """The first online worker free at ``now``, or ``None`` (does not
        mark busy; :meth:`execute` does)."""
        for worker in self.workers:
            if not worker.offline and worker.busy_until <= now:
                return worker
        return None

    @property
    def online(self) -> int:
        """Worker slots not currently crashed by a chaos schedule."""
        return sum(1 for worker in self.workers if not worker.offline)

    def apply_offline(self, count: int, now: float) -> int:
        """Declaratively mark exactly ``count`` workers offline (chaos crashes).

        Idle workers crash first; a worker mid-batch finishes its in-flight
        work before going dark (batch-boundary crash semantics — the
        discrete-event simulator has no half-computed state to lose).
        Called at every crash-window boundary with the schedule's current
        offline count, so restarts are just ``count`` dropping.  Returns
        the number offline.
        """
        count = max(0, min(int(count), len(self.workers)))
        for worker in self.workers:
            worker.offline = False
        if count:
            ranked = sorted(
                self.workers, key=lambda worker: (worker.busy_until > now, worker.index)
            )
            for worker in ranked[:count]:
                worker.offline = True
        return count

    def execute(
        self,
        worker: WorkerHandle,
        task: WorkerTask,
        service_for: ServiceFor,
        on_complete: OnComplete,
    ) -> None:
        """Occupy ``worker`` with ``task(worker.plans)`` and arrange for
        ``on_complete(result, fire_time)`` to run on the loop when done."""
        raise NotImplementedError

    def release(self, worker: WorkerHandle, now: float) -> None:
        """Return ``worker`` to the free list as of ``now``."""
        worker.busy_until = now

    def resize(
        self,
        num_workers: int,
        now: float,
        worker_plans: Optional[Sequence[object]] = None,
    ) -> int:
        """Grow or shrink the pool to ``num_workers`` slots; returns the
        actual size.

        Growing appends fresh (immediately free) slots, one per entry of
        ``worker_plans`` when given.  Shrinking removes *free* slots from
        the tail — a worker mid-batch is never revoked, so a shrink under
        load lands partially and the caller sees the actual size; the next
        resize (or the autoscaler's next evaluation) finishes the job once
        the stragglers complete.
        """
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        current = len(self.workers)
        if num_workers > current:
            added = num_workers - current
            plans = list(worker_plans) if worker_plans is not None else [None] * added
            if len(plans) != added:
                raise ValueError(
                    f"worker_plans must provide one bundle per added worker "
                    f"({added}), got {len(plans)}"
                )
            next_index = max(worker.index for worker in self.workers) + 1
            for offset, plan in enumerate(plans):
                self.workers.append(
                    WorkerHandle(next_index + offset, busy_until=now, plans=plan)
                )
        elif num_workers < current:
            removable = current - num_workers
            retained: List[WorkerHandle] = []
            for worker in reversed(self.workers):
                if removable > 0 and worker.busy_until <= now:
                    removable -= 1
                    continue
                retained.append(worker)
            self.workers = list(reversed(retained))
        return len(self.workers)

    def shutdown(self) -> None:
        """Release any OS resources (threads); idempotent."""


class SimulatedWorkerPool(WorkerPool):
    """Deterministic discrete-event slots — the paper-table default.

    The task runs inline at dispatch time (on the loop thread), the worker
    is busy for the *modelled* service time, and the completion fires as a
    simulated-time event — exactly the pre-pool fabric behaviour, event for
    event.
    """

    backend = "simulated"

    def execute(
        self,
        worker: WorkerHandle,
        task: WorkerTask,
        service_for: ServiceFor,
        on_complete: OnComplete,
    ) -> None:
        result = task(worker.plans)
        service = service_for(result)
        worker.busy_until = self.events.clock.now + service
        self.events.schedule(
            worker.busy_until,
            lambda fire_time, r=result: on_complete(r, fire_time),
        )


class ThreadPoolWorkerPool(WorkerPool):
    """Real thread-pool workers against a wall clock.

    Each worker slot maps to one executor thread running compiled forwards
    on its private plan bundle; the modelled service time is ignored — the
    completion is posted back to the event loop when the computation
    *actually* finishes, and the loop's in-flight accounting keeps ``run()``
    alive until it lands.  A task that raises on the worker thread re-raises
    on the loop thread (wrapped in :class:`RuntimeError`), so failures
    surface instead of deadlocking the drain.

    Chaos crash windows work here too: :meth:`WorkerPool.apply_offline`
    runs on the loop thread at each window boundary, a worker
    mid-batch finishes its real computation before going dark, and the
    loop's idle gates keep ``run()`` alive while queued work waits out a
    crash window for the restart boundary.
    """

    backend = "thread"

    def __init__(
        self,
        events: EventLoop,
        num_workers: int,
        worker_plans: Optional[Sequence[object]] = None,
        name: str = "worker",
    ) -> None:
        super().__init__(events, num_workers, worker_plans)
        self._name_prefix = f"repro-{name}"
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix=self._name_prefix
        )
        self._closed = False

    def execute(
        self,
        worker: WorkerHandle,
        task: WorkerTask,
        service_for: ServiceFor,
        on_complete: OnComplete,
    ) -> None:
        worker.busy_until = math.inf  # busy until the real completion lands
        self.events.begin_inflight()
        future = self._executor.submit(task, worker.plans)

        def _done(future) -> None:
            try:
                try:
                    result = future.result()
                except BaseException as exc:

                    def _reraise(fire_time: float, exc: BaseException = exc) -> None:
                        raise RuntimeError(
                            f"worker {worker.index} task failed: {exc!r}"
                        ) from exc

                    self.events.post(_reraise)
                else:
                    self.events.post(
                        lambda fire_time, r=result: on_complete(r, fire_time)
                    )
            finally:
                self.events.end_inflight()

        future.add_done_callback(_done)

    def resize(
        self,
        num_workers: int,
        now: float,
        worker_plans: Optional[Sequence[object]] = None,
    ) -> int:
        """Resize by executor re-creation (a live executor cannot shrink).

        The handle bookkeeping follows the base rule (busy slots survive a
        shrink); when the slot count actually changes, a new executor sized
        to it replaces the old one, which is shut down without waiting —
        futures already running on it still complete and post their
        results, they just become the old executor's last work.
        """
        if self._closed:
            raise RuntimeError("cannot resize a shut-down worker pool")
        before = len(self.workers)
        actual = super().resize(num_workers, now, worker_plans)
        if actual != before:
            previous = self._executor
            self._executor = ThreadPoolExecutor(
                max_workers=actual, thread_name_prefix=self._name_prefix
            )
            previous.shutdown(wait=False)
        return actual

    def shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)


WORKER_POOL_BACKENDS = ("simulated", "thread")


def make_worker_pool(
    backend: str,
    events: EventLoop,
    num_workers: int,
    worker_plans: Optional[Sequence[object]] = None,
    name: str = "worker",
) -> WorkerPool:
    """Build the named pool backend over ``events``."""
    if backend == "simulated":
        return SimulatedWorkerPool(events, num_workers, worker_plans)
    if backend == "thread":
        return ThreadPoolWorkerPool(events, num_workers, worker_plans, name=name)
    raise ValueError(
        f"unknown worker-pool backend '{backend}' (choose from {WORKER_POOL_BACKENDS})"
    )
