"""Dynamic micro-batching scheduler for the DDNN server.

The scheduler trades latency for throughput with two knobs:

* ``max_batch_size`` — never run the model on more samples than this;
* ``max_wait_s`` — never hold the head-of-line request longer than this
  waiting for the batch to fill.

A batch is released as soon as it is full, or as soon as the oldest
pending request has waited ``max_wait_s``.  ``max_batch_size=1`` degrades
to sequential (request-at-a-time) serving.  The same policy forms the
batches of every tier of the distributed fabric.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, List, Optional

from .queue import InferenceRequest, RequestQueue

__all__ = ["BatchingPolicy", "MicroBatcher"]


@dataclass(frozen=True)
class BatchingPolicy:
    """Knobs controlling when queued requests are drained into a batch."""

    max_batch_size: int = 32
    max_wait_s: float = 0.002

    def __post_init__(self) -> None:
        # A bool is an int; a fractional size pops more rows than it names.
        size = self.max_batch_size
        if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
            raise ValueError(f"max_batch_size must be an int >= 1, got {size!r}")
        # NaN passes a `< 0` test and then never triggers the wait timer;
        # inf answers everything at t = inf.
        wait = self.max_wait_s
        if (
            isinstance(wait, bool)
            or not isinstance(wait, numbers.Real)
            or not (math.isfinite(wait) and wait >= 0.0)
        ):
            raise ValueError(f"max_wait_s must be a finite number >= 0, got {wait!r}")


class MicroBatcher:
    """Drains a :class:`RequestQueue` into micro-batches per the policy."""

    def __init__(
        self,
        queue: RequestQueue,
        policy: Optional[BatchingPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.queue = queue
        self.policy = policy if policy is not None else BatchingPolicy()
        self.clock = clock if clock is not None else queue.clock
        self.batches_formed = 0

    def ready(self, now: Optional[float] = None) -> bool:
        """Whether a batch should be released right now."""
        depth = len(self.queue)
        if depth == 0:
            return False
        if depth >= self.policy.max_batch_size:
            return True
        now = self.clock() if now is None else now
        return self.queue.oldest_wait_s(now) >= self.policy.max_wait_s

    def next_batch(self, force: bool = False) -> List[InferenceRequest]:
        """Release the next micro-batch, or ``[]`` if none is due.

        With ``force=True`` a non-empty queue always yields a batch, even if
        neither the size nor the wait trigger has fired — used when draining
        the queue at shutdown.
        """
        if not force and not self.ready():
            return []
        batch = self.queue.pop_batch(self.policy.max_batch_size)
        if batch:
            self.batches_formed += 1
        return batch
