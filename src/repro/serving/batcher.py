"""Dynamic micro-batching policy shared by every serving queue.

The policy trades latency for throughput with two knobs:

* ``max_batch_size`` — never run the model on more samples than this;
* ``max_wait_s`` — never hold the head-of-line request longer than this
  waiting for the batch to fill.

A batch is released as soon as it is full, or as soon as the oldest
pending request has waited ``max_wait_s`` (:meth:`BatchingPolicy.due`).
``max_batch_size=1`` degrades to sequential (request-at-a-time) serving.
The same policy, and the same trigger, forms the batches of every tier of
the distributed fabric, the one-tier
:class:`~repro.serving.server.DDNNServer` included: a tier checks it when
a request arrives, when a worker frees up, and when the wait timer its
head-of-line request armed fires.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from ..datasets.mvmc import _int_at_least

__all__ = ["BatchingPolicy"]


@dataclass(frozen=True)
class BatchingPolicy:
    """Knobs controlling when queued requests are drained into a batch."""

    max_batch_size: int = 32
    max_wait_s: float = 0.002

    def __post_init__(self) -> None:
        # A fractional size pops more rows than it names.
        _int_at_least(self.max_batch_size, "max_batch_size")
        # NaN passes a `< 0` test and then never triggers the wait timer;
        # inf answers everything at t = inf.
        wait = self.max_wait_s
        if (
            isinstance(wait, bool)
            or not isinstance(wait, numbers.Real)
            or not (math.isfinite(wait) and wait >= 0.0)
        ):
            raise ValueError(f"max_wait_s must be a finite number >= 0, got {wait!r}")

    def due(self, depth: int, oldest_arrival: float, now: float, draining: bool) -> bool:
        """Whether a queue of ``depth`` requests, the oldest of which arrived
        at ``oldest_arrival``, releases a batch at ``now``.

        ``draining`` releases any non-empty queue (shutdown, dataset replay).
        """
        if depth == 0:
            return False
        if draining or depth >= self.max_batch_size:
            return True
        # Same float expression a wait timer is scheduled with, so a timer
        # firing at exactly arrival + max_wait always finds the batch due
        # (now - arrival >= max_wait can round the other way).
        return now >= oldest_arrival + self.max_wait_s
