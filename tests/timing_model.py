"""Reference timing model of the fault-free serving fabric.

An independent statement of when the two-tier fabric (devices, then the
cloud) answers each request, written without the fabric: no section, no
link object, no worker pool, no event loop of the package.  Everything that
sets a simulated time is deterministic once the faults are gone:

* each tier is a FIFO queue with ``workers`` slots and a
  :class:`~repro.serving.BatchingPolicy`; a batch of ``n`` occupies a slot
  for ``ServiceModel.batch_time_s(n)``;
* the queue releases a batch when a slot is free and ``BatchingPolicy.due``
  says so, which is checked when requests arrive, when a slot frees and
  when the wait timer that an arrival armed fires;
* the rows of one device batch that do not exit locally travel together
  and reach the cloud queue after one uplink transfer,
  ``latency + feature_bytes / bandwidth`` (the slowest device's);
* bytes are the paper's Eq. 1: every request pays the devices' class-score
  summaries, an offloaded one also their feature maps.

Which requests exit locally is the caller's input (``ExitOracle.route``
decides it offline).  Events at one instant fire in the order they were
scheduled, as on :class:`~repro.serving.EventLoop`.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.serving import BatchingPolicy, ServiceModel

__all__ = ["Answer", "Tier", "reference_run"]


@dataclass(frozen=True)
class Tier:
    """One tier's worker count, batching policy and service-time model."""

    workers: int
    batching: BatchingPolicy
    service: ServiceModel


@dataclass(frozen=True)
class Answer:
    """Where and when one request is answered, and the bytes it sent."""

    exit_index: int
    bytes: float
    completion_s: float


_ARRIVE, _TIMER, _DONE = range(3)


def reference_run(
    arrivals: Sequence[float],
    exits_locally: Sequence[bool],
    tiers: Tuple[Tier, Tier],
    summary_bytes: Sequence[float],
    feature_bytes: Sequence[float],
    uplink: Tuple[float, float],
) -> List[Answer]:
    """Answers of requests ``0..n-1`` arriving at ``arrivals`` (ascending).

    ``exits_locally[k]`` says whether request ``k`` leaves at the local exit
    (exit 0) or at the cloud's (exit 1).  ``summary_bytes`` and
    ``feature_bytes`` are per device; ``uplink`` is the devices' cloud link
    as ``(bandwidth_bytes_per_s, latency_s)``.
    """
    bandwidth, latency = uplink
    offload_delay = max(latency + size / bandwidth for size in feature_bytes)
    intake = sum(summary_bytes, 0.0)
    offload = sum(feature_bytes, 0.0)

    events: list = []
    sequence = [0]

    def schedule(when: float, kind: int, tier: int, data=None) -> None:
        heapq.heappush(events, (when, sequence[0], kind, tier, data))
        sequence[0] += 1

    queues = [deque() for _ in tiers]  # (request, time it joined the queue)
    # A slot is free once the clock reaches its busy-until time, and a
    # completing batch sets it to the completion time.  A second batch can
    # therefore start on a slot whose completion event at this very instant
    # has not fired yet (see CHANGES.md, FOUND on the worker pool).
    busy_until = [[0.0] * tier.workers for tier in tiers]
    sent = [0.0] * len(arrivals)
    answers: List[Answer] = [None] * len(arrivals)  # type: ignore[list-item]

    def dispatch(index: int, now: float) -> None:
        queue, policy = queues[index], tiers[index].batching
        while queue and policy.due(len(queue), queue[0][1], now, False):
            slots = busy_until[index]
            worker = next((w for w, free in enumerate(slots) if free <= now), None)
            if worker is None:
                return
            batch = [queue.popleft()[0] for _ in range(min(len(queue), policy.max_batch_size))]
            slots[worker] = now + tiers[index].service.batch_time_s(len(batch))
            schedule(slots[worker], _DONE, index, (worker, batch))

    def arrive(index: int, requests: List[int], now: float) -> None:
        queues[index].extend((request, now) for request in requests)
        dispatch(index, now)
        wait = tiers[index].batching.max_wait_s
        if queues[index] and wait > 0.0:
            schedule(now + wait, _TIMER, index)

    def complete(index: int, worker: int, batch: List[int], now: float) -> None:
        up = []
        for request in batch:
            if index == 0:
                sent[request] += intake
            if index == 1 or exits_locally[request]:
                answers[request] = Answer(index, sent[request], now)
            else:
                up.append(request)
        if up:
            for request in up:
                sent[request] += offload
            schedule(now + offload_delay, _ARRIVE, 1, up)
        busy_until[index][worker] = now
        dispatch(index, now)

    if len(arrivals):
        schedule(arrivals[0], _ARRIVE, 0, [0])
    while events:
        now, _, kind, index, data = heapq.heappop(events)
        if kind == _ARRIVE:
            arrive(index, data, now)
            if index == 0 and data[0] + 1 < len(arrivals):
                # The load generator schedules each arrival when the one
                # before it fires.
                schedule(arrivals[data[0] + 1], _ARRIVE, 0, [data[0] + 1])
        elif kind == _TIMER:
            dispatch(index, now)
        else:
            complete(index, *data, now)
    return answers
