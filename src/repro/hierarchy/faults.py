"""Fault injection for the hierarchy simulator (paper Section IV-G).

The paper studies fault tolerance by removing end devices and measuring the
accuracy of the remaining system.  Two ways of modelling a dead device are
provided, matching the two places failures can be applied:

* **dataset-level** — :meth:`repro.datasets.MVMCDataset.with_failed_devices`
  replaces the device's views with blank frames, which is what the trained
  network sees for "object not present" and is the modelling used for the
  accuracy numbers (Fig. 10);
* **runtime-level** — :class:`FaultPlan` names the end devices that are
  down; the device tier (:class:`~repro.hierarchy.sections.DeviceTierSection`)
  reads it, and a dead device computes and transmits nothing, which
  exercises the distributed runtime's handling of missing inputs (zero
  contribution).  The plan is the only static fault state: no node carries
  a failure flag, so a faulted run leaves its deployment as it found it.

Both of those are *static*: the fault set is fixed before the run starts.
:class:`ChaosSchedule` adds the third, *temporal* axis — timed fault events
(link outages and flap windows, per-message loss probability, worker
crash/restart windows, whole-tier blackouts, network partitions) that the
serving fabric applies on its injectable clock.  A schedule is pure data
plus a seeded RNG for the loss draws, so on the simulated backend the same
seed replays the same chaos byte for byte; :meth:`ChaosSchedule.reset`
restores the RNG for an identical re-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "FaultPlan",
    "LinkOutage",
    "LinkFlap",
    "LinkLoss",
    "WorkerCrash",
    "ChaosSchedule",
]


@dataclass
class FaultPlan:
    """Which end devices fail.

    Attributes
    ----------
    failed_devices:
        Indices of end devices that are offline for the whole run.
    """

    failed_devices: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.failed_devices = set(int(i) for i in self.failed_devices)

    def device_is_down(self, device_index: int) -> bool:
        """True if a device is permanently failed."""
        return device_index in self.failed_devices

    def _check_nodes(self, num_devices: int) -> None:
        """Reject indices of devices a deployment lacks: such an entry would
        silently inject no fault at all."""
        unknown = sorted(i for i in self.failed_devices if not 0 <= i < num_devices)
        if unknown:
            raise ValueError(
                f"fault plan names devices the deployment lacks ({num_devices} "
                f"devices): failed_devices {unknown}"
            )


# --------------------------------------------------------------------------- #
# Runtime chaos: timed fault events for the serving fabric.
# --------------------------------------------------------------------------- #

#: Wildcard endpoint matching any link source/destination.
ANY = "*"


def _check_window(start: float, end: float, what: str) -> None:
    if math.isnan(start) or math.isnan(end):
        raise ValueError(f"{what} window must not be NaN")
    if not end > start:
        raise ValueError(f"{what} window must satisfy end > start, got [{start}, {end})")


def _endpoint_match(pattern: str, name: str) -> bool:
    return pattern == ANY or pattern == name


@dataclass(frozen=True)
class LinkOutage:
    """A link (or partition of links) is completely dark on ``[start, end)``.

    Endpoints match the *tier-level* names the serving fabric offloads
    between (e.g. ``"devices" -> "cloud"``); ``"*"`` matches anything, so
    ``LinkOutage(destination="cloud")`` is a cloud partition — every uplink
    into the cloud tier is dark — and the default arguments give a total
    network blackout.
    """

    source: str = ANY
    destination: str = ANY
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "outage")

    def active(self, source: str, destination: str, t: float) -> bool:
        return (
            _endpoint_match(self.source, source)
            and _endpoint_match(self.destination, destination)
            and self.start <= t < self.end
        )


@dataclass(frozen=True)
class LinkFlap:
    """A link that goes dark periodically: down for ``down_s`` out of every
    ``period_s``, phase-aligned to ``start``, while ``start <= t < end``."""

    period_s: float
    down_s: float
    source: str = ANY
    destination: str = ANY
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "flap")
        if not self.period_s > 0.0:
            raise ValueError(f"flap period_s must be > 0, got {self.period_s}")
        if not 0.0 < self.down_s < self.period_s:
            raise ValueError(
                f"flap down_s must be in (0, period_s), got {self.down_s} "
                f"for period {self.period_s}"
            )

    def active(self, source: str, destination: str, t: float) -> bool:
        if not (
            _endpoint_match(self.source, source)
            and _endpoint_match(self.destination, destination)
            and self.start <= t < self.end
        ):
            return False
        return (t - self.start) % self.period_s < self.down_s


@dataclass(frozen=True)
class LinkLoss:
    """Each message over a matching link is lost with ``probability`` while
    ``start <= t < end`` (a lossy, but up, link)."""

    probability: float
    source: str = ANY
    destination: str = ANY
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "loss")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1], got {self.probability}"
            )

    def active(self, source: str, destination: str, t: float) -> bool:
        return (
            _endpoint_match(self.source, source)
            and _endpoint_match(self.destination, destination)
            and self.start <= t < self.end
        )


@dataclass(frozen=True)
class WorkerCrash:
    """``workers`` worker slots of tier ``tier`` are offline on ``[start, end)``.

    ``workers=None`` means *all* of them — a whole-tier blackout.  Crashed
    workers restart when the window closes.  The fabric applies crashes at
    batch boundaries: a worker mid-batch finishes that batch, then goes
    dark (the simulator has no notion of half-computed work to lose).
    """

    tier: str
    start: float
    end: float
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "crash")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError("crash windows must be finite (workers must restart)")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"crash workers must be >= 1 or None, got {self.workers}")

    def active(self, tier: str, t: float) -> bool:
        return self.tier == tier and self.start <= t < self.end


class ChaosSchedule:
    """A deterministic timetable of runtime faults for the serving fabric.

    The schedule is consulted by :meth:`NetworkFabric.delivery
    <repro.hierarchy.network.NetworkFabric.delivery>` for every offload
    message (is the link up? did the message survive the loss draw?) and by
    the fabric's pre-scheduled worker-chaos events (how many workers of
    this tier are down right now?).  All state lives in the event
    definitions plus one seeded RNG for loss draws, so on the simulated
    backend the same schedule + seed reproduces the same fault realisation
    byte for byte; :meth:`reset` rewinds the RNG for an identical re-run.
    """

    def __init__(
        self,
        outages: Sequence[LinkOutage] = (),
        flaps: Sequence[LinkFlap] = (),
        losses: Sequence[LinkLoss] = (),
        crashes: Sequence[WorkerCrash] = (),
        seed: int = 0,
    ) -> None:
        self.outages: Tuple[LinkOutage, ...] = tuple(outages)
        self.flaps: Tuple[LinkFlap, ...] = tuple(flaps)
        self.losses: Tuple[LinkLoss, ...] = tuple(losses)
        self.crashes: Tuple[WorkerCrash, ...] = tuple(crashes)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def reset(self) -> "ChaosSchedule":
        """Rewind the loss-draw RNG to its seeded state (fresh-run semantics)."""
        self._rng = np.random.default_rng(self.seed)
        return self

    @property
    def has_link_chaos(self) -> bool:
        """True when any event can darken a link or lose a message."""
        return bool(self.outages or self.flaps or self.losses)

    # -- links ---------------------------------------------------------- #
    def link_up(self, source: str, destination: str, t: float) -> bool:
        """False while any outage or flap down-phase covers the link at ``t``."""
        for outage in self.outages:
            if outage.active(source, destination, t):
                return False
        for flap in self.flaps:
            if flap.active(source, destination, t):
                return False
        return True

    def loss_probability(self, source: str, destination: str, t: float) -> float:
        """Combined loss probability of all active loss events (independent)."""
        survive = 1.0
        for loss in self.losses:
            if loss.active(source, destination, t):
                survive *= 1.0 - loss.probability
        return 1.0 - survive

    def sample_loss(self, source: str, destination: str, t: float) -> bool:
        """Draw whether a message on the link at ``t`` is lost.

        Consumes one RNG draw only when a loss event is active, so runs
        whose loss windows never overlap traffic stay draw-for-draw
        comparable with loss-free runs.
        """
        probability = self.loss_probability(source, destination, t)
        if probability <= 0.0:
            return False
        return bool(self._rng.random() < probability)

    # -- workers -------------------------------------------------------- #
    def workers_down(self, tier: str, t: float, pool_size: int) -> int:
        """Number of ``tier``'s workers offline at ``t``, capped at the pool."""
        down = 0
        for crash in self.crashes:
            if crash.active(tier, t):
                down += pool_size if crash.workers is None else crash.workers
        return min(down, pool_size)

    def worker_event_times(self, tier: str) -> List[float]:
        """Sorted boundary instants where ``tier``'s offline count can change.

        The fabric pre-schedules one re-evaluation event per boundary, which
        is all it takes to track the schedule exactly — the offline count is
        piecewise constant between boundaries.
        """
        times = set()
        for crash in self.crashes:
            if crash.tier == tier:
                times.add(float(crash.start))
                times.add(float(crash.end))
        return sorted(times)
