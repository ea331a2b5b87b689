"""Open-loop arrival processes and the service-time model of serving studies.

Closed-loop drivers (submit, wait, repeat) can never overload a server —
the arrival rate implicitly tracks the service rate, hiding exactly the
regime the paper's always-on sensor streams live in.  Serving studies
therefore drive a :class:`~repro.serving.fabric.DistributedServingFabric`
(or its one-tier :class:`~repro.serving.server.DDNNServer`) **open-loop**
with :meth:`~repro.serving.fabric.DistributedServingFabric.open_loop`:
arrivals follow an externally-defined stochastic process that does not
care whether the server keeps up, each offered at its own instant on the
fabric's event loop.  This module holds the two inputs of such a run:

* an :class:`ArrivalProcess` (:class:`PoissonProcess`, or the sinusoidal
  day/night :class:`DiurnalProcess`) yields absolute arrival times from a
  seeded RNG;
* a :class:`ServiceModel` (affine in batch size: ``overhead + n * per_sample``)
  stands in for wall-clock compute on a simulated clock, so latency numbers
  are exactly reproducible and independent of the machine running the
  study — predictions are real, only *time* is simulated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "DiurnalProcess",
    "ServiceModel",
]


def _finite(name: str, value, positive: bool = False) -> float:
    """``value`` as a float, or a ``ValueError`` naming ``name``.  An
    infinite rate yields arrivals that never advance, a NaN start NaN
    times, and an infinite peak a NaN thinning ratio that never accepts."""
    value = float(value)
    if not math.isfinite(value) or (positive and not value > 0.0):
        raise ValueError(f"{name} must be finite{' and > 0' if positive else ''}, got {value}")
    return value


class ArrivalProcess:
    """Base class: an iterable of monotonically increasing arrival times."""

    def times(self) -> Iterator[float]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[float]:
        return self.times()


class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps at ``rate_rps``."""

    def __init__(self, rate_rps: float, seed: int = 0, start: float = 0.0) -> None:
        self.rate_rps = _finite("rate_rps", rate_rps, positive=True)
        self.seed = int(seed)
        self.start = _finite("start", start)

    def times(self) -> Iterator[float]:
        rng = np.random.default_rng(self.seed)
        now = self.start
        while True:
            now += rng.exponential(1.0 / self.rate_rps)
            yield now


class DiurnalProcess(ArrivalProcess):
    """Non-homogeneous Poisson arrivals on a sinusoidal day/night cycle.

    The instantaneous rate ramps smoothly between ``base_rate_rps``
    (trough) and ``peak_rate_rps`` (crest) with period ``period_s``,
    starting at the trough — the slow load swing an autoscaler is built
    for.
    Arrivals are generated by thinning a homogeneous process at the peak
    rate, so the sequence is deterministic for a given seed.
    """

    def __init__(
        self,
        base_rate_rps: float,
        peak_rate_rps: float,
        period_s: float = 60.0,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        self.base_rate_rps = _finite("base_rate_rps", base_rate_rps, positive=True)
        self.peak_rate_rps = _finite("peak_rate_rps", peak_rate_rps, positive=True)
        if self.peak_rate_rps < self.base_rate_rps:
            raise ValueError(
                f"peak_rate_rps must be >= base_rate_rps, got "
                f"{peak_rate_rps} < {base_rate_rps}"
            )
        self.period_s = _finite("period_s", period_s, positive=True)
        self.seed = int(seed)
        self.start = _finite("start", start)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at absolute time ``t``."""
        mid = (self.base_rate_rps + self.peak_rate_rps) / 2.0
        amplitude = (self.peak_rate_rps - self.base_rate_rps) / 2.0
        phase = 2.0 * math.pi * (t - self.start) / self.period_s
        # -cos starts the cycle at the trough and crests at period/2.
        return mid - amplitude * math.cos(phase)

    def times(self) -> Iterator[float]:
        rng = np.random.default_rng(self.seed)
        now = self.start
        while True:
            # Thinning (Lewis & Shedler): candidates at the peak rate,
            # accepted with probability rate(t) / peak.
            now += rng.exponential(1.0 / self.peak_rate_rps)
            if rng.uniform() * self.peak_rate_rps <= self.rate_at(now):
                yield now


@dataclass(frozen=True)
class ServiceModel:
    """Affine batch service-time model: ``overhead + n * per_sample``.

    The affine shape is what micro-batching exploits (amortising the fixed
    overhead over ``n`` samples) and is what the real NumPy forward pass
    exhibits.  The coefficients are set by hand, not measured, so a
    simulated run's latencies are the same on every machine.
    """

    batch_overhead_s: float = 0.002
    per_sample_s: float = 0.001

    def __post_init__(self) -> None:
        # NaN passes a `< 0` test and then turns every latency (and the
        # clock) into NaN; inf parks the worker forever.
        for name, positive in (("batch_overhead_s", False), ("per_sample_s", True)):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
                or value < 0.0
                or (positive and value == 0.0)
            ):
                bound = "> 0" if positive else ">= 0"
                raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")

    def batch_time_s(self, batch_size: int) -> float:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self.batch_overhead_s + batch_size * self.per_sample_s

    def capacity_rps(self, batch_size: int) -> float:
        """Sustainable service rate when batches fill to ``batch_size``."""
        return batch_size / self.batch_time_s(batch_size)
