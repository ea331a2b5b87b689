"""Open-loop load generation for tail-latency studies of the DDNN server.

Closed-loop drivers (submit, wait, repeat) can never overload a server —
the arrival rate implicitly tracks the service rate, hiding exactly the
regime the paper's always-on sensor streams live in.  This module drives
:class:`~repro.serving.server.DDNNServer` **open-loop**: arrivals follow an
externally-defined stochastic process that does not care whether the server
keeps up.

Everything runs on a :class:`SimulatedClock` as a deterministic
discrete-event simulation:

* an :class:`ArrivalProcess` (:class:`PoissonProcess`, or the sinusoidal
  day/night :class:`DiurnalProcess`) yields absolute arrival times from a
  seeded RNG;
* a :class:`ServiceModel` (affine in batch size: ``overhead + n * per_sample``)
  stands in for wall-clock compute, so latency numbers are exactly
  reproducible and independent of the machine running the study;
* :class:`LoadGenerator` interleaves arrivals and batch releases in
  simulated-time order, submitting through the server's admission control
  (:meth:`DDNNServer.offer`), releasing a batch when the shared
  :meth:`BatchingPolicy.due <repro.serving.batcher.BatchingPolicy.due>`
  trigger fires and the single worker is free, and running real model
  inference for every served batch — predictions are real, only *time* is
  simulated.

The per-request latencies, reject/drop/shed rates and tail percentiles are
summarised in a :class:`LoadReport`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

import numpy as np

from .admission import AdmissionOutcome
from .clock import SimulatedClock

if TYPE_CHECKING:  # pragma: no cover - the server imports the fabric, which imports this
    from .fabric import FabricResponse
    from .server import DDNNServer

__all__ = [
    "SimulatedClock",
    "ArrivalProcess",
    "PoissonProcess",
    "DiurnalProcess",
    "ServiceModel",
    "LoadReport",
    "LoadGenerator",
]


class ArrivalProcess:
    """Base class: an iterable of monotonically increasing arrival times."""

    def times(self) -> Iterator[float]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[float]:
        return self.times()


class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps at ``rate_rps``."""

    def __init__(self, rate_rps: float, seed: int = 0, start: float = 0.0) -> None:
        if not rate_rps > 0.0:
            raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
        self.rate_rps = float(rate_rps)
        self.seed = int(seed)
        self.start = float(start)

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
        if not base_rate_rps > 0.0:
            raise ValueError(f"base_rate_rps must be > 0, got {base_rate_rps}")
        if peak_rate_rps < base_rate_rps:
            raise ValueError(
                f"peak_rate_rps must be >= base_rate_rps, got "
                f"{peak_rate_rps} < {base_rate_rps}"
            )
        if not period_s > 0.0:
            raise ValueError(f"period_s must be > 0, got {period_s}")
        self.base_rate_rps = float(base_rate_rps)
        self.peak_rate_rps = float(peak_rate_rps)
        self.period_s = float(period_s)
        self.seed = int(seed)
        self.start = float(start)

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
    exhibits; :meth:`from_plan_timings` calibrates the two coefficients from
    the compiled plan's kernel timings when machine-specific numbers are
    wanted.
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

    @classmethod
    def from_plan_timings(
        cls,
        server: "DDNNServer",
        views: np.ndarray,
        batch_size: int = 32,
        repeats: int = 3,
    ) -> "ServiceModel":
        """Calibrate from the compiled plan's per-op timing hook.

        Instead of timing whole wall-clock forwards, this enables
        :meth:`repro.compile.CompiledDDNN.enable_timing`, runs the
        server's compiled plan at batch sizes 1 and ``batch_size``, and
        fits the affine model to the summed per-op times — pure kernel
        time, free of Python dispatch and routing noise.  The per-op
        breakdown stays available on the compiled plan afterwards
        (``server.cascade.compiled_for(server.model).op_timings()``).
        """
        if batch_size < 2:
            raise ValueError("batch_size must be >= 2 to fit two coefficients")
        views = np.asarray(views)
        if views.ndim != 4 and len(views) < batch_size:
            # views[:n] would silently fit on a smaller batch than asked for.
            raise ValueError(
                f"views holds {len(views)} samples, fewer than batch_size={batch_size}; "
                "pass one sample (repeated to the batch) or at least batch_size"
            )
        compiled = server.cascade.compiled_for(server.model)
        compiled.enable_timing()
        try:

            def _plan_time(n: int) -> float:
                batch = np.repeat(views[None], n, axis=0) if views.ndim == 4 else views[:n]
                best = math.inf
                for _ in range(repeats):
                    compiled.reset_timing()
                    compiled(batch)
                    best = min(best, compiled.total_time_s)
                return best

            t_one = _plan_time(1)
            t_full = _plan_time(batch_size)
        finally:
            compiled.disable_timing()
        per_sample = max((t_full - t_one) / (batch_size - 1), 1e-9)
        overhead = max(t_one - per_sample, 0.0)
        return cls(batch_overhead_s=overhead, per_sample_s=per_sample)


@dataclass
class LoadReport:
    """Outcome of one open-loop run: admission counts and latency tails.

    Percentiles are over the *queued-and-served* responses (the primary
    QoS metric); shed responses are answered immediately at the local exit
    and counted separately.
    """

    offered: int
    served: int
    rejected: int
    dropped: int
    shed: int
    duration_s: float
    offered_rate_rps: float
    mean_latency_s: float = 0.0
    p50_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    max_latency_s: float = 0.0
    responses: List["FabricResponse"] = field(default_factory=list)
    shed_responses: List["FabricResponse"] = field(default_factory=list)

    @property
    def reject_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0


class LoadGenerator:
    """Drives a server with an open-loop arrival process in simulated time.

    Parameters
    ----------
    server:
        A :class:`~repro.serving.server.DDNNServer` built on the *same* :class:`SimulatedClock`
        instance passed here — the generator owns time, the server stamps
        requests and responses with it.
    process:
        The arrival process; each arrival submits one sample.
    views:
        Samples cycled through in arrival order, shape
        ``(num_samples, num_devices, C, H, W)``.
    targets:
        Optional labels aligned with ``views`` (enables accuracy tracking).
    service_model:
        Simulated compute cost per micro-batch.
    clients:
        Client ids assigned round-robin to arrivals.
    """

    def __init__(
        self,
        server: "DDNNServer",
        process: ArrivalProcess,
        views: np.ndarray,
        targets: Optional[Sequence[int]] = None,
        service_model: Optional[ServiceModel] = None,
        clients: Sequence[str] = ("client-0",),
    ) -> None:
        if not isinstance(server.clock, SimulatedClock):
            raise TypeError(
                "LoadGenerator needs a server built on a SimulatedClock "
                "(pass clock=SimulatedClock() to DDNNServer)"
            )
        views = np.asarray(views)
        if views.ndim != 5:
            raise ValueError(
                f"views must have shape (num_samples, num_devices, C, H, W), got {views.shape}"
            )
        if targets is not None and len(targets) != len(views):
            raise ValueError("targets must align with views")
        if not clients:
            raise ValueError("at least one client id is required")
        self.server = server
        self.clock: SimulatedClock = server.clock
        self.process = process
        self.views = views
        self.targets = None if targets is None else [int(t) for t in targets]
        self.service_model = service_model if service_model is not None else ServiceModel()
        self.clients = list(clients)

    # ------------------------------------------------------------------ #
    def _next_release_time(self, busy_until: float, draining: bool) -> float:
        """When the next micro-batch may start, given queue state and policy."""
        queue = self.server.queue
        if not queue:
            return math.inf
        policy = self.server.policy
        now = self.clock.now
        oldest = queue[0].submit_time
        if policy.due(len(queue), oldest, now, draining):
            return max(now, busy_until)
        return max(oldest + policy.max_wait_s, busy_until)

    def run(self, num_requests: int) -> LoadReport:
        """Generate ``num_requests`` arrivals, then drain; returns the report.

        A finite arrival process may end the run early.  Batches start
        when the batching policy fires *and* the (single) serving worker is
        free; each batch occupies the worker for the service model's batch
        time, which is how sustained overload turns into queueing delay.
        """
        if num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {num_requests}")
        arrivals = iter(self.process)
        next_arrival = next(arrivals, None)
        started_at = self.clock.now
        busy_until = self.clock.now
        submitted = 0
        rejected = 0
        shed = 0
        dropped = 0
        responses: List["FabricResponse"] = []
        shed_responses: List["FabricResponse"] = []

        while True:
            arrivals_open = submitted < num_requests and next_arrival is not None
            if not arrivals_open and not self.server.queue:
                break
            arrival_time = next_arrival if arrivals_open else math.inf
            release_time = self._next_release_time(busy_until, draining=not arrivals_open)

            if arrival_time <= release_time:
                # Arrivals first on ties so a sample landing exactly at a
                # release instant still joins that batch, like live traffic.
                self.clock.advance_to(arrival_time)
                index = submitted % len(self.views)
                result = self.server.offer(
                    self.views[index],
                    client_id=self.clients[submitted % len(self.clients)],
                    target=None if self.targets is None else self.targets[index],
                )
                if result.outcome is AdmissionOutcome.REJECTED:
                    rejected += 1
                elif result.outcome is AdmissionOutcome.SHED:
                    shed += 1
                    shed_responses.append(result.response)
                elif result.evicted is not None:
                    dropped += 1
                submitted += 1
                next_arrival = next(arrivals, None)
                continue

            # A batch is due: the policy trigger fired and the worker is free.
            # It occupies the worker for its service time; the server forms
            # and answers it at the completion instant, and since no arrival
            # is offered in between it is the batch that was due at release.
            self.clock.advance_to(release_time)
            size = min(len(self.server.queue), self.server.policy.max_batch_size)
            self.clock.advance(self.service_model.batch_time_s(size))
            responses.extend(self.server.step(force=True))
            busy_until = self.clock.now

        duration = max(self.clock.now - started_at, 0.0)
        latencies = np.array([response.latency_s for response in responses])
        report = LoadReport(
            offered=submitted,
            served=len(responses),
            rejected=rejected,
            dropped=dropped,
            shed=shed,
            duration_s=duration,
            offered_rate_rps=submitted / duration if duration > 0 else 0.0,
            responses=responses,
            shed_responses=shed_responses,
        )
        if latencies.size:
            report.mean_latency_s = float(latencies.mean())
            report.p50_latency_s = float(np.percentile(latencies, 50))
            report.p95_latency_s = float(np.percentile(latencies, 95))
            report.p99_latency_s = float(np.percentile(latencies, 99))
            report.max_latency_s = float(latencies.max())
        return report
