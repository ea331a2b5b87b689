"""Tests for overload safety: admission control and open-loop load."""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np
import pytest

from repro.serving import (
    AdmissionOutcome,
    AdmissionStats,
    ArrivalProcess,
    BatchingPolicy,
    DDNNServer,
    DiurnalProcess,
    DropOldest,
    PoissonProcess,
    RejectNewest,
    ServiceModel,
    ShedToLocalExit,
    SimulatedClock,
    admission_policy,
    admit,
)


class TestAdmissionPolicies:
    def test_unbounded_queue_never_consults_admission(self):
        class Exploding(RejectNewest):
            def decide(self):  # pragma: no cover - must not run
                raise AssertionError("admission consulted on an unbounded queue")

        queue, stats = deque(), AdmissionStats()
        for index in range(100):
            assert admit(queue, None, Exploding(), stats) == (AdmissionOutcome.ACCEPTED, None)
            queue.append(index)
        assert stats.accepted == stats.offered == 100

    def test_reject_newest_refuses_and_counts(self):
        queue, stats = deque(["a", "b"]), AdmissionStats()
        assert admit(queue, 2, RejectNewest(), stats) == (AdmissionOutcome.REJECTED, None)
        assert list(queue) == ["a", "b"]
        assert (stats.rejected, stats.offered) == (1, 1)

    def test_drop_oldest_evicts_head_and_accepts(self):
        queue, stats = deque(["a", "b"]), AdmissionStats()
        assert admit(queue, 2, DropOldest(), stats) == (AdmissionOutcome.ACCEPTED, "a")
        # The caller enqueues the arrival behind the survivors.
        assert list(queue) == ["b"]
        assert (stats.accepted, stats.dropped) == (1, 1)

    def test_shed_keeps_the_queue_intact(self):
        queue, stats = deque(["a", "b"]), AdmissionStats()
        assert admit(queue, 2, ShedToLocalExit(), stats) == (AdmissionOutcome.SHED, None)
        assert list(queue) == ["a", "b"]
        assert (stats.shed, stats.offered) == (1, 1)

    def test_a_rejected_submission_is_counted_never_answered(self, trained_ddnn, tiny_test):
        server = DDNNServer(trained_ddnn, 0.8, capacity=2, admission=RejectNewest())
        ids = server.submit_many(list(tiny_test.images[:3]))
        assert [r.request_id for r in server.run_until_idle()] == ids[:2]
        assert server.admission_stats.rejected == 1

    # (accepted, rejected, dropped, shed) after 8 offers to a full queue of 3.
    OVERFLOW = {
        "reject": (3, 8, 0, 0),
        "drop-oldest": (11, 0, 8, 0),
        "shed-local": (3, 0, 0, 8),
    }

    @pytest.mark.parametrize("name", sorted(OVERFLOW))
    def test_overflow_accounting_balances(self, name):
        queue, stats = deque(), AdmissionStats()
        policy = admission_policy(name)
        for index in range(11):
            outcome, _ = admit(queue, 3, policy, stats)
            if outcome is AdmissionOutcome.ACCEPTED:
                queue.append(index)
        assert (stats.accepted, stats.rejected, stats.dropped, stats.shed) == self.OVERFLOW[name]
        assert stats.offered == 11
        assert len(queue) == 3 == stats.accepted - stats.dropped
        # Under drop-oldest the survivors are the newest arrivals.
        assert list(queue) == ([8, 9, 10] if name == "drop-oldest" else [0, 1, 2])

    @pytest.mark.parametrize("name", sorted(OVERFLOW))
    def test_server_answers_or_accounts_every_sample(self, trained_ddnn, tiny_test, name):
        server = DDNNServer(trained_ddnn, 0.8, capacity=3, admission=admission_policy(name))
        server.submit_many(list(tiny_test.images[:8]), client_id="cam")
        responses = server.run_until_idle()
        stats = server.admission_stats
        shed = [r for r in responses if r.shed]
        served = [r for r in responses if not r.shed]
        # A shed sample is answered at once from the local exit; everything
        # else that stayed in the queue gets the full cascade.
        assert len(shed) == stats.shed
        assert all(r.exit_index == 0 for r in shed)
        assert len(served) == stats.accepted - stats.dropped == 3
        assert len(served) + stats.rejected + stats.dropped + stats.shed == 8

    def test_admission_policy_registry(self):
        assert isinstance(admission_policy("reject"), RejectNewest)
        assert isinstance(admission_policy("drop-oldest"), DropOldest)
        assert isinstance(admission_policy("shed-local"), ShedToLocalExit)
        with pytest.raises(ValueError):
            admission_policy("nope")


class TestArrivalProcesses:
    def test_poisson_deterministic_and_rate(self):
        first = list(itertools.islice(iter(PoissonProcess(100.0, seed=7)), 50))
        second = list(itertools.islice(iter(PoissonProcess(100.0, seed=7)), 50))
        assert first == second
        times = np.array(list(itertools.islice(iter(PoissonProcess(250.0, seed=1)), 4000)))
        assert np.all(np.diff(times) >= 0)
        empirical = len(times) / times[-1]
        assert empirical == pytest.approx(250.0, rel=0.1)

    def test_poisson_seed_changes_stream(self):
        a = list(itertools.islice(iter(PoissonProcess(100.0, seed=1)), 10))
        b = list(itertools.islice(iter(PoissonProcess(100.0, seed=2)), 10))
        assert a != b

    def test_process_parameter_validation(self):
        with pytest.raises(ValueError):
            PoissonProcess(0.0)

    @pytest.mark.parametrize(
        "build, name",
        [
            # rate_at computes inf - inf * cos = NaN, so thinning never
            # accepts: the first draw used to hang.
            (lambda: DiurnalProcess(1.0, math.inf), "peak_rate_rps"),
            (lambda: DiurnalProcess(math.nan, 2.0), "base_rate_rps"),
            (lambda: DiurnalProcess(1.0, 2.0, period_s=math.inf), "period_s"),
            (lambda: DiurnalProcess(1.0, 2.0, start=math.inf), "start"),
            # Used to yield 0.0 forever.
            (lambda: PoissonProcess(math.inf), "rate_rps"),
            # Used to yield NaN arrival times.
            (lambda: PoissonProcess(5.0, start=math.nan), "start"),
            (lambda: PoissonProcess(math.nan), "rate_rps"),
        ],
    )
    def test_non_finite_parameters_are_rejected_at_construction(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build()


class TestServiceModel:
    def test_affine_batch_time_and_capacity(self):
        model = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)
        assert model.batch_time_s(1) == pytest.approx(0.003)
        assert model.batch_time_s(16) == pytest.approx(0.018)
        assert model.capacity_rps(16) == pytest.approx(16 / 0.018)
        # Batching amortises the overhead: capacity grows with batch size.
        assert model.capacity_rps(16) > model.capacity_rps(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceModel(batch_overhead_s=-0.001)
        with pytest.raises(ValueError):
            ServiceModel(per_sample_s=0.0)
        with pytest.raises(ValueError):
            ServiceModel().batch_time_s(0)

    @pytest.mark.parametrize(
        "field, value",
        [
            # NaN passes a `< 0` test: 40 of 40 requests "served" at p95 = NaN.
            ("batch_overhead_s", float("nan")),
            ("per_sample_s", float("nan")),
            ("batch_overhead_s", float("inf")),
            ("per_sample_s", float("inf")),
            ("batch_overhead_s", "0.002"),
            ("per_sample_s", None),
            ("per_sample_s", True),
        ],
    )
    def test_rejects_values_that_corrupt_a_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceModel(**{field: value})

    def test_calibration_needs_a_full_batch_of_views(self, trained_ddnn, tiny_test):
        """Four views cannot time a 32-row batch: the fit used to run on a
        4-row batch and report a per-sample cost ten times too small."""
        with pytest.raises(ValueError, match="batch_size"):
            ServiceModel.from_plan_timings(trained_ddnn, tiny_test.images[:4], batch_size=32)
        fitted = ServiceModel.from_plan_timings(
            trained_ddnn, tiny_test.images[:4], batch_size=4, repeats=1
        )
        assert fitted.per_sample_s > 0.0


class TestSimulatedClock:
    def test_advance_to_never_goes_backwards(self):
        clock = SimulatedClock(1.5)
        assert clock() == 1.5
        clock.advance_to(1.0)
        assert clock() == 1.5
        clock.advance_to(2.0)
        assert clock() == 2.0


class TestOpenLoop:
    """The one-tier server driven open-loop on its simulated event loop."""

    SERVICE = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)
    BATCHING = BatchingPolicy(max_batch_size=8, max_wait_s=0.005)

    def _run(self, trained_ddnn, tiny_test, *, capacity=None, admission=None,
             multiplier=2.0, num_requests=160, seed=5, process=None, batching=None):
        batching = batching if batching is not None else self.BATCHING
        server = DDNNServer(
            trained_ddnn,
            0.8,
            policy=batching,
            capacity=capacity,
            admission=admission,
            service_models=[self.SERVICE],
        )
        offered = multiplier * self.SERVICE.capacity_rps(batching.max_batch_size)
        report = server.open_loop(
            process if process is not None else PoissonProcess(offered, seed=seed),
            tiny_test.images,
            targets=tiny_test.labels,
            num_requests=num_requests,
        )
        report = server.report([r for r in report.responses if not r.shed])
        return server, report

    def test_an_arrival_during_service_keeps_its_instant(self, trained_ddnn, tiny_test):
        """Regression: the old load generator advanced the clock through a
        whole batch's service before it offered the next arrival, so a
        request arriving while the worker was busy was stamped at the
        batch's completion and its wait went uncounted."""
        trace = [0.0, 0.001]

        class Replay(ArrivalProcess):
            def times(self):
                return iter(trace)

        server, report = self._run(
            trained_ddnn,
            tiny_test,
            process=Replay(),
            num_requests=2,
            batching=BatchingPolicy(max_batch_size=1, max_wait_s=0.0),
        )
        first, second = report.responses
        busy = self.SERVICE.batch_time_s(1)
        assert (first.submit_time, first.completion_time) == (0.0, busy)
        # Offered at its own instant, queued behind the busy worker, and
        # answered one batch time after the worker frees up.
        assert second.submit_time == 0.001
        assert second.completion_time == 2 * busy
        assert second.latency_s == pytest.approx(2 * busy - 0.001)

    def test_underload_serves_everything(self, trained_ddnn, tiny_test):
        server, report = self._run(trained_ddnn, tiny_test, multiplier=0.5, num_requests=80)
        stats = server.admission_stats
        assert stats.offered == 80
        assert report.served == 80
        assert stats.rejected == stats.dropped == stats.shed == 0
        assert report.p95_latency_s > 0.0
        assert report.p50_latency_s <= report.p95_latency_s <= report.p99_latency_s

    def test_deterministic_replay(self, trained_ddnn, tiny_test):
        _, first = self._run(trained_ddnn, tiny_test, num_requests=60)
        _, second = self._run(trained_ddnn, tiny_test, num_requests=60)
        assert first.p95_latency_s == second.p95_latency_s
        assert [r.latency_s for r in first.responses] == [r.latency_s for r in second.responses]

    def test_unbounded_overload_tail_grows_with_run_length(self, trained_ddnn, tiny_test):
        _, short = self._run(trained_ddnn, tiny_test, num_requests=60)
        _, long = self._run(trained_ddnn, tiny_test, num_requests=240)
        assert long.p95_latency_s > 1.5 * short.p95_latency_s

    @pytest.mark.parametrize("admission_name", ["reject", "drop-oldest", "shed-local"])
    def test_bounded_overload_tail_pinned(self, trained_ddnn, tiny_test, admission_name):
        from repro.experiments.overload_study import queue_latency_bound_s

        capacity = 16
        server, report = self._run(
            trained_ddnn,
            tiny_test,
            capacity=capacity,
            admission=admission_policy(admission_name),
            num_requests=240,
        )
        stats = server.admission_stats
        bound = queue_latency_bound_s(capacity, self.BATCHING, self.SERVICE)
        assert report.max_latency_s <= bound
        overflow = stats.rejected + stats.dropped + stats.shed
        assert overflow > 0
        assert stats.offered == 240
        if admission_name == "reject":
            assert report.served + stats.rejected == stats.offered
        if admission_name == "drop-oldest":
            assert report.served + stats.dropped == stats.offered
        if admission_name == "shed-local":
            assert report.served + stats.shed == stats.offered

    def test_shed_answers_are_immediate_and_apart(self, trained_ddnn, tiny_test):
        server, report = self._run(
            trained_ddnn,
            tiny_test,
            capacity=8,
            admission=ShedToLocalExit(),
            multiplier=4.0,
            num_requests=120,
        )
        stats = server.admission_stats
        shed = [r for r in server.responses if r.shed]
        assert stats.shed == len(shed) > 0
        assert len({r.request_id for r in shed}) == stats.shed
        assert all(r.exit_index == 0 and r.latency_s == 0.0 for r in shed)
        # Shed answers are reported apart from the served ones.
        assert not any(r.shed for r in report.responses)
        assert report.served == stats.accepted - stats.dropped

    def test_trace_replay_drives_exact_arrival_times(self, trained_ddnn, tiny_test):
        trace = [0.0, 0.001, 0.002, 0.2, 0.4]

        class Replay(ArrivalProcess):  # a finite process ends the run by itself
            def times(self):
                return iter(trace)

        server, report = self._run(
            trained_ddnn,
            tiny_test,
            process=Replay(),
            num_requests=10,
        )
        assert server.admission_stats.offered == 5
        assert report.served == 5
        assert [r.submit_time for r in sorted(report.responses, key=lambda r: r.request_id)] == trace
