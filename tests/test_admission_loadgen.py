"""Tests for overload safety: admission control and load generation."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.serving import (
    AdmissionOutcome,
    ArrivalProcess,
    BatchingPolicy,
    DDNNServer,
    DropOldest,
    LoadGenerator,
    PoissonProcess,
    QueueFullError,
    RejectNewest,
    RequestQueue,
    ServiceModel,
    ShedToLocalExit,
    SimulatedClock,
    admission_policy,
)


def _views(num_devices: int = 2, size: int = 4) -> np.ndarray:
    return np.zeros((num_devices, 3, size, size))


class TestAdmissionPolicies:
    def _full_queue(self, admission, capacity=2):
        queue = RequestQueue(clock=SimulatedClock(), capacity=capacity, admission=admission)
        for index in range(capacity):
            queue.submit(_views(), client_id=f"seed-{index}")
        return queue

    def test_unbounded_queue_never_consults_admission(self):
        class Exploding(RejectNewest):
            def decide(self, client_id):  # pragma: no cover - must not run
                raise AssertionError("admission consulted on an unbounded queue")

        queue = RequestQueue(clock=SimulatedClock(), admission=Exploding())
        for _ in range(100):
            queue.submit(_views())
        assert len(queue) == 100

    def test_reject_newest_refuses_and_counts(self):
        queue = self._full_queue(RejectNewest())
        result = queue.offer(_views(), client_id="late")
        assert result.outcome is AdmissionOutcome.REJECTED
        assert result.request is None
        assert len(queue) == 2
        assert queue.admission_stats.rejected == 1
        assert queue.session("late").rejected == 1
        assert queue.admission_stats.offered == 3

    def test_submit_raises_on_rejection(self):
        queue = self._full_queue(RejectNewest())
        with pytest.raises(QueueFullError):
            queue.submit(_views(), client_id="late")

    def test_drop_oldest_evicts_head_and_accepts(self):
        queue = self._full_queue(DropOldest())
        head = queue.peek_oldest()
        result = queue.offer(_views(), client_id="late")
        assert result.outcome is AdmissionOutcome.ACCEPTED
        assert result.evicted is head
        assert len(queue) == 2
        assert queue.admission_stats.dropped == 1
        assert queue.session(head.client_id).dropped == 1
        # The evicted request no longer counts as in flight for its client.
        assert queue.session(head.client_id).in_flight == 0
        # The new request really is enqueued (tail position).
        remaining_ids = [request.request_id for request in queue.pop_batch(10)]
        assert result.request.request_id == remaining_ids[-1]

    def test_shed_returns_stamped_request_without_enqueueing(self):
        queue = self._full_queue(ShedToLocalExit())
        result = queue.offer(_views(), client_id="late")
        assert result.outcome is AdmissionOutcome.SHED
        assert result.request is not None
        assert result.request.client_id == "late"
        assert len(queue) == 2
        assert queue.admission_stats.shed == 1
        assert queue.session("late").shed == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RequestQueue(clock=SimulatedClock(), capacity=0)

    def test_submit_on_shed_policy_recounts_as_rejection(self):
        """Regression: a bare queue cannot deliver the local-exit answer a
        SHED outcome promises, so submit() must not leave shed counters
        claiming an answer that never existed."""
        queue = self._full_queue(ShedToLocalExit())
        with pytest.raises(QueueFullError):
            queue.submit(_views(), client_id="late")
        assert queue.admission_stats.shed == 0
        assert queue.admission_stats.rejected == 1
        assert queue.session("late").shed == 0
        assert queue.session("late").rejected == 1

    # (accepted, rejected, dropped, shed) after 8 offers to a full queue of 3.
    OVERFLOW = {
        "reject": (3, 8, 0, 0),
        "drop-oldest": (11, 0, 8, 0),
        "shed-local": (3, 0, 0, 8),
    }

    @pytest.mark.parametrize("name", sorted(OVERFLOW))
    def test_overflow_accounting_balances_per_client(self, name):
        queue = self._full_queue(admission_policy(name), capacity=3)
        for index in range(8):
            queue.offer(_views(), client_id=f"late-{index % 2}")
        stats = queue.admission_stats
        assert (stats.accepted, stats.rejected, stats.dropped, stats.shed) == self.OVERFLOW[name]
        assert stats.offered == 11
        assert len(queue) == 3 == stats.accepted - stats.dropped
        # Per-client counters partition the queue-wide ones.
        sessions = [queue.session(f"seed-{index}") for index in range(3)]
        sessions += [queue.session(f"late-{index}") for index in range(2)]
        for counter in ("rejected", "dropped", "shed"):
            assert sum(getattr(s, counter) for s in sessions) == getattr(stats, counter)
        assert sum(s.in_flight for s in sessions) == len(queue)
        # Under drop-oldest the survivors are the newest arrivals.
        if name == "drop-oldest":
            assert [r.client_id for r in queue.pop_batch(3)] == ["late-1", "late-0", "late-1"]

    @pytest.mark.parametrize("name", sorted(OVERFLOW))
    def test_server_offer_answers_or_accounts_every_sample(self, trained_ddnn, tiny_test, name):
        server = DDNNServer(trained_ddnn, 0.8, capacity=3, admission=admission_policy(name))
        outcomes = [server.offer(tiny_test.images[index], client_id="cam") for index in range(8)]
        server.run_until_drained()
        session = server.queue.session("cam")
        stats = server.queue.admission_stats
        shed = [r for r in session.responses if r.shed]
        # A shed sample is answered at once from the local exit; everything
        # else that stayed in the queue gets the full cascade.
        assert len(shed) == stats.shed == sum(o.outcome is AdmissionOutcome.SHED for o in outcomes)
        assert all(r.exit_index == 0 for r in shed)
        assert session.completed == stats.accepted - stats.dropped == 3
        assert len(session.responses) == session.completed + stats.shed
        assert session.completed + stats.rejected + stats.dropped + stats.shed == 8
        assert session.in_flight == 0

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


class TestSimulatedClock:
    def test_advance_and_advance_to(self):
        clock = SimulatedClock()
        assert clock() == 0.0
        clock.advance(1.5)
        assert clock() == 1.5
        clock.advance_to(1.0)  # never backwards
        assert clock() == 1.5
        clock.advance_to(2.0)
        assert clock() == 2.0
        with pytest.raises(ValueError):
            clock.advance(-0.1)


class TestLoadGenerator:
    SERVICE = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)
    BATCHING = BatchingPolicy(max_batch_size=8, max_wait_s=0.005)

    def _run(self, trained_ddnn, tiny_test, *, capacity=None, admission=None,
             multiplier=2.0, num_requests=160, seed=5, process=None):
        clock = SimulatedClock()
        server = DDNNServer(
            trained_ddnn,
            0.8,
            policy=self.BATCHING,
            clock=clock,
            capacity=capacity,
            admission=admission,
        )
        offered = multiplier * self.SERVICE.capacity_rps(self.BATCHING.max_batch_size)
        generator = LoadGenerator(
            server,
            process if process is not None else PoissonProcess(offered, seed=seed),
            tiny_test.images,
            targets=tiny_test.labels,
            service_model=self.SERVICE,
        )
        return server, generator.run(num_requests)

    def test_requires_simulated_clock(self, trained_ddnn, tiny_test):
        server = DDNNServer(trained_ddnn, 0.8)
        with pytest.raises(TypeError):
            LoadGenerator(server, PoissonProcess(10.0), tiny_test.images)

    def test_underload_serves_everything(self, trained_ddnn, tiny_test):
        _, report = self._run(trained_ddnn, tiny_test, multiplier=0.5, num_requests=80)
        assert report.offered == 80
        assert report.served == 80
        assert report.rejected == report.dropped == report.shed == 0
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
        _, report = self._run(
            trained_ddnn,
            tiny_test,
            capacity=capacity,
            admission=admission_policy(admission_name),
            num_requests=240,
        )
        bound = queue_latency_bound_s(capacity, self.BATCHING, self.SERVICE)
        assert report.max_latency_s <= bound
        overflow = report.rejected + report.dropped + report.shed
        assert overflow > 0
        assert report.offered == 240
        if admission_name == "reject":
            assert report.served + report.rejected == report.offered
        if admission_name == "drop-oldest":
            assert report.served + report.dropped == report.offered
        if admission_name == "shed-local":
            assert report.served + report.shed == report.offered
            assert len(report.shed_responses) == report.shed
            assert all(r.shed and r.exit_index == 0 for r in report.shed_responses)

    def test_shed_responses_delivered_to_sessions(self, trained_ddnn, tiny_test):
        server, report = self._run(
            trained_ddnn,
            tiny_test,
            capacity=8,
            admission=ShedToLocalExit(),
            multiplier=4.0,
            num_requests=120,
        )
        session = server.queue.session("client-0")
        assert session.shed == report.shed > 0
        # Shed answers appear in responses but never inflate `completed`.
        assert session.completed == report.served

    def test_trace_replay_drives_exact_arrival_times(self, trained_ddnn, tiny_test):
        trace = [0.0, 0.001, 0.002, 0.2, 0.4]

        class Replay(ArrivalProcess):  # a finite process ends the run by itself
            def times(self):
                return iter(trace)

        _, report = self._run(
            trained_ddnn,
            tiny_test,
            process=Replay(),
            num_requests=10,
        )
        assert report.offered == 5
        assert report.served == 5
        assert [r.enqueue_time for r in sorted(report.responses, key=lambda r: r.request_id)] == trace
