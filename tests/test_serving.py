"""Tests for the single-tier server and the shared batching trigger."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.compile.cache import compiled_plan_for
from repro.hierarchy import HierarchyRuntime, partition_ddnn
from repro.serving import (
    ArrivalProcess,
    BatchingPolicy,
    DDNNServer,
    LoadGenerator,
    ServiceModel,
    SimulatedClock,
    TierServer,
)


class FakeClock:
    """Deterministic, manually-advanced time source."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBatchingPolicy:
    def test_full_batch_is_due_at_once(self):
        policy = BatchingPolicy(max_batch_size=2, max_wait_s=10.0)
        assert not policy.due(1, 0.0, 0.0, draining=False)
        assert policy.due(2, 0.0, 0.0, draining=False)

    def test_partial_batch_waits_for_max_wait(self):
        policy = BatchingPolicy(max_batch_size=8, max_wait_s=0.5)
        assert not policy.due(1, 1.0, 1.4, draining=False)
        assert policy.due(1, 1.0, 1.5, draining=False)

    def test_draining_releases_any_non_empty_queue(self):
        policy = BatchingPolicy(max_batch_size=8, max_wait_s=60.0)
        assert policy.due(1, 0.0, 0.0, draining=True)
        assert not policy.due(0, 0.0, 99.0, draining=True)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_wait_s=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            # NaN never fires the wait trigger nor arms a timer: requests strand.
            ("max_wait_s", float("nan")),
            # inf answers everything at t = inf (NaN percentiles).
            ("max_wait_s", float("inf")),
            ("max_wait_s", float("-inf")),
            ("max_wait_s", "0.002"),
            ("max_wait_s", None),
            ("max_batch_size", 2.5),
            ("max_batch_size", True),
            # Integral-valued but not an int: still a float slice bound.
            ("max_batch_size", 8.0),
            ("max_batch_size", "8"),
            ("max_batch_size", None),
        ],
    )
    def test_policy_rejects_values_that_strand_or_corrupt_a_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            BatchingPolicy(**{field: value})

    @pytest.mark.parametrize(
        "max_batch_size, max_wait_s", [(1, 0.0), (np.int64(8), 0.002), (64, 30.0)]
    )
    def test_policy_keeps_integral_sizes_and_finite_waits(self, max_batch_size, max_wait_s):
        policy = BatchingPolicy(max_batch_size=max_batch_size, max_wait_s=max_wait_s)
        assert policy.max_batch_size == max_batch_size
        assert policy.max_wait_s == max_wait_s



#: Arrival instants x waits on which `now - arrival >= max_wait` (the old
#: server trigger) and `now >= arrival + max_wait` (the timer's) disagree at
#: `now = arrival + max_wait` in 290 of the 796 cases.
ARRIVALS = np.linspace(0.01, 2.0, 199)
WAITS = (0.0005, 0.002, 0.005, 0.05)


@pytest.mark.parametrize("max_wait_s", WAITS)
def test_every_queue_fires_at_exactly_arrival_plus_max_wait(trained_ddnn, tiny_test, max_wait_s):
    """The server's step(), the load generator's release time and a fabric
    tier's due() agree: a lone request is due at exactly arrival + max_wait,
    the instant a wait timer scheduled for it fires."""
    policy = BatchingPolicy(max_batch_size=8, max_wait_s=max_wait_s)
    service = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)
    views = tiny_test.images[0]
    for arrival in ARRIVALS:
        arrival = float(arrival)
        release = arrival + max_wait_s
        clock = SimulatedClock(arrival)
        server = DDNNServer(trained_ddnn, 0.8, policy=policy, clock=clock, compile=True)
        server.submit(views)
        clock.advance_to(math.nextafter(release, -math.inf))
        assert server.step() == []
        clock.advance_to(release)
        assert len(server.step()) == 1, (arrival, max_wait_s)

        class Lone(ArrivalProcess):  # the next arrival comes long after the release
            def times(self, arrival=arrival):
                return iter([arrival, arrival + 1.0])

        server = DDNNServer(trained_ddnn, 0.8, policy=policy, clock=SimulatedClock(), compile=True)
        report = LoadGenerator(server, Lone(), views[None], service_model=service).run(2)
        first = min(report.responses, key=lambda response: response.request_id)
        assert first.completion_time == release + service.batch_time_s(1)

        tier = TierServer(section=None, pool=None, policy=policy)
        tier.queue.append(SimpleNamespace(arrival_time=arrival))
        assert not tier.due(math.nextafter(release, -math.inf), draining=False)
        assert tier.due(release, draining=False)


class TestDDNNServer:
    def test_one_at_a_time_matches_the_fabric(self, trained_ddnn, tiny_test):
        """Request-at-a-time serving is byte-identical to the fabric's
        offline replay on the same model."""
        offline = HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8).run(tiny_test)
        server = DDNNServer(trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=1, max_wait_s=0.0))
        responses = server.serve_dataset(tiny_test)
        predictions = np.array([response.prediction for response in responses])
        exits = np.array([response.exit_index for response in responses])
        entropies = np.array([response.entropy for response in responses])
        np.testing.assert_array_equal(predictions, offline.predictions)
        np.testing.assert_array_equal(exits, offline.exit_indices)
        np.testing.assert_array_equal(entropies, offline.entropies)

    def test_dynamic_batching_matches_the_fabric(self, trained_ddnn, tiny_test):
        offline = HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8).run(tiny_test)
        server = DDNNServer(
            trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=8, max_wait_s=0.0)
        )
        responses = server.serve_dataset(tiny_test)
        predictions = np.array([response.prediction for response in responses])
        np.testing.assert_array_equal(predictions, offline.predictions)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_views_are_rejected_at_submit(self, trained_ddnn, tiny_test, value):
        server = DDNNServer(trained_ddnn, 0.8)
        server.submit(tiny_test.images[0])
        views = tiny_test.images[1].copy()
        views[0, 0, 0, 0] = value
        with pytest.raises(ValueError, match="finite"):
            server.submit(views)
        assert len(server.queue) == 1
        assert server.admission_stats.offered == 1
        assert len(server.run_until_drained()) == 1

    def test_invalidate_compiled_evicts_the_servers_plan(self, trained_ddnn, tiny_test):
        server = DDNNServer(trained_ddnn, 0.8, compile=True)
        server.serve_dataset(tiny_test)
        served = compiled_plan_for(trained_ddnn)
        server.cascade.invalidate_compiled()
        assert compiled_plan_for(trained_ddnn) is not served

    def test_step_respects_policy_then_force_drains(self, trained_ddnn, tiny_test):
        clock = FakeClock()
        server = DDNNServer(
            trained_ddnn,
            0.8,
            policy=BatchingPolicy(max_batch_size=4, max_wait_s=60.0),
            clock=clock,
        )
        server.submit(tiny_test.images[0])
        assert server.step() == []  # neither trigger fired
        clock.advance(61.0)
        assert len(server.step()) == 1  # max_wait trigger
        server.submit(tiny_test.images[1])
        assert len(server.step(force=True)) == 1

    def test_batches_drain_fifo_across_clients(self, trained_ddnn, tiny_test):
        """One FIFO across clients: a batch takes the oldest requests whoever
        sent them, never more than max_batch_size of them."""
        server = DDNNServer(
            trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=3, max_wait_s=0.0)
        )
        clients = ["a", "b", "c", "a", "a", "b", "c"]
        ids = [
            server.submit(tiny_test.images[index], client_id=client)
            for index, client in enumerate(clients)
        ]
        assert ids == list(range(len(clients)))
        batches = []
        while server.queue:
            batches.append(server.step(force=True))
        assert [len(batch) for batch in batches] == [3, 3, 1]
        responses = [response for batch in batches for response in batch]
        assert [r.request_id for r in responses] == ids
        assert [r.client_id for r in responses] == clients
        assert all(r.batch_size == len(batch) for batch in batches for r in batch)
        assert server.step(force=True) == []

    @pytest.mark.parametrize("num_clients", [1, 2, 5])
    def test_interleaved_clients_are_served_in_arrival_order(
        self, trained_ddnn, tiny_test, num_clients
    ):
        server = DDNNServer(
            trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=4, max_wait_s=0.0)
        )
        clients = [f"client-{index % num_clients}" for index in range(10)]
        for index, client in enumerate(clients):
            server.submit(tiny_test.images[index], client_id=client)
        responses = server.run_until_drained()
        assert [r.request_id for r in responses] == list(range(10))
        assert [r.client_id for r in responses] == clients

    @pytest.mark.parametrize("backlog", [1, 4, 9])
    def test_forced_step_takes_at_most_one_batch(self, trained_ddnn, tiny_test, backlog):
        """A forced step drains a backlog smaller than a batch whole and
        never takes more than max_batch_size from a larger one."""
        server = DDNNServer(
            trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=4, max_wait_s=60.0)
        )
        for index in range(backlog):
            server.submit(tiny_test.images[index])
        served = server.step(force=True)
        assert len(served) == min(backlog, 4)
        assert [r.request_id for r in served] == list(range(len(served)))
        assert len(server.queue) == backlog - len(served)

    def test_responses_name_their_exit(self, trained_ddnn, tiny_test):
        """Each response carries the exit that answered it, so filtering by
        exit_name partitions the answers as the offline cascade routes them."""
        server = DDNNServer(trained_ddnn, 0.8)
        responses = server.serve_dataset(tiny_test)
        offline = HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8).run(tiny_test)
        assert [r.exit_name for r in responses] == offline.exit_names_per_sample
        assert all(
            r.exit_name == server.cascade.exit_names[r.exit_index] for r in responses
        )
        by_exit = {
            name: [r for r in responses if r.exit_name == name]
            for name in server.cascade.exit_names
        }
        assert sum(len(group) for group in by_exit.values()) == len(responses)

    def test_responses_carry_clock_stamps(self, trained_ddnn, tiny_test):
        clock = FakeClock()
        server = DDNNServer(
            trained_ddnn,
            0.8,
            policy=BatchingPolicy(max_batch_size=8, max_wait_s=0.5),
            clock=clock,
        )
        server.submit(tiny_test.images[0])
        clock.advance(0.25)
        server.submit(tiny_test.images[1])
        clock.advance(0.25)
        responses = server.step()
        assert [r.submit_time for r in responses] == [0.0, 0.25]
        assert [r.completion_time for r in responses] == [0.5, 0.5]
        assert all(r.batch_size == 2 for r in responses)

    def test_shed_answer_is_stamped_and_never_queued(self, trained_ddnn, tiny_test):
        from repro.serving import AdmissionOutcome, ShedToLocalExit

        clock = FakeClock()
        server = DDNNServer(
            trained_ddnn, 0.8, clock=clock, capacity=1, admission=ShedToLocalExit()
        )
        server.offer(tiny_test.images[0])
        clock.advance(3.0)
        result = server.offer(tiny_test.images[1], target=int(tiny_test.labels[1]))
        assert result.outcome is AdmissionOutcome.SHED
        assert result.request.submit_time == result.response.submit_time == 3.0
        assert result.response.completion_time == 3.0
        assert result.response.target == int(tiny_test.labels[1])
        assert [request.request_id for request in server.queue] == [0]

    def test_drop_oldest_evicts_the_head_unanswered(self, trained_ddnn, tiny_test):
        from repro.serving import DropOldest

        server = DDNNServer(trained_ddnn, 0.8, capacity=2, admission=DropOldest())
        results = [server.offer(tiny_test.images[index]) for index in range(4)]
        assert [r.evicted and r.evicted.request_id for r in results] == [None, None, 0, 1]
        assert [r.request_id for r in server.run_until_drained()] == [2, 3]
        assert server.admission_stats.dropped == 2

    def test_reduced_precision_requires_compile(self, trained_ddnn):
        with pytest.raises(ValueError, match="compile=True"):
            DDNNServer(trained_ddnn, 0.8, precision="float32")

    def test_bad_views_shape_rejected(self, trained_ddnn):
        server = DDNNServer(trained_ddnn, 0.8)
        with pytest.raises(ValueError, match="views"):
            server.submit(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError, match="capacity"):
            DDNNServer(trained_ddnn, 0.8, capacity=0)

    def test_serve_dataset_ignores_preexisting_backlog(self, trained_ddnn, tiny_test):
        """Regression: a backlog must not leak into the dataset response
        list (which is documented to line up with ``dataset.labels``)."""
        server = DDNNServer(trained_ddnn, 0.8)
        for index in range(3):
            server.submit(tiny_test.images[index], client_id="backlog")
        responses = server.serve_dataset(tiny_test, client_id="dataset")
        assert len(responses) == len(tiny_test)
        assert all(response.client_id == "dataset" for response in responses)
        assert [response.target for response in responses] == [
            int(label) for label in tiny_test.labels
        ]
        # The backlog was served along the way.
        assert not server.queue
        # ... and the filtered responses match a clean-server run exactly.
        clean = DDNNServer(trained_ddnn, 0.8).serve_dataset(tiny_test)
        assert [r.prediction for r in responses] == [r.prediction for r in clean]
        assert [r.exit_index for r in responses] == [r.exit_index for r in clean]

    @pytest.mark.parametrize("policy_name", ["reject", "drop-oldest", "shed-local"])
    def test_serve_dataset_on_bounded_queue_serves_every_sample(
        self, trained_ddnn, tiny_test, policy_name
    ):
        """Regression: with capacity < len(dataset), serve_dataset used to
        raise mid-submit (reject/shed) or silently return a short,
        label-misaligned list (drop-oldest)."""
        from repro.serving import admission_policy

        server = DDNNServer(
            trained_ddnn,
            0.8,
            capacity=8,
            admission=admission_policy(policy_name),
        )
        responses = server.serve_dataset(tiny_test)
        assert len(responses) == len(tiny_test)
        assert [r.target for r in responses] == [int(l) for l in tiny_test.labels]
        # Every sample got the full cascade, never a degraded shed answer.
        assert not any(r.shed for r in responses)
        stats = server.admission_stats
        assert stats.rejected == stats.dropped == stats.shed == 0
        # ... and predictions match the unbounded server exactly.
        clean = DDNNServer(trained_ddnn, 0.8).serve_dataset(tiny_test)
        assert [r.prediction for r in responses] == [r.prediction for r in clean]

    def test_shed_offer_answers_from_local_exit(self, trained_ddnn, tiny_test):
        """Under shed-local a full queue answers the arrival at once from the
        local exit; the answer comes back from offer() and the queue is kept."""
        from repro.serving import AdmissionOutcome, ShedToLocalExit

        server = DDNNServer(
            trained_ddnn, 0.8, capacity=2, admission=ShedToLocalExit()
        )
        results = [server.offer(tiny_test.images[index], client_id="cam") for index in range(3)]
        assert [r.outcome for r in results] == [AdmissionOutcome.ACCEPTED] * 2 + [
            AdmissionOutcome.SHED
        ]
        shed_response = results[2].response
        assert shed_response.shed and shed_response.request_id == results[2].request.request_id
        assert shed_response.exit_index == 0 and shed_response.batch_size == 1
        assert [r.response for r in results[:2]] == [None, None]
        assert len(server.queue) == 2
        # submit() still hands out an id for a shed sample; only a rejection raises.
        assert server.submit(tiny_test.images[3], client_id="cam") == 3
        served = server.run_until_drained()
        assert [r.request_id for r in served] == [0, 1]
        assert not any(r.shed for r in served)
        assert server.admission_stats.shed == 2
