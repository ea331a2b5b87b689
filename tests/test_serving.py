"""Tests for the one-tier server and the shared batching trigger."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.compile.cache import compiled_plan_for
from repro.core import ExitOracle
from repro.hierarchy import HierarchyRuntime, partition_ddnn
from repro.hierarchy.sections import CascadeTierSection
from repro.serving import (
    BatchingPolicy,
    DDNNServer,
    DistributedServingFabric,
    DropOldest,
    ServiceModel,
    ShedToLocalExit,
    TierServer,
    admission_policy,
)


def _by_id(responses):
    return sorted(responses, key=lambda response: response.request_id)


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
    """A lone request is due at exactly arrival + max_wait, the instant the
    wait timer armed at its arrival fires: the server answers it one batch
    time later, and a tier's due() flips at that instant, not an ulp before."""
    policy = BatchingPolicy(max_batch_size=8, max_wait_s=max_wait_s)
    service = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)
    views = tiny_test.images[0]
    for arrival in ARRIVALS:
        arrival = float(arrival)
        release = arrival + max_wait_s
        server = DDNNServer(trained_ddnn, 0.8, policy=policy, service_models=[service])
        server.submit(views, at=arrival)
        [response] = server.run_until_idle()
        assert response.submit_time == arrival
        assert response.completion_time == release + service.batch_time_s(1), (arrival, max_wait_s)

        tier = TierServer(section=None, pool=None, policy=policy)
        tier.queue.append(SimpleNamespace(queued_at=arrival))
        assert not tier.due(math.nextafter(release, -math.inf), draining=False)
        assert tier.due(release, draining=False)


class TestDDNNServer:
    def test_dynamic_batching_matches_the_oracle(self, trained_ddnn, tiny_test):
        """Batches of eight, and the whole-cascade tier applies every exit of
        one compiled forward in order: answers, exits and entropies equal the
        oracle's route."""
        server = DDNNServer(
            trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=8, max_wait_s=0.0)
        )
        responses = server.serve_dataset(tiny_test)
        assert [r.batch_size for r in responses[:8]] == [8] * 8
        routed = ExitOracle.capture(trained_ddnn, tiny_test).route(0.8)
        np.testing.assert_array_equal([r.prediction for r in responses], routed.predictions)
        np.testing.assert_array_equal([r.exit_index for r in responses], routed.exit_indices)
        np.testing.assert_array_equal([r.entropy for r in responses], routed.entropies)
        assert all(r.bytes_transferred == 0.0 and r.path_latency_s == 0.0 for r in responses)

    def test_a_threaded_single_tier_answers_like_the_server(self, trained_ddnn, tiny_test):
        """The server is the simulated one-tier fabric; the same tier on the
        thread backend (a wall clock) predicts and exits the same."""
        policy = BatchingPolicy(max_batch_size=8, max_wait_s=0.0)
        simulated = DDNNServer(trained_ddnn, 0.8, policy=policy).serve_dataset(tiny_test)
        with DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            batching=policy,
            sections=[CascadeTierSection(trained_ddnn)],
            backend="thread",
        ) as fabric:
            threaded = fabric.serve_dataset(tiny_test)
        assert [(r.prediction, r.exit_index) for r in threaded] == [
            (r.prediction, r.exit_index) for r in simulated
        ]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_views_are_rejected_at_submit(self, trained_ddnn, tiny_test, value):
        server = DDNNServer(trained_ddnn, 0.8)
        server.submit(tiny_test.images[0])
        views = tiny_test.images[1].copy()
        views[0, 0, 0, 0] = value
        with pytest.raises(ValueError, match="finite"):
            server.submit(views)
        assert server.offered == 1
        assert len(server.run_until_idle()) == 1
        assert server.admission_stats.offered == 1

    def test_a_weights_change_rebinds_the_servers_worker(self, untrained_ddnn, tiny_test):
        """Plans follow the weights: the server built before a hand edit
        answers after it as one built after it, on a new bundle."""
        model = untrained_ddnn
        server = DDNNServer(model, 0.8)
        server.serve_dataset(tiny_test)
        served = compiled_plan_for(model)
        worker_plans = server.tiers[0].workers[0].plans
        assert worker_plans is server.deployment._bundle()
        for parameter in model.cloud.parameters():
            parameter.data *= 0.5
        model._weights_changed()
        answers = [(r.prediction, r.entropy) for r in server.serve_dataset(tiny_test)]
        assert compiled_plan_for(model) is not served
        assert server.tiers[0].workers[0].plans is not worker_plans
        fresh = DDNNServer(model, 0.8).serve_dataset(tiny_test)
        assert answers == [(r.prediction, r.entropy) for r in fresh]

    def test_wait_trigger_then_drain(self, trained_ddnn, tiny_test):
        """A lone request waits for max_wait; a draining run releases at once."""
        server = DDNNServer(
            trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=4, max_wait_s=60.0)
        )
        server.submit(tiny_test.images[0])
        [first] = server.run_until_idle()
        assert (first.submit_time, first.completion_time) == (0.0, 60.0)
        server.submit(tiny_test.images[1])
        second = server.run_until_idle(drain=True)[-1]
        assert (second.submit_time, second.completion_time) == (60.0, 60.0)

    def test_batches_drain_fifo_across_clients(self, trained_ddnn, tiny_test):
        """One FIFO across clients: a batch takes the oldest requests whoever
        sent them, never more than max_batch_size of them."""
        server = DDNNServer(
            trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=3, max_wait_s=1.0)
        )
        clients = ["a", "b", "c", "a", "a", "b", "c"]
        ids = [
            server.submit(tiny_test.images[index], client_id=client)
            for index, client in enumerate(clients)
        ]
        assert ids == list(range(len(clients)))
        responses = server.run_until_idle()
        assert [r.request_id for r in responses] == ids
        assert [r.client_id for r in responses] == clients
        assert [r.batch_size for r in responses] == [3, 3, 3, 3, 3, 3, 1]
        assert [r.completion_time for r in responses] == [0.0] * 6 + [1.0]

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
        responses = server.run_until_idle()
        assert [r.request_id for r in responses] == list(range(10))
        assert [r.client_id for r in responses] == clients

    @pytest.mark.parametrize("backlog", [1, 4, 9])
    def test_a_drained_backlog_forms_batches_of_at_most_max_batch_size(
        self, trained_ddnn, tiny_test, backlog
    ):
        server = DDNNServer(
            trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=4, max_wait_s=60.0)
        )
        server.submit_many(list(tiny_test.images[:backlog]))
        responses = server.run_until_idle(drain=True)
        assert [r.request_id for r in responses] == list(range(backlog))
        sizes = [4] * (backlog // 4) + ([backlog % 4] if backlog % 4 else [])
        assert [r.batch_size for r in responses] == [size for size in sizes for _ in range(size)]

    def test_responses_name_their_exit(self, trained_ddnn, tiny_test):
        """Each response carries the exit that answered it, so filtering by
        exit_name partitions the answers as the offline cascade routes them."""
        server = DDNNServer(trained_ddnn, 0.8)
        responses = server.serve_dataset(tiny_test)
        offline = HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8).run(tiny_test)
        assert [r.exit_name for r in responses] == offline.exit_names_per_sample
        assert all(
            r.exit_name == trained_ddnn.exit_names[r.exit_index] for r in responses
        )
        by_exit = {
            name: [r for r in responses if r.exit_name == name]
            for name in trained_ddnn.exit_names
        }
        assert sum(len(group) for group in by_exit.values()) == len(responses)

    def test_responses_carry_clock_stamps(self, trained_ddnn, tiny_test):
        server = DDNNServer(
            trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=8, max_wait_s=0.5)
        )
        server.submit(tiny_test.images[0], at=0.0)
        server.submit(tiny_test.images[1], at=0.25)
        responses = server.run_until_idle()
        assert [r.submit_time for r in responses] == [0.0, 0.25]
        assert [r.completion_time for r in responses] == [0.5, 0.5]
        assert all(r.batch_size == 2 for r in responses)

    def test_shed_answer_is_stamped_and_never_queued(self, trained_ddnn, tiny_test):
        server = DDNNServer(
            trained_ddnn,
            0.8,
            policy=BatchingPolicy(max_wait_s=10.0),
            capacity=1,
            admission=ShedToLocalExit(),
        )
        server.submit(tiny_test.images[0], at=0.0)
        server.submit(tiny_test.images[1], target=int(tiny_test.labels[1]), at=3.0)
        shed, served = server.run_until_idle()
        assert shed.shed and shed.request_id == 1
        assert shed.submit_time == shed.completion_time == 3.0
        assert shed.target == int(tiny_test.labels[1])
        assert shed.exit_index == 0 and shed.batch_size == 1
        assert not served.shed and served.request_id == 0 and served.completion_time == 10.0

    def test_drop_oldest_evicts_the_head_unanswered(self, trained_ddnn, tiny_test):
        server = DDNNServer(trained_ddnn, 0.8, capacity=2, admission=DropOldest())
        server.submit_many(list(tiny_test.images[:4]))
        assert [r.request_id for r in server.run_until_idle()] == [2, 3]
        assert server.admission_stats.dropped == 2

    @pytest.mark.parametrize("surface", ["server", "fabric", "thread", "runtime"])
    def test_compile_false_names_the_eager_reference(self, trained_ddnn, surface):
        """Serving runs only on compiled plans; the eager forward is the
        oracle's reference, and the rejection says where it lives."""
        build = {
            "server": lambda: DDNNServer(trained_ddnn, 0.8, compile=False),
            "fabric": lambda: DistributedServingFabric(
                partition_ddnn(trained_ddnn), 0.8, compile=False
            ),
            "thread": lambda: DistributedServingFabric(
                partition_ddnn(trained_ddnn), 0.8, compile=False, backend="thread"
            ),
            "runtime": lambda: HierarchyRuntime(
                partition_ddnn(trained_ddnn), 0.8, compile=False
            ),
        }[surface]
        with pytest.raises(ValueError, match=r"ExitOracle\.capture\(compile=False\)"):
            build()

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
        # The backlog was served along the way and stays in the history; the
        # dataset's answers are handed back, not kept.
        assert not server.tiers[0].queue
        assert [r.client_id for r in server.responses] == ["backlog"] * 3
        # ... and the filtered responses match a clean-server run exactly.
        clean = DDNNServer(trained_ddnn, 0.8).serve_dataset(tiny_test)
        assert [r.prediction for r in responses] == [r.prediction for r in clean]
        assert [r.exit_index for r in responses] == [r.exit_index for r in clean]

    def test_repeated_serve_dataset_keeps_no_history(self, trained_ddnn, tiny_test):
        """A long-lived server replaying datasets holds no answers between
        calls, so neither its memory nor a call's cost grows with the
        calls before it."""
        server = DDNNServer(trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=8))
        first = server.serve_dataset(tiny_test)
        for _ in range(4):
            again = server.serve_dataset(tiny_test)
            assert server.responses == []
        assert server.answered == 5 * len(tiny_test)
        assert [r.prediction for r in again] == [r.prediction for r in first]

    @pytest.mark.parametrize("policy_name", ["reject", "drop-oldest"])
    def test_serve_dataset_refuses_a_short_answer(self, trained_ddnn, tiny_test, policy_name):
        """Regression: a bounded queue that turns samples away must not hand
        back a short, label-misaligned list as if it were one answer per
        sample."""
        server = DDNNServer(
            trained_ddnn, 0.8, capacity=8, admission=admission_policy(policy_name)
        )
        with pytest.raises(ValueError, match=f"answered 8 of {len(tiny_test)} samples"):
            server.serve_dataset(tiny_test)

    def test_serve_dataset_on_a_shedding_queue_answers_every_sample(self, trained_ddnn, tiny_test):
        """Shedding answers every arrival, so the replay keeps its contract:
        one answer per sample, in sample order; the queued ones carry the
        unbounded server's full-cascade answer."""
        server = DDNNServer(trained_ddnn, 0.8, capacity=8, admission=ShedToLocalExit())
        responses = server.serve_dataset(tiny_test)
        assert [r.target for r in responses] == [int(label) for label in tiny_test.labels]
        assert sum(r.shed for r in responses) == server.admission_stats.shed == len(tiny_test) - 8
        clean = DDNNServer(trained_ddnn, 0.8).serve_dataset(tiny_test)
        served = [(index, r) for index, r in enumerate(responses) if not r.shed]
        assert len(served) == 8
        assert [r.prediction for _, r in served] == [clean[index].prediction for index, _ in served]

    def test_shed_submissions_answer_from_local_exit(self, trained_ddnn, tiny_test):
        """Under shed-local a full queue answers the arrival at once from the
        local exit, and the queued requests get the whole cascade."""
        server = DDNNServer(trained_ddnn, 0.8, capacity=2, admission=ShedToLocalExit())
        ids = server.submit_many(list(tiny_test.images[:4]), client_id="cam")
        assert ids == [0, 1, 2, 3]
        responses = server.run_until_idle()
        shed = [r for r in responses if r.shed]
        served = [r for r in responses if not r.shed]
        assert [r.request_id for r in shed] == [2, 3]
        assert all(r.exit_index == 0 and r.batch_size == 1 for r in shed)
        assert [r.request_id for r in served] == [0, 1]
        assert server.admission_stats.shed == 2
