"""Tests for the online serving subsystem (queue, batcher, server, stats)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import StagedInferenceEngine
from repro.serving import (
    BatchingPolicy,
    DDNNServer,
    MicroBatcher,
    RequestQueue,
    ServerStats,
)
from repro.serving.queue import InferenceResponse


class FakeClock:
    """Deterministic, manually-advanced time source."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _views(num_devices: int = 2, size: int = 4) -> np.ndarray:
    return np.zeros((num_devices, 3, size, size))


class TestRequestQueue:
    def test_fifo_order_and_ids(self):
        queue = RequestQueue(clock=FakeClock())
        first = queue.submit(_views(), client_id="a")
        second = queue.submit(_views(), client_id="b")
        assert (first.request_id, second.request_id) == (0, 1)
        batch = queue.pop_batch(5)
        assert [request.request_id for request in batch] == [0, 1]
        assert len(queue) == 0

    def test_sessions_track_submissions(self):
        queue = RequestQueue(clock=FakeClock())
        queue.submit(_views(), client_id="a")
        queue.submit(_views(), client_id="a")
        queue.submit(_views(), client_id="b")
        assert queue.session("a").submitted == 2
        assert queue.session("b").submitted == 1
        assert queue.session("a").in_flight == 2

    def test_bad_views_shape_rejected(self):
        queue = RequestQueue(clock=FakeClock())
        with pytest.raises(ValueError):
            queue.submit(np.zeros((3, 4, 4)))

    def test_oldest_wait_tracks_clock(self):
        clock = FakeClock()
        queue = RequestQueue(clock=clock)
        assert queue.oldest_wait_s() == 0.0
        queue.submit(_views())
        clock.advance(0.25)
        assert queue.oldest_wait_s() == pytest.approx(0.25)

    def test_pop_batch_validates_size(self):
        queue = RequestQueue(clock=FakeClock())
        with pytest.raises(ValueError):
            queue.pop_batch(0)

    def test_pop_batch_larger_than_backlog_drains_everything(self):
        queue = RequestQueue(clock=FakeClock())
        for _ in range(3):
            queue.submit(_views())
        assert len(queue.pop_batch(100)) == 3
        assert queue.pop_batch(100) == []
        assert queue.peek_oldest() is None

    def test_oldest_wait_with_explicit_now_and_after_pop(self):
        clock = FakeClock()
        queue = RequestQueue(clock=clock)
        queue.submit(_views())
        clock.advance(1.0)
        queue.submit(_views())
        assert queue.oldest_wait_s(now=1.5) == pytest.approx(1.5)
        queue.pop_batch(1)
        # Head-of-line is now the second request, enqueued at t=1.0.
        assert queue.oldest_wait_s(now=1.5) == pytest.approx(0.5)
        queue.pop_batch(1)
        assert queue.oldest_wait_s(now=99.0) == 0.0

    @pytest.mark.parametrize("batch_size", [1, 2, 5])
    def test_interleaved_clients_pop_in_arrival_order(self, batch_size):
        """One FIFO across clients: a batch takes the oldest requests whoever
        sent them.  A popped request is being served, not answered, so it
        stays in its client's ``in_flight``."""
        queue = RequestQueue(clock=FakeClock())
        clients = ["a", "b", "c", "a", "a", "b", "c", "c", "a"]
        ids = [queue.submit(_views(), client_id=client).request_id for client in clients]
        popped = []
        while len(queue):
            batch = queue.pop_batch(batch_size)
            assert 0 < len(batch) <= batch_size
            popped += batch
            assert len(queue) == len(clients) - len(popped)
            for client in set(clients):
                assert queue.session(client).in_flight == clients.count(client)
        assert [request.request_id for request in popped] == ids
        assert [request.client_id for request in popped] == clients


class TestMicroBatcher:
    def test_full_batch_releases_immediately(self):
        clock = FakeClock()
        queue = RequestQueue(clock=clock)
        batcher = MicroBatcher(queue, BatchingPolicy(max_batch_size=2, max_wait_s=10.0), clock)
        queue.submit(_views())
        assert not batcher.ready()
        queue.submit(_views())
        assert batcher.ready()
        assert len(batcher.next_batch()) == 2

    def test_partial_batch_waits_for_max_wait(self):
        clock = FakeClock()
        queue = RequestQueue(clock=clock)
        batcher = MicroBatcher(queue, BatchingPolicy(max_batch_size=8, max_wait_s=0.5), clock)
        queue.submit(_views())
        assert batcher.next_batch() == []
        clock.advance(0.6)
        batch = batcher.next_batch()
        assert len(batch) == 1
        assert batcher.batches_formed == 1

    def test_force_drains_regardless_of_policy(self):
        clock = FakeClock()
        queue = RequestQueue(clock=clock)
        batcher = MicroBatcher(queue, BatchingPolicy(max_batch_size=8, max_wait_s=60.0), clock)
        queue.submit(_views())
        assert len(batcher.next_batch(force=True)) == 1

    def test_batch_never_exceeds_max_size(self):
        clock = FakeClock()
        queue = RequestQueue(clock=clock)
        batcher = MicroBatcher(queue, BatchingPolicy(max_batch_size=3, max_wait_s=0.0), clock)
        for _ in range(7):
            queue.submit(_views())
        sizes = []
        while len(queue):
            sizes.append(len(batcher.next_batch(force=True)))
        assert sizes == [3, 3, 1]

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


class TestServerStats:
    def _response(self, enqueue, complete, exit_name="local", correct=True):
        return InferenceResponse(
            request_id=0,
            client_id="c",
            prediction=1,
            exit_index=0,
            exit_name=exit_name,
            entropy=0.1,
            target=1 if correct else 0,
            enqueue_time=enqueue,
            completion_time=complete,
        )

    def test_empty_snapshot(self):
        snapshot = ServerStats().snapshot()
        assert snapshot.window_requests == 0
        assert snapshot.throughput_rps == 0.0
        assert snapshot.accuracy is None

    def test_snapshot_aggregates(self):
        stats = ServerStats()
        stats.observe_batch([self._response(0.0, 0.1), self._response(0.0, 0.1)])
        stats.observe_batch([self._response(0.1, 0.3, exit_name="cloud", correct=False)])
        snapshot = stats.snapshot()
        assert snapshot.total_requests == 3
        assert snapshot.total_batches == 2
        assert snapshot.exit_fractions == {"cloud": pytest.approx(1 / 3), "local": pytest.approx(2 / 3)}
        assert snapshot.accuracy == pytest.approx(2 / 3)
        assert snapshot.mean_batch_size == pytest.approx(1.5)
        assert snapshot.throughput_rps > 0

    def test_rolling_window_bounds_memory(self):
        stats = ServerStats(window=4)
        for index in range(10):
            stats.observe_batch([self._response(index * 1.0, index * 1.0 + 0.1)])
        snapshot = stats.snapshot()
        assert snapshot.total_requests == 10
        assert snapshot.window_requests == 4

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ServerStats(window=0)

    def _batch(self, size, complete, enqueue=0.0, **kwargs):
        return [self._response(enqueue, complete, **kwargs) for _ in range(size)]

    def test_throughput_counts_whole_batches_against_elapsed_time(self):
        """Pinned semantics: two 16-deep batches one second apart is 16 rps —
        the old per-response formula reported (32-1)/1 = 31 rps because every
        response in a batch shares one completion stamp."""
        stats = ServerStats()
        stats.observe_batch(self._batch(16, complete=1.0))
        stats.observe_batch(self._batch(16, complete=2.0))
        assert stats.snapshot().throughput_rps == pytest.approx(16.0)

    def test_throughput_needs_two_completion_events(self):
        stats = ServerStats()
        stats.observe_batch(self._batch(32, complete=1.0))
        assert stats.snapshot().throughput_rps == 0.0

    def test_throughput_survives_window_no_larger_than_batch(self):
        """Regression: with window <= batch size, eviction used to leave a
        single completion event, reporting 0.0 rps forever."""
        stats = ServerStats(window=16)
        for index in range(10):
            stats.observe_batch(self._batch(16, complete=1.0 + index))
        assert stats.snapshot().throughput_rps == pytest.approx(16.0)

    def test_throughput_steady_stream_of_single_requests(self):
        stats = ServerStats(window=8)
        for index in range(20):
            stats.observe_batch(self._batch(1, complete=float(index), enqueue=float(index)))
        assert stats.snapshot().throughput_rps == pytest.approx(1.0)

    def test_batch_window_tracks_request_window(self):
        """Pinned semantics: mean_batch_size covers the trailing batches that
        produced the windowed requests — not a separate batch-count window."""
        stats = ServerStats(window=8)
        stats.observe_batch(self._batch(1, complete=0.5))
        for index in range(4):
            stats.observe_batch(self._batch(2, complete=1.0 + index))
        # 9 requests total; the size-1 batch is evicted once the four 2-deep
        # batches cover the 8-request window on their own.
        snapshot = stats.snapshot()
        assert snapshot.window_requests == 8
        assert snapshot.window_batches == 4
        assert snapshot.mean_batch_size == pytest.approx(2.0)

    def test_batch_window_keeps_partially_covered_batch(self):
        stats = ServerStats(window=4)
        stats.observe_batch(self._batch(3, complete=1.0))
        stats.observe_batch(self._batch(3, complete=2.0))
        # Evicting the older batch would leave only 3 < window requests.
        snapshot = stats.snapshot()
        assert snapshot.window_batches == 2
        assert snapshot.mean_batch_size == pytest.approx(3.0)


class TestDDNNServer:
    def test_one_at_a_time_matches_staged_inference(self, trained_ddnn, tiny_test):
        """Satellite acceptance: request-at-a-time serving is byte-identical
        to offline StagedInferenceEngine.run on the same model."""
        offline = StagedInferenceEngine(trained_ddnn, 0.8).run(tiny_test)
        server = DDNNServer(trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=1, max_wait_s=0.0))
        responses = server.serve_dataset(tiny_test)
        predictions = np.array([response.prediction for response in responses])
        exits = np.array([response.exit_index for response in responses])
        entropies = np.array([response.entropy for response in responses])
        np.testing.assert_array_equal(predictions, offline.predictions)
        np.testing.assert_array_equal(exits, offline.exit_indices)
        np.testing.assert_array_equal(entropies, offline.entropies)

    def test_dynamic_batching_matches_staged_inference(self, trained_ddnn, tiny_test):
        offline = StagedInferenceEngine(trained_ddnn, 0.8).run(tiny_test)
        server = DDNNServer(
            trained_ddnn, 0.8, policy=BatchingPolicy(max_batch_size=8, max_wait_s=0.0)
        )
        responses = server.serve_dataset(tiny_test)
        predictions = np.array([response.prediction for response in responses])
        np.testing.assert_array_equal(predictions, offline.predictions)

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

    def test_responses_routed_per_exit(self, trained_ddnn, tiny_test):
        server = DDNNServer(trained_ddnn, 0.8)
        responses = server.serve_dataset(tiny_test)
        by_exit = {name: server.responses_for_exit(name) for name in server.exit_names}
        assert sum(len(bucket) for bucket in by_exit.values()) == len(responses)
        for name, bucket in by_exit.items():
            assert all(response.exit_name == name for response in bucket)
        with pytest.raises(KeyError):
            server.responses_for_exit("nope")

    def test_sessions_receive_their_responses(self, trained_ddnn, tiny_test):
        server = DDNNServer(trained_ddnn, 0.8)
        server.submit(tiny_test.images[0], client_id="a")
        server.submit(tiny_test.images[1], client_id="b")
        server.submit(tiny_test.images[2], client_id="a")
        server.run_until_drained()
        assert server.queue.session("a").completed == 2
        assert server.queue.session("b").completed == 1
        assert all(r.client_id == "a" for r in server.queue.session("a").responses)

    def test_snapshot_reflects_traffic(self, trained_ddnn, tiny_test):
        server = DDNNServer(trained_ddnn, 0.8)
        server.serve_dataset(tiny_test)
        snapshot = server.snapshot()
        assert snapshot.total_requests == len(tiny_test)
        assert sum(snapshot.exit_fractions.values()) == pytest.approx(1.0)
        assert snapshot.accuracy is not None
        assert snapshot.mean_latency_s >= 0.0

    def test_serve_dataset_ignores_preexisting_backlog(self, trained_ddnn, tiny_test):
        """Regression: a backlog from other clients must not leak into the
        dataset response list (which is documented to line up with
        ``dataset.labels``)."""
        server = DDNNServer(trained_ddnn, 0.8)
        for index in range(3):
            server.submit(tiny_test.images[index], client_id="backlog")
        responses = server.serve_dataset(tiny_test, client_id="dataset")
        assert len(responses) == len(tiny_test)
        assert all(response.client_id == "dataset" for response in responses)
        assert [response.target for response in responses] == [
            int(label) for label in tiny_test.labels
        ]
        # The backlog was still served, to its own session.
        assert server.queue.session("backlog").completed == 3
        # ... and the filtered responses match a clean-server run exactly.
        clean = DDNNServer(trained_ddnn, 0.8).serve_dataset(tiny_test)
        assert [r.prediction for r in responses] == [r.prediction for r in clean]
        assert [r.exit_index for r in responses] == [r.exit_index for r in clean]

    def test_retention_bounds_sessions_and_outboxes(self, trained_ddnn, tiny_test):
        """Regression: long-lived servers must not grow memory without bound
        in ClientSession.responses / per-exit outboxes; counters stay exact."""
        server = DDNNServer(trained_ddnn, 0.8, stats_window=64, retention=5)
        repeats = 3
        for _ in range(repeats):
            for index in range(len(tiny_test)):
                server.submit(tiny_test.images[index], client_id="cam")
            server.run_until_drained()
        session = server.queue.session("cam")
        assert session.submitted == session.completed == repeats * len(tiny_test)
        assert len(session.responses) == 5
        total_boxed = sum(
            len(server.responses_for_exit(name)) for name in server.exit_names
        )
        assert total_boxed <= 5 * len(server.exit_names)
        assert server.snapshot().total_requests == repeats * len(tiny_test)

    def test_retention_defaults_to_stats_window(self, trained_ddnn):
        server = DDNNServer(trained_ddnn, 0.8, stats_window=7)
        assert server.retention == 7
        assert server.queue.retention == 7

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
        stats = server.queue.admission_stats
        assert stats.rejected == stats.dropped == stats.shed == 0
        # ... and predictions match the unbounded server exactly.
        clean = DDNNServer(trained_ddnn, 0.8).serve_dataset(tiny_test)
        assert [r.prediction for r in responses] == [r.prediction for r in clean]

    def test_submit_with_shed_policy_answers_from_local_exit(self, trained_ddnn, tiny_test):
        """server.submit() under shed-local must deliver the promised
        local-exit answer instead of raising with a phantom shed count."""
        from repro.serving import ShedToLocalExit

        server = DDNNServer(
            trained_ddnn, 0.8, capacity=2, admission=ShedToLocalExit()
        )
        ids = [
            server.submit(tiny_test.images[index], client_id="cam")
            for index in range(3)
        ]
        session = server.queue.session("cam")
        assert session.shed == 1
        assert len(session.responses) == 1
        shed_response = session.responses[0]
        assert shed_response.shed and shed_response.request_id == ids[2]
        assert shed_response.exit_index == 0
        server.run_until_drained()
        assert session.completed == 2  # shed answers never count as completed
