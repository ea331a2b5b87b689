"""Tests for the real thread-pool worker backend behind the serving fabric.

Covers the wall clock and realtime event loop, the worker-pool backends'
routing equivalence (thread vs simulated fabric, several worker counts),
the constructor validation around backend/compile/clock choices,
and thread-safety of the model's compiled plans (across weights changes)
and the experiment harness's oracle memo under concurrent hammering.

Equivalence is asserted on predictions and exit indices byte-for-byte;
entropy floats are compared with a tight tolerance instead, because real
arrival timing changes which requests share an upper-tier batch and BLAS
kernels pick shape-dependent summation orders — per-row logits wobble by a
few ULPs across batch compositions without ever moving a decision.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.compile import compile_ddnn
from repro.compile.cache import compiled_plan_for
from repro.core import DDNNTrainer, TrainingConfig, build_ddnn
from repro.experiments import capture_oracle, ci_scale, get_dataset
from repro.hierarchy import partition_ddnn
from repro.serving import (
    BatchingPolicy,
    DistributedServingFabric,
    EventLoop,
    SimulatedClock,
    SimulatedWorkerPool,
    ThreadPoolWorkerPool,
    WallClock,
    make_worker_pool,
)
from repro.serving.invariants import routing


def _entropies(responses):
    return np.array([r.entropy for r in sorted(responses, key=lambda r: r.request_id)])


class TestWallClock:
    def test_now_tracks_real_time(self):
        clock = WallClock()
        first = clock.now
        time.sleep(0.01)
        assert clock.now > first
        assert clock() >= clock.now or clock() > first  # callable alias

    def test_advance_to_is_a_no_op(self):
        clock = WallClock()
        clock.advance_to(clock.now + 1e6)
        assert clock.now < 1e6


class TestRealtimeEventLoop:
    def test_waits_for_due_time_and_fires_in_order(self):
        loop = EventLoop(WallClock())
        fired = []
        start = loop.clock.now
        loop.schedule(start + 0.03, lambda t: fired.append(("b", t)))
        loop.schedule(start + 0.01, lambda t: fired.append(("a", t)))
        loop.run()
        assert [name for name, _ in fired] == ["a", "b"]
        # The loop really waited for the due times instead of warping.
        assert fired[-1][1] - start >= 0.03 - 1e-3

    def test_inflight_keeps_loop_alive_until_completion_posted(self):
        loop = EventLoop(WallClock())
        fired = []
        loop.begin_inflight()

        def worker():
            time.sleep(0.03)
            loop.post(lambda t: fired.append(t))
            loop.end_inflight()

        thread = threading.Thread(target=worker)
        thread.start()
        loop.run()  # must not return before the posted completion fires
        thread.join()
        assert len(fired) == 1

    def test_simulated_loop_locks_only_while_work_is_in_flight(self):
        """A simulated loop pushes and pops its heap without the lock, and
        goes back to it for as long as another thread owes it a completion:
        the firing order — ties in scheduling order, cancelled events
        skipped, trailing daemon events dropped — is the same throughout."""
        loop = EventLoop()
        fired = []

        def worker():
            loop.post(lambda t: fired.append(("posted", t)))
            loop.end_inflight()

        def hand_off(now):
            fired.append(("hand-off", now))
            loop.begin_inflight()
            loop.schedule(2.5, lambda t: fired.append(("while in flight", t)))
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=5.0)
            assert not thread.is_alive()

        loop.schedule(3.0, lambda t: fired.append(("c", t)))
        loop.schedule(1.0, lambda t: fired.append(("a", t)))
        loop.schedule(2.0, hand_off)
        loop.schedule(1.0, lambda t: fired.append(("b", t)))
        loop.schedule(1.5, lambda t: fired.append(("cancelled", t))).cancel()
        loop.schedule(0.5, lambda t: fired.append(("daemon", t)), daemon=True)
        loop.schedule(9.0, lambda t: fired.append(("late daemon", t)), daemon=True)
        assert loop.run() == 7
        assert fired == [
            ("daemon", 0.5),
            ("a", 1.0),
            ("b", 1.0),
            ("hand-off", 2.0),
            ("posted", 2.0),
            ("while in flight", 2.5),
            ("c", 3.0),
        ]

    def test_unmatched_end_inflight_raises(self):
        loop = EventLoop(WallClock())
        with pytest.raises(RuntimeError):
            loop.end_inflight()


class TestWorkerPoolFactory:
    def test_backends(self):
        events = EventLoop()
        pool = make_worker_pool("simulated", events, 2, None, name="dev")
        assert isinstance(pool, SimulatedWorkerPool)
        assert len(pool.workers) == 2
        realtime = EventLoop(WallClock())
        thread_pool = make_worker_pool(
            "thread", realtime, 2, [object(), object()], name="dev"
        )
        try:
            assert isinstance(thread_pool, ThreadPoolWorkerPool)
        finally:
            thread_pool.shutdown()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            make_worker_pool("fork", EventLoop(), 1, None, name="dev")


class TestThreadBackendEquivalence:
    @pytest.fixture(scope="class")
    def reference(self, trained_ddnn, tiny_test):
        """Simulated compiled fabric routing — the deterministic baseline."""
        fabric = DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            workers_per_tier=2,
            batching=BatchingPolicy(max_batch_size=4),
        )
        with fabric:
            responses = fabric.serve_dataset(tiny_test)
        return routing(responses), _entropies(responses)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fabric_thread_backend_matches_simulated(
        self, trained_ddnn, tiny_test, reference, workers
    ):
        fabric = DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            workers_per_tier=workers,
            batching=BatchingPolicy(max_batch_size=4),
            backend="thread",
        )
        with fabric:
            responses = fabric.serve_dataset(tiny_test)
        ref_routing, ref_entropies = reference
        assert routing(responses) == ref_routing
        np.testing.assert_allclose(_entropies(responses), ref_entropies, rtol=0, atol=1e-9)


class TestBackendValidation:
    def test_fabric_thread_rejects_simulated_clock(self, trained_ddnn):
        with pytest.raises(ValueError, match="clock"):
            DistributedServingFabric(
                partition_ddnn(trained_ddnn),
                0.8,
                backend="thread",
                events=EventLoop(SimulatedClock()),
            )

    def test_fabric_unknown_backend(self, trained_ddnn):
        with pytest.raises(ValueError, match="backend"):
            DistributedServingFabric(
                partition_ddnn(trained_ddnn), 0.8, backend="multiprocess"
            )


class TestPlanCacheConcurrency:
    def test_threads_fetching_plans_while_training_replaces_them(
        self, untrained_ddnn, tiny_train, tiny_test
    ):
        """N reader threads fetch and run compiled plans while the trainer
        replaces them after every epoch — no crash, and afterwards the plan
        is one per weights version and routes like a clean compile."""
        model = untrained_ddnn
        model.eval()
        views = np.stack(tiny_test.images[:2])
        errors = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    plan = compiled_plan_for(model)
                    plan(views)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        try:
            trainer = DDNNTrainer(model, TrainingConfig(epochs=1, batch_size=32, seed=0))
            for epoch in range(3):
                trainer.train_epoch(tiny_train, epoch=epoch)
                model.eval()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, f"cache raced: {errors[:1]!r}"

        fresh = compiled_plan_for(model)
        assert compiled_plan_for(model) is fresh  # memoized again
        assert fresh.weights_version == model._weights_version
        routed_fresh = compile_ddnn(model)(views)
        routed_again = compiled_plan_for(model)(views)
        for got, want in zip(routed_again.exit_logits, routed_fresh.exit_logits):
            np.testing.assert_array_equal(got, want)

    def test_concurrent_first_compile_returns_one_plan(self, trained_ddnn):
        """A compile stampede converges on the one plan the model keeps."""
        model = build_ddnn(trained_ddnn.config)
        model.load_state_dict(trained_ddnn.state_dict())
        model.eval()
        plans = [None] * 8
        barrier = threading.Barrier(len(plans))

        def fetch(index):
            barrier.wait()
            plans[index] = compiled_plan_for(model)

        threads = [
            threading.Thread(target=fetch, args=(index,)) for index in range(len(plans))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winner = compiled_plan_for(model)
        assert all(plan is winner for plan in plans)


class TestOracleMemoConcurrency:
    def test_concurrent_capture_oracle_consistent(self):
        scale = ci_scale()
        _, test_set = get_dataset(scale)
        model = build_ddnn(scale.ddnn_config())
        model.eval()
        oracles = [None] * 6
        barrier = threading.Barrier(len(oracles))

        def capture(index):
            barrier.wait()
            oracles[index] = capture_oracle(model, test_set)

        threads = [
            threading.Thread(target=capture, args=(index,))
            for index in range(len(oracles))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(oracle is not None for oracle in oracles)
        # All captures of the same (model, dataset) agree bit-for-bit ...
        for oracle in oracles[1:]:
            np.testing.assert_array_equal(oracle.logits, oracles[0].logits)
            np.testing.assert_array_equal(oracle.predictions, oracles[0].predictions)
        # ... and once the memo is warm, lookups return the cached object.
        warm = capture_oracle(model, test_set)
        assert capture_oracle(model, test_set) is warm
