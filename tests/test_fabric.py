"""Tests for the distributed serving fabric (event loop, tiers, workers, links)."""

from __future__ import annotations

import gc
import weakref
from collections import deque

import numpy as np
import pytest

from repro.core import ExitOracle
from repro.hierarchy import ChaosSchedule, LinkOutage, LinkSpec, WorkerCrash, partition_ddnn
from repro.hierarchy.partition import DEFAULT_LOCAL_LINK, DEFAULT_UPLINK
from repro.hierarchy.plan import PartitionPlan
from repro.serving import (
    AnswerReason,
    BatchingPolicy,
    CircuitBreaker,
    DDNNServer,
    DistributedServingFabric,
    DropOldest,
    EventLoop,
    FabricRequest,
    HedgePolicy,
    LoadBalancer,
    PoissonProcess,
    RetryPolicy,
    ServiceModel,
    ShedToLocalExit,
    SimulatedClock,
)


def _decisions(responses):
    responses = sorted(responses, key=lambda r: r.request_id)
    return (
        np.array([r.prediction for r in responses]),
        np.array([r.exit_index for r in responses]),
        np.array([r.entropy for r in responses]),
    )


class TestEventLoop:
    def test_fires_in_time_order_with_fifo_ties(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda t: fired.append(("b", t)))
        loop.schedule(1.0, lambda t: fired.append(("a", t)))
        loop.schedule(2.0, lambda t: fired.append(("c", t)))
        loop.run()
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 2.0)]
        assert loop.clock.now == 2.0

    def test_callbacks_may_schedule_more_events(self):
        loop = EventLoop()
        fired = []

        def chain(t):
            fired.append(t)
            if len(fired) < 3:
                loop.schedule(t + 1.0, chain)

        loop.schedule(0.5, chain)
        loop.run()
        assert fired == [0.5, 1.5, 2.5]

    def test_past_events_fire_now_and_never_rewind(self):
        loop = EventLoop(SimulatedClock(start=5.0))
        times = []
        loop.schedule(1.0, times.append)
        loop.run()
        assert times == [5.0]

    def test_max_events_guard(self):
        loop = EventLoop()

        def forever(t):
            loop.schedule(t + 1.0, forever)

        loop.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            loop.run(max_events=10)


class TestFabricEquivalence:
    def test_two_tier_multiworker_matches_eager_baseline(self, trained_ddnn, tiny_test):
        """Acceptance: >=2 tiers, N>=2 workers, link delays on — exit
        decisions byte-identical to the eager reference on the monolithic
        model."""
        baseline = ExitOracle.capture(trained_ddnn, tiny_test.images, compile=False).route(0.8)
        fabric = DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            workers_per_tier=2,
            batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.0),
        )
        assert len(fabric.tiers) >= 2
        predictions, exits, entropies = _decisions(fabric.serve_dataset(tiny_test))
        np.testing.assert_array_equal(predictions, baseline.predictions)
        np.testing.assert_array_equal(exits, baseline.exit_indices)
        np.testing.assert_array_equal(entropies, baseline.entropies)

    def test_worker_count_invariance(self, trained_ddnn, tiny_test):
        """N-worker results equal 1-worker results up to response ordering."""
        results = {}
        for workers in (1, 3):
            fabric = DistributedServingFabric(
                partition_ddnn(trained_ddnn),
                0.8,
                workers_per_tier=workers,
                batching=BatchingPolicy(max_batch_size=4, max_wait_s=0.0),
            )
            results[workers] = _decisions(fabric.serve_dataset(tiny_test))
        for one, many in zip(results[1], results[3]):
            np.testing.assert_array_equal(one, many)

    def test_compiled_per_worker_plans_match_eager(self, trained_ddnn, tiny_test):
        baseline = ExitOracle.capture(trained_ddnn, tiny_test.images, compile=False).route(0.8)
        fabric = DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            workers_per_tier=2,
            batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.0),
        )
        # Simulated workers compute one at a time on the loop's thread: every
        # worker of every tier runs the deployment's one bundle.
        bundles = {id(worker.plans) for tier in fabric.tiers for worker in tier.workers}
        assert len(bundles) == 1 and fabric.tiers[0].workers[0].plans is not None
        predictions, exits, _ = _decisions(fabric.serve_dataset(tiny_test))
        np.testing.assert_array_equal(predictions, baseline.predictions)
        np.testing.assert_array_equal(exits, baseline.exit_indices)


class TestLinkDelayAccounting:
    def test_uplink_latency_appears_in_offloaded_latency_only(self, trained_ddnn, tiny_test):
        """Raising the uplink propagation latency by delta shifts every
        offloaded request's latency by exactly delta and no local one's."""
        delta = 0.25
        runs = {}
        for label, extra in (("base", 0.0), ("slow", delta)):
            uplink = LinkSpec(
                bandwidth_bytes_per_s=DEFAULT_UPLINK.bandwidth_bytes_per_s,
                latency_s=DEFAULT_UPLINK.latency_s + extra,
            )
            fabric = DistributedServingFabric(
                partition_ddnn(trained_ddnn, uplink=uplink),
                0.8,
                batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.0),
            )
            runs[label] = sorted(
                fabric.serve_dataset(tiny_test), key=lambda r: r.request_id
            )
        for base, slow in zip(runs["base"], runs["slow"]):
            assert base.exit_name == slow.exit_name
            if base.exit_name == "cloud":
                assert slow.path_latency_s == pytest.approx(
                    base.path_latency_s + delta
                )
                assert slow.latency_s >= base.latency_s
            else:
                assert slow.path_latency_s == pytest.approx(base.path_latency_s)

    def test_transfer_time_scales_with_bandwidth(self, trained_ddnn, tiny_test):
        runs = {}
        for label, bandwidth_scale in (("fast", 1.0), ("slow", 0.1)):
            uplink = LinkSpec(
                bandwidth_bytes_per_s=DEFAULT_UPLINK.bandwidth_bytes_per_s
                * bandwidth_scale,
                latency_s=DEFAULT_UPLINK.latency_s,
            )
            fabric = DistributedServingFabric(
                partition_ddnn(trained_ddnn, uplink=uplink),
                0.8,
                batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.0),
            )
            responses = fabric.serve_dataset(tiny_test)
            offloaded = [r for r in responses if r.exit_name == "cloud"]
            assert offloaded, "need offloaded samples to observe transfer delay"
            runs[label] = (responses, np.mean([r.path_latency_s for r in offloaded]))
        assert runs["slow"][1] > runs["fast"][1]
        # Bandwidth changes time, never bytes or decisions.
        for fast, slow in zip(*(sorted(r[0], key=lambda x: x.request_id) for r in runs.values())):
            assert fast.prediction == slow.prediction
            assert fast.bytes_transferred == pytest.approx(slow.bytes_transferred)


class TestOpenLoop:
    def test_open_loop_report(self, trained_ddnn, tiny_test):
        fabric = DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.005),
        )
        report = fabric.open_loop(
            PoissonProcess(100.0, seed=1),
            tiny_test.images,
            targets=tiny_test.labels,
            num_requests=60,
        )
        assert report.served == 60
        assert sum(report.exit_fractions.values()) == pytest.approx(1.0)
        assert report.offload_fraction == pytest.approx(
            1.0 - report.exit_fractions.get("local", 0.0)
        )
        assert 0.0 <= report.p50_latency_s <= report.p95_latency_s <= report.max_latency_s
        assert report.accuracy is not None and 0.0 <= report.accuracy <= 1.0

    def test_an_answered_request_keeps_no_input_or_carry(self, trained_ddnn, tiny_test):
        """The answers a fabric keeps are its requests, so answering drops
        their views and staged payloads: no device carry outlives the run."""
        fabric = DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            batching=BatchingPolicy(max_batch_size=4, max_wait_s=0.005),
        )
        devices = fabric.tiers[0].section
        process, carries = devices.process, []

        def tracked(payload, plans):
            result = process(payload, plans)
            carries.append(weakref.ref(result.carry[0]))
            return result

        devices.process = tracked
        report = fabric.open_loop(PoissonProcess(200.0, seed=2), tiny_test.images, num_requests=40)
        assert report.served == 40 and report.offload_fraction > 0.0
        assert all(r.views is None and r.payload is None for r in report.responses)
        gc.collect()
        assert carries and all(carry() is None for carry in carries)

    def test_a_second_answer_raises_before_reading_the_cleared_views(self, trained_ddnn, tiny_test):
        fabric = DistributedServingFabric(partition_ddnn(trained_ddnn), 0.8)
        fabric.submit_many(list(tiny_test.images[:2]))
        for answer in fabric.run_until_idle():
            # With a cleared fallback the early answer would evaluate the
            # (now cleared) views: the exactly-once guard must come first.
            for fallback in (answer.fallback, None):
                answer.fallback = fallback
                with pytest.raises(RuntimeError, match="answered twice"):
                    fabric._answer_early(answer, answer.completion_time, AnswerReason.DEADLINE)

    def test_requests_compare_by_identity(self):
        """Two requests with equal fields are two requests: a queue's
        ``remove`` takes out exactly the one it is given."""
        first, second = (FabricRequest(request_id=0, client_id="c", views=None) for _ in "ab")
        assert first != second and first == first
        queue = deque([first, second])
        queue.remove(second)
        assert list(queue) == [first] and queue[0] is first


_PATH_BATCHING = BatchingPolicy(max_batch_size=4, max_wait_s=0.004)
_PATH_SERVICE = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.004)
_PATH_RETRY = RetryPolicy(deadline_s=0.1, max_retries=1, backoff_base_s=0.02, seed=0)
_CLOUD_DARK = ChaosSchedule(outages=[LinkOutage(destination="cloud")], seed=0)


def _path_fabric(model, plan=None, **kwargs):
    plan = PartitionPlan(model) if plan is None else plan
    kwargs.setdefault("batching", _PATH_BATCHING)
    kwargs.setdefault("service_models", [_PATH_SERVICE] * plan.num_tiers)
    return DistributedServingFabric.from_plan(plan, 0.5, **kwargs)


def _paced(fabric, images, count=16, gap=0.01, slo_s=None):
    for index in range(count):
        fabric.submit(images[index % len(images)], at=index * gap, slo_s=slo_s)


def _answer_by_threshold(model, images):
    fabric = _path_fabric(model)
    _paced(fabric, images)
    fabric.run_until_idle(drain=True)
    return [fabric], fabric.reasons["threshold"] > 0 and any(
        r.exit_index == fabric.sections[-1].exit_index for r in fabric.responses
    )


def _shed_at_admission(model, images):
    fabric = _path_fabric(model, capacity=2, admission=ShedToLocalExit())
    fabric.submit_many(list(images[:10]), slo_s=1.0)
    fabric.run_until_idle(drain=True)
    return [fabric], fabric.reasons["shed"] > 0


def _evict_the_oldest(model, images):
    fabric = _path_fabric(model, capacity=2, admission=DropOldest())
    fabric.submit_many(list(images[:10]), slo_s=1.0)
    fabric.run_until_idle(drain=True)
    return [fabric], fabric.admission_stats.dropped > 0


def _retire_at_the_deadline(model, images):
    fabric = _path_fabric(model, offload=_PATH_RETRY).attach_chaos(
        ChaosSchedule(crashes=[WorkerCrash(tier="cloud", start=0.0, end=30.0)], seed=0)
    )
    _paced(fabric, images, slo_s=0.3)
    fabric.run_until_idle(drain=True)
    return [fabric], fabric.reasons["deadline"] > 0


def _fail_over(model, images):
    fabric = _path_fabric(model, offload=_PATH_RETRY).attach_chaos(_CLOUD_DARK)
    _paced(fabric, images)
    fabric.run_until_idle(drain=True)
    return [fabric], fabric.reasons["failover"] > 0


def _win_by_hedge(model, images):
    plan = PartitionPlan(model, replicas=2, slo_s=1.0, hedge=HedgePolicy(0.1, 1))
    balancer = LoadBalancer.from_plan(
        plan,
        0.5,
        strategy="round-robin",
        batching=_PATH_BATCHING,
        service_models=[_PATH_SERVICE] * plan.num_tiers,
        offload=_PATH_RETRY,
    )
    origin = balancer.replicas[0].attach_chaos(_CLOUD_DARK)
    _paced(origin, images)
    balancer.run_until_idle(drain=True)
    return balancer.replicas, any(r.hedged for r in balancer.responses)


def _hand_off_to_a_new_plan(model, images):
    plan = PartitionPlan(model)
    fabric = _path_fabric(model, plan)
    _paced(fabric, images, count=24, gap=0.002)
    fabric.events.schedule(
        0.025, lambda now: fabric.apply_plan(plan.with_changes(local_exit=False), now=now)
    )
    fabric.run_until_idle(drain=True)
    handoff = fabric.last_repartition
    return [fabric], handoff is not None and handoff.total_requeued > 0


def _serve_on_threads(model, images):
    fabric = DistributedServingFabric(
        partition_ddnn(model), 0.5, batching=_PATH_BATCHING, backend="thread"
    )
    with fabric:
        _paced(fabric, images, gap=0.0)
        fabric.run_until_idle(drain=True)
    return [fabric], fabric.reasons["threshold"] == 16


class TestEveryAnswerPath:
    """Whatever answers a request, the fabric keeps the request itself as
    the answer, once, holding no input, payload, queue slot or timer."""

    PATHS = {
        "threshold": _answer_by_threshold,
        "shed": _shed_at_admission,
        "drop-oldest": _evict_the_oldest,
        "deadline": _retire_at_the_deadline,
        "failover": _fail_over,
        "hedge": _win_by_hedge,
        "repartition": _hand_off_to_a_new_plan,
        "thread": _serve_on_threads,
    }

    @pytest.mark.parametrize("path", list(PATHS))
    def test_the_answer_is_the_request_and_keeps_nothing(self, trained_ddnn, tiny_test, path):
        seen = {}

        def recording(fabric):
            arrive = fabric._arrive

            def recorded(tier_index, requests, now, fresh=False):
                seen.update((id(request), request) for request in requests)
                arrive(tier_index, requests, now, fresh)

            return recorded

        build = DistributedServingFabric.__init__

        def init(fabric, *args, **kwargs):
            build(fabric, *args, **kwargs)
            fabric._arrive = recording(fabric)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DistributedServingFabric, "__init__", init)
            fabrics, took_the_path = self.PATHS[path](trained_ddnn, tiny_test.images)
        assert took_the_path, f"the {path} scenario never answered that way"

        kept = [answer for fabric in fabrics for answer in fabric.responses]
        assert len({id(answer) for answer in kept}) == len(kept)
        assert {id(answer) for answer in kept} <= set(seen)
        for fabric in fabrics:
            assert all(not tier.queue for tier in fabric.tiers)
            assert all(a is b for a, b in zip(fabric.report().responses, fabric.responses))
        dropped = sum(fabric.admission_stats.dropped for fabric in fabrics)
        assert len(seen) == len(kept) + dropped
        for request in seen.values():
            assert request.queued_in is None and request.expiry_handle is None
            if request.answered:
                assert request.views is None and request.payload is None

class TestSubmitValidation:
    """A bad submission is refused whole, before any id, counter or timer
    moves: shape ``(num_devices, C, H, W)`` from the model's config, finite
    views, finite ``at`` and ``slo_s``."""

    @staticmethod
    def _fabric(model, **kwargs):
        return DistributedServingFabric(
            partition_ddnn(model),
            0.8,
            batching=BatchingPolicy(max_batch_size=4, max_wait_s=0.0),
            **kwargs,
        )

    def _refused(self, model, good, call, match, **kwargs):
        fabric = self._fabric(model, **kwargs)
        with pytest.raises(ValueError, match=match):
            call(fabric)
        assert fabric.offered == 0 and fabric.admission_stats.offered == 0
        assert len(fabric.events) == 0
        # The next good submission is the fabric's first, and is answered.
        assert fabric.submit(good) == 0
        assert len(fabric.run_until_idle()) == 1
        assert fabric.offered == fabric.admission_stats.offered == 1

    def test_non_finite_arrival_time(self, trained_ddnn, tiny_test):
        good = tiny_test.images[0]
        for at in (float("nan"), float("inf")):
            self._refused(trained_ddnn, good, lambda f: f.submit_many([good, good], at=at), "at")

    def test_bad_slo_budget(self, trained_ddnn, tiny_test):
        good = tiny_test.images[0]
        for slo in (float("nan"), float("inf"), 0.0):
            self._refused(trained_ddnn, good, lambda f: f.submit(good, slo_s=slo), "slo_s")

    def test_a_bad_view_late_in_the_call_arms_no_timer(self, trained_ddnn, tiny_test):
        good = tiny_test.images[0]
        self._refused(
            trained_ddnn, good, lambda f: f.submit_many([good, good[0]]), "shape", slo_s=0.5
        )

    def test_a_view_with_a_nan_pixel(self, trained_ddnn, tiny_test):
        good = tiny_test.images[0]
        bad = good.copy()
        bad[1, 0, 3, 3] = np.nan
        self._refused(trained_ddnn, good, lambda f: f.submit_many([good, bad]), "finite")

    def test_a_view_with_an_infinite_pixel(self, trained_ddnn, tiny_test):
        good = tiny_test.images[0]
        bad = good.copy()
        bad[0, 2, 0, 0] = -np.inf
        self._refused(trained_ddnn, good, lambda f: f.submit(bad), "finite")

    def test_a_view_missing_devices(self, trained_ddnn, tiny_test):
        good = tiny_test.images[0]
        self._refused(trained_ddnn, good, lambda f: f.submit(good[:-1]), "num_devices")

    def test_a_batched_view(self, trained_ddnn, tiny_test):
        good = tiny_test.images[0]
        self._refused(trained_ddnn, good, lambda f: f.submit(good[None]), "shape")

    def test_a_balancer_refuses_a_bad_call_whole(self, trained_ddnn, tiny_test):
        good = tiny_test.images[0]
        balancer = LoadBalancer([self._fabric(trained_ddnn), self._fabric(trained_ddnn)])
        with pytest.raises(ValueError, match="finite"):
            balancer.submit_many([good, good], at=float("nan"))
        assert balancer.assignments == [0, 0] and balancer.pick() == 0
        assert [replica.offered for replica in balancer.replicas] == [0, 0]
        assert balancer.submit(good) == (0, 0)
        assert balancer.submit(good) == (1, 0)

    def test_the_server_checks_the_device_count_too(self, trained_ddnn, tiny_test):
        server = DDNNServer(trained_ddnn, 0.8)
        with pytest.raises(ValueError, match="num_devices"):
            server.submit(tiny_test.images[0][:-1])
        assert server.offered == 0 and server.run_until_idle() == []
        assert server.admission_stats.offered == 0


class TestIngressAdmission:
    """The device-tier ingress guards its bounded queue with the same three
    policies, and the same accounting, as the single-box queue."""

    # (accepted, rejected, dropped, shed): 12 samples arrive in one event at
    # a device-tier queue of capacity 4.
    OVERFLOW = {
        "reject": (4, 8, 0, 0),
        "drop-oldest": (12, 0, 8, 0),
        "shed-local": (4, 0, 0, 8),
    }

    @pytest.mark.parametrize("name", sorted(OVERFLOW))
    def test_every_arrival_is_answered_or_counted(self, trained_ddnn, tiny_test, name):
        from repro.serving import admission_policy

        baseline = ExitOracle.capture(trained_ddnn, tiny_test.images[:12], compile=False).route(0.8)
        fabric = DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.0),
            capacity=4,
            admission=admission_policy(name),
        )
        ids = fabric.submit_many(list(tiny_test.images[:12]))
        responses = fabric.run_until_idle()
        stats = fabric.admission_stats
        assert (stats.accepted, stats.rejected, stats.dropped, stats.shed) == self.OVERFLOW[name]
        assert stats.offered == 12
        assert len(responses) == stats.accepted - stats.dropped + stats.shed
        sample_of = {request_id: index for index, request_id in enumerate(ids)}
        served = [r for r in responses if not r.shed]
        # The queue keeps its first four arrivals, or under drop-oldest its
        # last four; those get the full cascade, exactly as offline.
        kept = list(range(8, 12)) if name == "drop-oldest" else list(range(4))
        assert sorted(sample_of[r.request_id] for r in served) == kept
        for response in served:
            index = sample_of[response.request_id]
            assert response.prediction == baseline.predictions[index]
            assert response.exit_index == baseline.exit_indices[index]
        # Shed samples are answered at the ingress from the first exit.
        assert all(r.exit_index == 0 for r in responses if r.shed)

    @pytest.mark.parametrize("name", sorted(OVERFLOW))
    def test_server_and_fabric_admit_alike(self, trained_ddnn, tiny_test, name):
        """One admission rule: the same over-capacity arrivals leave the
        one-tier server and the tiered fabric with equal counters, the same
        survivors, and the same answers for the shed and the served."""
        from repro.serving import admission_policy

        views = list(tiny_test.images[:12])
        batching = BatchingPolicy(max_batch_size=16, max_wait_s=1.0)
        hosts = [
            DDNNServer(
                trained_ddnn, 0.8, policy=batching, capacity=4, admission=admission_policy(name)
            ),
            DistributedServingFabric(
                partition_ddnn(trained_ddnn),
                0.8,
                batching=batching,
                capacity=4,
                admission=admission_policy(name),
            ),
        ]
        for host in hosts:
            host.submit_many(views)
        server_answers, fabric_answers = [host.run_until_idle() for host in hosts]
        assert hosts[0].admission_stats == hosts[1].admission_stats

        def answers(responses):
            return sorted((r.request_id, r.prediction, r.exit_index, r.shed) for r in responses)

        assert answers(server_answers) == answers(fabric_answers)

    @pytest.mark.parametrize("max_wait_s", [0.0, 0.002, 0.05])
    def test_partial_batch_is_answered_once_its_wait_expires(
        self, trained_ddnn, tiny_test, max_wait_s
    ):
        """Three requests never fill a batch of eight: the wait trigger alone
        must release them (a NaN wait used to strand all three)."""
        fabric = DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            batching=BatchingPolicy(max_batch_size=8, max_wait_s=max_wait_s),
        )
        for index in range(3):
            fabric.submit(tiny_test.images[index])
        responses = fabric.run_until_idle()
        assert len(responses) == 3
        for response in responses:
            assert np.isfinite(response.completion_time)
            assert response.completion_time >= response.submit_time + max_wait_s


class TestFabricValidation:
    def test_rejects_mismatched_per_tier_lists(self, trained_ddnn):
        with pytest.raises(ValueError):
            DistributedServingFabric(
                partition_ddnn(trained_ddnn), 0.8, workers_per_tier=[1, 2, 3]
            )
        with pytest.raises(ValueError):
            DistributedServingFabric(
                partition_ddnn(trained_ddnn), 0.8, service_models=[None]
            )

    def test_numpy_worker_count_broadcasts(self, trained_ddnn):
        fabric = DistributedServingFabric(
            partition_ddnn(trained_ddnn), 0.8, workers_per_tier=np.int64(2)
        )
        assert [len(tier.workers) for tier in fabric.tiers] == [2] * len(fabric.tiers)
        with pytest.raises(ValueError, match="workers_per_tier"):
            DistributedServingFabric(partition_ddnn(trained_ddnn), 0.8, workers_per_tier=True)

    def test_rejects_bad_views_shape(self, trained_ddnn, tiny_test):
        fabric = DistributedServingFabric(partition_ddnn(trained_ddnn), 0.8)
        with pytest.raises(ValueError):
            fabric.submit(tiny_test.images)  # 5-D, not a single sample
        with pytest.raises(ValueError):
            fabric.open_loop(
                PoissonProcess(10.0), tiny_test.images[0], num_requests=2
            )  # 4-D, not a stream

    def test_mean_bytes_matches_hierarchy_accounting(self, trained_ddnn, tiny_test):
        """The fabric's per-request byte accounting equals the offline
        hierarchy runtime's Eq. 1 accounting (same sections, same messages)."""
        from repro.hierarchy import HierarchyRuntime

        offline = HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8).run(tiny_test)
        fabric = DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.0),
        )
        responses = fabric.serve_dataset(tiny_test)
        np.testing.assert_allclose(
            [r.bytes_transferred for r in responses], offline.bytes_per_sample
        )


class TestFabricLifetime:
    """A dropped fabric frees itself (and its compiled arenas) by reference
    counting alone: nothing it owns may hold it strongly."""

    @staticmethod
    def _freed_without_gc(build, use=lambda target: None) -> bool:
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            target = build()
            use(target)
            watch = [weakref.ref(target)]
            watch += [weakref.ref(replica) for replica in getattr(target, "replicas", [])]
            del target
            return all(ref() is None for ref in watch)
        finally:
            gc.enable()

    @staticmethod
    def _fabric(model, **kwargs):
        return DistributedServingFabric(
            partition_ddnn(model),
            0.8,
            workers_per_tier=2,
            batching=BatchingPolicy(max_batch_size=4, max_wait_s=0.002),
            **kwargs,
        )

    def test_fresh_fabric(self, trained_ddnn):
        assert self._freed_without_gc(lambda: self._fabric(trained_ddnn))

    def test_served_simulated_fabric(self, trained_ddnn, tiny_test):
        assert self._freed_without_gc(
            lambda: self._fabric(trained_ddnn), lambda fabric: fabric.serve_dataset(tiny_test)
        )

    def test_autoscaled_fabric(self, trained_ddnn, tiny_test):
        from repro.hierarchy.plan import AutoscalePolicy

        def serve(fabric):
            fabric.enable_autoscaling(AutoscalePolicy())
            fabric.serve_dataset(tiny_test)

        assert self._freed_without_gc(lambda: self._fabric(trained_ddnn), serve)

    @pytest.mark.parametrize("hedged", [False, True], ids=["plain", "hedged"])
    def test_load_balancer_with_two_replicas(self, trained_ddnn, tiny_test, hedged):
        from repro.hierarchy.plan import PartitionPlan
        from repro.serving import HedgePolicy, LoadBalancer, RetryPolicy

        def build():
            plan = PartitionPlan(
                trained_ddnn,
                replicas=2,
                slo_s=1.0 if hedged else None,
                hedge=HedgePolicy(0.1, 1) if hedged else None,
            )
            return LoadBalancer.from_plan(
                plan,
                0.8,
                batching=BatchingPolicy(max_batch_size=4, max_wait_s=0.002),
                offload=RetryPolicy(deadline_s=0.05, max_retries=1, seed=0) if hedged else None,
            )

        def serve(balancer):
            for index, views in enumerate(tiny_test.images):
                balancer.submit(views, at=0.001 * index)
            assert len(balancer.run_until_idle(drain=True)) == len(tiny_test)

        assert self._freed_without_gc(build, serve)


class TestWorkerStaging:
    def test_batches_form_in_the_workers_buffer(self):
        from repro.serving.workers import WorkerHandle

        worker = WorkerHandle(0)
        rows = [np.full((2, 3), float(index)) for index in range(3)]
        first = worker.stage(rows, capacity=4)
        np.testing.assert_array_equal(first, np.stack(rows))
        second = worker.stage(rows[:2], capacity=4)
        assert np.shares_memory(first, second)  # reused, not re-allocated
        alone = worker.stage(rows[2:], capacity=4)
        assert alone.shape == (1, 2, 3) and np.shares_memory(alone, rows[2])  # a view

    def test_buffer_is_remade_when_it_no_longer_fits(self):
        from repro.serving.workers import WorkerHandle

        worker = WorkerHandle(0)
        small = worker.stage([np.zeros((2, 3))] * 2, capacity=2)
        grown = worker.stage([np.ones((2, 3))] * 5, capacity=2)
        assert grown.shape == (5, 2, 3) and not np.shares_memory(small, grown)
        reshaped = worker.stage([np.ones((4,))] * 2, capacity=2)
        assert reshaped.shape == (2, 4)
        widened = worker.stage([np.ones((4,), dtype=np.float32), np.ones((4,))], 2)
        assert widened.dtype == np.float64  # as np.stack would have promoted
        with pytest.raises(ValueError, match="same shape"):
            worker.stage([np.ones((4,)), np.ones((1,))], capacity=2)


@pytest.mark.parametrize(
    "field, build",
    [
        ("capacity", lambda m: DistributedServingFabric(partition_ddnn(m), 0.8, capacity=True)),
        ("capacity", lambda m: DistributedServingFabric(partition_ddnn(m), 0.8, capacity=2.5)),
        (
            "workers_per_tier",
            lambda m: DistributedServingFabric(partition_ddnn(m), 0.8, workers_per_tier="3"),
        ),
        (
            "workers_per_tier",
            lambda m: DistributedServingFabric(partition_ddnn(m), 0.8, workers_per_tier=[2, "1"]),
        ),
        ("replicas", lambda m: PartitionPlan(m, replicas=True)),
        ("replicas", lambda m: PartitionPlan(m, replicas=2.0)),
        ("max_retries", lambda m: RetryPolicy(max_retries=1.5)),
        ("max_hedges", lambda m: HedgePolicy(max_hedges=True)),
        ("failure_threshold", lambda m: CircuitBreaker(failure_threshold=2.5)),
    ],
    ids=[
        "capacity-bool",
        "capacity-float",
        "workers-str",
        "workers-list-str",
        "replicas-bool",
        "replicas-float",
        "max_retries-float",
        "max_hedges-bool",
        "failure_threshold-float",
    ],
)
def test_counts_must_be_ints(trained_ddnn, field, build):
    """A bool, a float or a string is no count: each is refused by name,
    not truncated, broadcast or taken as 1."""
    with pytest.raises(ValueError, match=field):
        build(trained_ddnn)
    assert RetryPolicy(max_retries=0).max_retries == 0  # no retries stays valid
