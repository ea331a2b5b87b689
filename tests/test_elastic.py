"""Tests for the elastic tier plane: live re-partitioning, autoscaling,
load balancing and the diurnal load generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DDNNConfig,
    DDNNTopology,
    DDNNTrainer,
    TrainingConfig,
    build_ddnn,
)
from repro.hierarchy import AutoscalePolicy, LinkSpec, PartitionPlan
from repro.serving import (
    Autoscaler,
    BatchingPolicy,
    DistributedServingFabric,
    DiurnalProcess,
    LoadBalancer,
    RateTracker,
    ServiceModel,
    admission_policy,
)
from repro.serving.invariants import check_conservation, check_exactly_once, routing

THRESHOLD = 0.8
SERVICE = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.004)
BATCHING = BatchingPolicy(max_batch_size=4, max_wait_s=0.004)
ONE_WORKER_RPS = SERVICE.capacity_rps(4)


def _fabric(plan, **kwargs):
    kwargs.setdefault("batching", BATCHING)
    kwargs.setdefault("service_models", [SERVICE] * plan.num_tiers)
    return DistributedServingFabric.from_plan(plan, THRESHOLD, **kwargs)


def _paced_submit(fabric, views, targets=None, overload=3.0):
    gap = 1.0 / (overload * ONE_WORKER_RPS)
    for index, sample in enumerate(views):
        target = None if targets is None else targets[index]
        fabric.submit(sample, target=target, at=index * gap)
    return gap


class TestApplyPlan:
    def test_idle_apply_is_synchronous_and_equivalent_to_fresh(
        self, trained_ddnn, tiny_test
    ):
        plan_a = PartitionPlan(trained_ddnn)
        plan_b = plan_a.with_changes(local_exit=False)
        live = _fabric(plan_a, service_models=None)
        report = live.apply_plan(plan_b)
        assert report is not None and report.total_requeued == 0
        assert live.last_repartition is report
        assert live.sections[0].exit_index is None

        live.submit_many(list(tiny_test.images))
        live.run_until_idle(drain=True)

        fresh = _fabric(plan_b, service_models=None)
        fresh.submit_many(list(tiny_test.images))
        fresh.run_until_idle(drain=True)
        assert routing(live.responses) == routing(fresh.responses)

    def test_midrun_apply_defers_requeues_and_matches_fresh_fabric(
        self, trained_ddnn, tiny_test
    ):
        plan_a = PartitionPlan(trained_ddnn)
        plan_b = plan_a.with_changes(local_exit=False)
        views = list(tiny_test.images)
        live = _fabric(plan_a)
        gap = _paced_submit(live, views)
        switch_at = (len(views) // 2) * gap + gap / 3.0
        outcome = {}
        live.events.schedule(
            switch_at,
            lambda now: outcome.update(report=live.apply_plan(plan_b, now=now)),
        )
        live.run_until_idle(drain=True)

        handoff = live.last_repartition
        assert handoff is not None and handoff.time >= switch_at
        assert handoff.total_requeued > 0, "boundary moved without a backlog"
        # A busy worker at the switch defers the handoff to the drain barrier.
        assert outcome["report"] is None

        assert not check_exactly_once(len(views), live.responses)

        fresh = _fabric(plan_b)
        _paced_submit(fresh, views)
        fresh.run_until_idle(drain=True)
        after = routing(live.responses, after=handoff.time)
        assert after, "no requests completed under the new plan"
        after_ids = {row[0] for row in after}
        reference = [row for row in routing(fresh.responses) if row[0] in after_ids]
        assert after == reference

    def test_midrun_edge_exit_toggle_three_tier(self, tiny_train, tiny_test):
        config = DDNNConfig(
            num_devices=4,
            device_filters=2,
            cloud_filters=4,
            edge_filters=3,
            cloud_hidden_units=8,
            topology=DDNNTopology.from_name("devices_edge_cloud"),
            seed=5,
        )
        model = build_ddnn(config)
        # A couple of epochs keeps the exit logits away from argmax ties.
        DDNNTrainer(model, TrainingConfig(epochs=2, batch_size=32, seed=0)).fit(
            tiny_train
        )
        views = list(tiny_test.images[:12])
        plan_a = PartitionPlan(model)
        plan_b = plan_a.with_changes(edge_exit=False)

        live = _fabric(plan_a)
        gap = _paced_submit(live, views)
        live.events.schedule(
            6 * gap + gap / 3.0, lambda now: live.apply_plan(plan_b, now=now)
        )
        live.run_until_idle(drain=True)
        handoff = live.last_repartition
        assert handoff is not None
        assert live.tier_names == ["devices", "edge", "cloud"]
        assert [s.exit_index for s in live.sections] == [0, None, 2]

        fresh = _fabric(plan_b)
        _paced_submit(fresh, views)
        fresh.run_until_idle(drain=True)
        after = routing(live.responses, after=handoff.time)
        after_ids = {row[0] for row in after}
        reference = [row for row in routing(fresh.responses) if row[0] in after_ids]
        assert after == reference

    def test_apply_plan_rejects_other_model(self, trained_ddnn, untrained_ddnn):
        live = _fabric(PartitionPlan(trained_ddnn), service_models=None)
        with pytest.raises(ValueError, match="model"):
            live.apply_plan(PartitionPlan(untrained_ddnn))

    def test_shed_without_first_exit_is_a_loud_error(self, trained_ddnn, tiny_test):
        plan = PartitionPlan(trained_ddnn, local_exit=False)
        live = _fabric(
            plan, capacity=2, admission=admission_policy("shed-local")
        )
        _paced_submit(live, list(tiny_test.images), overload=6.0)
        with pytest.raises(RuntimeError, match="disables the device tier's exit"):
            live.run_until_idle(drain=True)


class TestDrainAccounting:
    """Satellite: repartition mid-burst with bounded queues + admission."""

    def _run_midburst(self, model, views, plan_b, admission_name, capacity=4):
        plan_a = PartitionPlan(model)
        live = _fabric(
            plan_a, capacity=capacity, admission=admission_policy(admission_name)
        )
        gap = _paced_submit(live, views, overload=4.0)
        live.events.schedule(
            (len(views) // 2) * gap + gap / 3.0,
            lambda now: live.apply_plan(plan_b, now=now),
        )
        live.run_until_idle(drain=True)
        assert live.last_repartition is not None
        return live

    def test_shed_local_accounting_is_exact(self, trained_ddnn, tiny_test):
        # Keep the device exit on both sides of the handoff (shedding needs
        # it); the boundary move here is a worker + uplink retune.
        plan_b = PartitionPlan(
            trained_ddnn,
            workers_per_tier=2,
            uplink=LinkSpec(bandwidth_bytes_per_s=5e6, latency_s=0.01),
        )
        live = self._run_midburst(
            trained_ddnn, list(tiny_test.images), plan_b, "shed-local"
        )
        stats = live.admission_stats
        shed = [r for r in live.responses if r.shed]
        served = [r for r in live.responses if not r.shed]
        assert stats.shed > 0, "overload never triggered shedding"
        assert not check_conservation(live.offered, stats.as_dict())
        assert len(shed) == stats.shed
        assert len(served) == stats.accepted - stats.dropped
        assert not check_exactly_once(len(live.responses), live.responses)
        # The handoff actually took effect.
        assert len(live.tiers[0].pool) == 2
        assert live.last_repartition.workers_per_tier == {"devices": 2, "cloud": 2}

    @pytest.mark.parametrize("admission_name", ["reject", "drop-oldest"])
    def test_exit_toggle_accounting_is_exact(
        self, trained_ddnn, tiny_test, admission_name
    ):
        plan_b = PartitionPlan(trained_ddnn, local_exit=False)
        live = self._run_midburst(
            trained_ddnn, list(tiny_test.images), plan_b, admission_name
        )
        stats = live.admission_stats
        assert stats.shed == 0
        assert stats.rejected + stats.dropped > 0, "overload never turned work away"
        assert live.offered == stats.accepted + stats.rejected
        assert len(live.responses) == stats.accepted - stats.dropped
        assert not check_exactly_once(len(live.responses), live.responses)
        # Everything queued at the handoff was served exactly once.
        requeued = {
            rid
            for tier_ids in live.last_repartition.requeued_ids.values()
            for rid in tier_ids
        }
        assert requeued <= {r.request_id for r in live.responses}


class TestAutoscaler:
    def test_scale_up_down_over_a_burst(self, trained_ddnn, tiny_test):
        policy = AutoscalePolicy(
            min_workers=1,
            max_workers=3,
            high_watermark=1,
            low_watermark=0,
            cooldown_s=0.001,
            step=2,
        )
        plan = PartitionPlan(trained_ddnn, workers_per_tier=1, autoscale=policy)
        fabric = _fabric(plan)
        scaler = fabric.autoscaler
        assert scaler is not None
        _paced_submit(fabric, list(tiny_test.images), overload=3.0)
        fabric.run_until_idle(drain=True)

        assert scaler.peak_workers[0] == 3
        device_sizes = [n for _, tier, n in scaler.trajectory if tier == "devices"]
        assert 3 in device_sizes  # scaled up to the budget...
        assert device_sizes[-1] == 1  # ...and released it after the burst
        assert scaler.workers()[0] == 1
        assert len(fabric.responses) == len(tiny_test.images)

    def test_rate_floor_keeps_workers_provisioned(self, trained_ddnn, tiny_test):
        policy = AutoscalePolicy(
            min_workers=1,
            max_workers=3,
            high_watermark=100,  # never triggers on depth
            low_watermark=0,
            cooldown_s=0.001,
            window_s=0.01,
            target_rps_per_worker=ONE_WORKER_RPS / 2.0,
        )
        plan = PartitionPlan(trained_ddnn, workers_per_tier=1, autoscale=policy)
        fabric = _fabric(plan)
        _paced_submit(fabric, list(tiny_test.images), overload=3.0)
        fabric.run_until_idle(drain=True)
        # 3x one worker's rate against a 0.5x-per-worker target floors at max.
        assert fabric.autoscaler.peak_workers[0] == 3

    def test_reconfigure_validates_length(self, trained_ddnn):
        fabric = _fabric(PartitionPlan(trained_ddnn), service_models=None)
        scaler = Autoscaler(fabric, AutoscalePolicy())
        with pytest.raises(ValueError, match="entries"):
            scaler.reconfigure([AutoscalePolicy()])

    def test_rate_tracker_window_pruning(self):
        tracker = RateTracker(window_s=1.0)
        tracker.observe(0.0, count=2)
        tracker.observe(0.5, count=2)
        assert tracker.rate(0.5) == pytest.approx(4.0)
        assert tracker.rate(1.25) == pytest.approx(2.0)  # t=0 fell out
        assert tracker.rate(5.0) == 0.0
        with pytest.raises(ValueError, match="window_s"):
            RateTracker(0.0)


class TestLoadBalancer:
    def test_round_robin_rotates(self, trained_ddnn, tiny_test):
        plan = PartitionPlan(trained_ddnn, replicas=2)
        with LoadBalancer.from_plan(plan, THRESHOLD) as balancer:
            picks = []
            for sample in tiny_test.images[:4]:
                index, _ = balancer.submit(sample)
                picks.append(index)
            assert picks == [0, 1, 0, 1]
            assert balancer.assignments == [2, 2]
            responses = balancer.run_until_idle(drain=True)
            assert len(responses) == 4

    def test_least_loaded_prefers_emptier_replica(self, trained_ddnn, tiny_test):
        plan = PartitionPlan(trained_ddnn, replicas=2)
        with LoadBalancer.from_plan(plan, THRESHOLD, strategy="least-loaded") as lb:
            lb.submit_many(list(tiny_test.images[:3]))  # replica 0 takes 3
            index, _ = lb.submit(tiny_test.images[3])
            assert index == 1
            assert lb.assignments == [3, 1]

    def test_balanced_replicas_agree_with_a_single_fabric(
        self, trained_ddnn, tiny_test
    ):
        plan = PartitionPlan(trained_ddnn, replicas=2)
        with LoadBalancer.from_plan(plan, THRESHOLD) as balancer:
            for sample in tiny_test.images:
                balancer.submit(sample)
            responses = balancer.run_until_idle(drain=True)
        single = _fabric(PartitionPlan(trained_ddnn), service_models=None)
        single.submit_many(list(tiny_test.images))
        single.run_until_idle(drain=True)
        # Replicas renumber requests, so compare the decision multiset.
        balanced = sorted((r.prediction, r.exit_index) for r in responses)
        reference = sorted((r.prediction, r.exit_index) for r in single.responses)
        assert balanced == reference

    def test_validation(self, trained_ddnn):
        with pytest.raises(ValueError, match="at least one replica"):
            LoadBalancer([])
        fabric = _fabric(PartitionPlan(trained_ddnn), service_models=None)
        with pytest.raises(ValueError, match="unknown strategy"):
            LoadBalancer([fabric], strategy="random")


class TestDiurnalProcess:
    def test_rate_endpoints(self):
        process = DiurnalProcess(10.0, 30.0, period_s=60.0)
        assert process.rate_at(0.0) == pytest.approx(10.0)  # starts at trough
        assert process.rate_at(30.0) == pytest.approx(30.0)  # crest at half period
        assert process.rate_at(60.0) == pytest.approx(10.0)

    def test_times_deterministic_and_monotone(self):
        def take(seed):
            times = DiurnalProcess(10.0, 30.0, period_s=60.0, seed=seed).times()
            return [next(times) for _ in range(50)]

        a, b, c = take(3), take(3), take(4)
        assert a == b
        assert a != c
        assert len(a) == 50
        assert all(later >= earlier for earlier, later in zip(a, a[1:]))

    def test_thinned_arrivals_follow_the_cycle(self):
        """Over whole periods the arrival rate averages to the midpoint, and
        the crest half of each period draws more than the trough half."""
        process = DiurnalProcess(20.0, 60.0, period_s=10.0, seed=1)
        times = process.times()
        arrivals = []
        while not arrivals or arrivals[-1] < 200.0:
            arrivals.append(next(times))
        arrivals = np.array(arrivals[:-1])
        assert len(arrivals) / 200.0 == pytest.approx(40.0, rel=0.05)
        phase = np.mod(arrivals, 10.0)
        crest = ((phase >= 2.5) & (phase < 7.5)).sum()
        assert crest > 1.5 * (len(arrivals) - crest)

    def test_validation(self):
        with pytest.raises(ValueError, match="base_rate_rps"):
            DiurnalProcess(0.0, 10.0)
        with pytest.raises(ValueError, match="peak_rate_rps"):
            DiurnalProcess(10.0, 5.0)
        with pytest.raises(ValueError, match="period_s"):
            DiurnalProcess(10.0, 20.0, period_s=0.0)
