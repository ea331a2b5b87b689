"""Tests for the end-to-end SLO plane: deadline propagation across tiers,
budget-clipped retry ladders, earliest-deadline-first batching, hedged
offloads to sibling replicas, and the same machinery on the thread
backend under a real wall clock."""

from __future__ import annotations

import math

import pytest

from repro.experiments.scenarios import retry_ladder
from repro.hierarchy import (
    ChaosSchedule,
    LinkLoss,
    LinkOutage,
    PartitionPlan,
    WorkerCrash,
)
from repro.serving import (
    BatchingPolicy,
    Deadline,
    DistributedServingFabric,
    HedgePolicy,
    LoadBalancer,
    PoissonProcess,
    RetryPolicy,
    ServiceModel,
)
from repro.serving.invariants import (
    accounting,
    check_exactly_once,
    check_no_expired_compute,
)

THRESHOLD = 0.5  # low threshold => most requests offload, exercising the uplink
SERVICE = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.004)
BATCHING = BatchingPolicy(max_batch_size=4, max_wait_s=0.004)
POLICY = RetryPolicy(
    deadline_s=0.1,
    max_retries=2,
    backoff_base_s=0.02,
    backoff_multiplier=2.0,
    backoff_max_s=0.08,
    jitter_s=0.005,
    seed=0,
)


def _fabric(model, **kwargs):
    plan = PartitionPlan(model)
    kwargs.setdefault("batching", BATCHING)
    kwargs.setdefault("service_models", [SERVICE] * plan.num_tiers)
    return DistributedServingFabric.from_plan(plan, THRESHOLD, **kwargs)


def _transfer_estimate(model) -> float:
    """Worst single-offload transfer time of the tiny model's uplink."""
    return _fabric(model).sections[0].transfer_estimate_s()


def _submit_trace(fabric, tiny_test, num_requests=16, rate=40.0, seed=0):
    arrivals = PoissonProcess(rate_rps=rate, seed=seed)
    for count, when in zip(range(num_requests), arrivals):
        index = count % len(tiny_test.images)
        fabric.submit(
            tiny_test.images[index], target=int(tiny_test.labels[index]), at=when
        )


# --------------------------------------------------------------------------- #
class TestDeadlinePrimitives:
    def test_deadline_from_slo_and_expiry(self):
        deadline = Deadline.from_slo(0.5, now=2.0)
        assert deadline.slo_s == 0.5
        assert deadline.expires_at == pytest.approx(2.5)
        assert not deadline.expired(2.4999)
        assert deadline.expired(2.5)  # at the boundary counts as expired

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            Deadline(slo_s=0.0, expires_at=1.0)
        with pytest.raises(ValueError):
            Deadline.from_slo(-1.0, now=0.0)

    def test_hedge_policy_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(trigger_fraction=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(trigger_fraction=1.0)
        with pytest.raises(ValueError):
            HedgePolicy(max_hedges=0)

    def test_plan_validation(self, untrained_ddnn):
        with pytest.raises(ValueError):
            PartitionPlan(untrained_ddnn, slo_s=0.0)
        with pytest.raises(ValueError, match="replicas"):
            PartitionPlan(untrained_ddnn, hedge=HedgePolicy())
        plan = PartitionPlan(untrained_ddnn, replicas=2, slo_s=1.0, hedge=HedgePolicy())
        assert plan.slo_s == 1.0


# --------------------------------------------------------------------------- #
class TestDeadlinePropagation:
    def test_blackout_retires_queued_requests_at_their_deadline(
        self, trained_ddnn, tiny_test
    ):
        """Requests queued at a dark remote tier are answered from the
        deepest exit already cleared the instant their budget runs out —
        never dropped, never left to wait out the blackout."""
        fabric = _fabric(
            trained_ddnn,
            offload=POLICY,
            slo_s=0.3,
        ).attach_chaos(
            ChaosSchedule(crashes=[WorkerCrash(tier="cloud", start=0.0, end=30.0)], seed=0)
        )
        _submit_trace(fabric, tiny_test)
        fabric.run_until_idle(drain=True)
        responses = fabric.responses
        assert not check_exactly_once(16, responses)
        stats = fabric.resilience_stats
        retired = [r for r in responses if r.deadline_exceeded]
        assert retired, "the blackout never pushed a queued request past its budget"
        assert fabric.reasons["deadline"] == len(retired)
        assert not check_no_expired_compute(stats.as_dict())
        first_exit = fabric.sections[0].exit_name
        for r in retired:
            assert r.degraded and r.exit_name == first_exit
            # Retirement fires the expiry timer: answered at the budget, not after.
            assert r.latency_s == pytest.approx(0.3)

    def test_retry_ladder_clips_to_the_remaining_budget(self, trained_ddnn, tiny_test):
        """A re-send that cannot land before the group's deadline is never
        sent: the ladder fails over early and counts the clip."""
        estimate = _transfer_estimate(trained_ddnn)
        # Budget covers the first attempt's deadline but not a backoff plus
        # another transfer, so every timeout clips instead of retrying.
        fabric = _fabric(
            trained_ddnn,
            offload=POLICY,
            slo_s=POLICY.deadline_s + estimate + 0.01,
        ).attach_chaos(ChaosSchedule(outages=[LinkOutage(destination="cloud")], seed=0))
        _submit_trace(fabric, tiny_test)
        fabric.run_until_idle(drain=True)
        responses = fabric.responses
        assert not check_exactly_once(16, responses)
        stats = fabric.resilience_stats
        assert stats.clipped_retries > 0
        assert stats.retries == 0, "a clipped ladder must not also re-send"
        degraded = [r for r in responses if r.degraded]
        assert degraded, "the outage never forced a failover"
        first_exit = fabric.sections[0].exit_name
        assert all(r.exit_name == first_exit for r in degraded)

    def test_budget_shorter_than_one_transfer_never_offloads(
        self, trained_ddnn, tiny_test
    ):
        """An SLO that cannot cover even one uplink transfer answers locally
        before any bytes hit the wire."""
        estimate = _transfer_estimate(trained_ddnn)
        fabric = _fabric(trained_ddnn, offload=POLICY, slo_s=0.5 * estimate)
        _submit_trace(fabric, tiny_test, rate=20.0)
        fabric.run_until_idle(drain=True)
        assert len(fabric.responses) == 16
        stats = fabric.resilience_stats
        assert stats.attempts == 0, "an offload was sent into a hopeless budget"
        assert fabric.report().offload_fraction == 0.0
        assert fabric.deployment.fabric.lost_messages == 0
        assert fabric.reasons["deadline"] > 0  # the unconfident tail retired locally
        # Control: the same trace under a generous budget does offload.
        control = _fabric(trained_ddnn, offload=POLICY, slo_s=10.0)
        _submit_trace(control, tiny_test, rate=20.0)
        control.run_until_idle(drain=True)
        assert control.resilience_stats.attempts > 0

    def test_edf_forms_batches_earliest_deadline_first(self, trained_ddnn, tiny_test):
        """With ``edf=True`` a queued request with the tighter budget jumps
        ahead; without it the queue stays FIFO."""

        def completions(edf: bool):
            plan = PartitionPlan(trained_ddnn)  # one worker per tier
            fabric = DistributedServingFabric.from_plan(
                plan,
                1.0,  # everything exits at the device tier: pure queue order
                batching=BatchingPolicy(max_batch_size=1, max_wait_s=0.001),
                service_models=[SERVICE] * plan.num_tiers,
                edf=edf,
            )
            # A filler occupies the single worker while two requests with
            # opposite budget order pile up behind it.
            fabric.submit(tiny_test.images[0], at=0.0)
            loose = fabric.submit(tiny_test.images[1], at=0.001, slo_s=10.0)
            tight = fabric.submit(tiny_test.images[2], at=0.002, slo_s=0.5)
            fabric.run_until_idle(drain=True)
            when = {r.request_id: r.completion_time for r in fabric.responses}
            assert len(when) == 3
            return when[tight], when[loose]

        tight_first, loose_second = completions(edf=True)
        assert tight_first < loose_second
        tight_fifo, loose_fifo = completions(edf=False)
        assert loose_fifo < tight_fifo


# --------------------------------------------------------------------------- #
class TestHedgedOffloads:
    def _balancer(self, model, slo_s, trigger, chaos=None):
        plan = PartitionPlan(
            model,
            replicas=2,
            slo_s=slo_s,
            hedge=HedgePolicy(trigger_fraction=trigger, max_hedges=1),
        )
        balancer = LoadBalancer.from_plan(
            plan,
            THRESHOLD,
            strategy="round-robin",
            batching=BATCHING,
            service_models=[SERVICE] * plan.num_tiers,
            offload=POLICY,
        )
        if chaos is not None:
            balancer.replicas[0].attach_chaos(chaos)
        return balancer

    def _drive(self, balancer, tiny_test, num_requests=12, rate=30.0, seed=1):
        # All traffic enters replica 0 (where chaos strikes, if any);
        # replica 1 only ever sees hedge copies.
        origin = balancer.replicas[0]
        _submit_trace(origin, tiny_test, num_requests=num_requests, rate=rate, seed=seed)
        balancer.run_until_idle(drain=True)
        return balancer.report(duration_s=origin.clock.now)

    def test_hedge_wins_when_the_origin_uplink_is_partitioned(
        self, trained_ddnn, tiny_test
    ):
        balancer = self._balancer(
            trained_ddnn,
            slo_s=1.0,
            trigger=0.1,
            chaos=ChaosSchedule(outages=[LinkOutage(destination="cloud")], seed=0),
        )
        report = self._drive(balancer, tiny_test)
        assert not check_exactly_once(12, report.responses)
        resilience = report.metadata["resilience"]
        assert report.hedge_total > 0
        assert resilience["hedge_wins"] > 0
        assert report.hedge_bytes > 0.0
        winners = [r for r in report.responses if r.hedged]
        assert len(winners) > 0
        # A winning hedge is a full-fidelity remote answer, not a failover.
        cloud_exit = balancer.replicas[1].sections[-1].exit_name
        assert all(not r.degraded and r.exit_name == cloud_exit for r in winners)
        assert report.hedge_win_fraction == pytest.approx(
            resilience["hedge_wins"] / report.hedge_total
        )

    def test_original_delivery_beats_the_slower_hedge(self, trained_ddnn, tiny_test):
        """A hedge fired while the healthy original is in flight loses the
        race: its delivery is cancelled, nothing is answered twice, and the
        losing copy's bytes are still charged."""
        estimate = _transfer_estimate(trained_ddnn)
        # Trigger at ~0.4 of one transfer: the hedge departs mid-flight of
        # the original and, over an identical sibling link, lands after it.
        balancer = self._balancer(trained_ddnn, slo_s=4.0 * estimate, trigger=0.1)
        report = self._drive(balancer, tiny_test)
        assert not check_exactly_once(12, report.responses)
        resilience = report.metadata["resilience"]
        assert report.hedge_total > 0, "the trigger never fired mid-flight"
        assert resilience["hedge_wins"] == 0
        assert report.hedge_win_fraction == 0.0
        assert not any(r.hedged for r in report.responses)
        assert report.reasons["failover"] == report.reasons["deadline"] == 0
        assert report.hedge_bytes > 0.0  # the losing copies are not free

    def test_fault_free_run_sends_no_hedges(self, trained_ddnn, tiny_test):
        """With the trigger past one healthy delivery, a clean run never
        speculates: zero hedges, zero hedge bytes, zero degradation."""
        balancer = self._balancer(trained_ddnn, slo_s=1.0, trigger=0.9)
        report = self._drive(balancer, tiny_test)
        assert report.served == 12
        assert report.hedge_total == 0
        assert report.hedge_bytes == 0.0
        assert report.reasons["failover"] == report.reasons["deadline"] == 0
        assert report.metadata["resilience"]["deadline_expired"] == 0

    def test_hedged_chaos_replays_byte_identical(self, trained_ddnn, tiny_test):
        """Two fresh seeded runs agree on every per-request tuple including
        hedge decisions and deadline flags."""

        def run():
            balancer = self._balancer(
                trained_ddnn,
                slo_s=1.0,
                trigger=0.1,
                chaos=ChaosSchedule(
                    outages=[LinkOutage(destination="cloud", start=0.1, end=0.4)],
                    seed=4,
                ),
            )
            report = self._drive(balancer, tiny_test)
            return accounting(report.responses), report.metadata["resilience"]

        first_acc, first_stats = run()
        second_acc, second_stats = run()
        assert first_acc == second_acc
        assert first_stats == second_stats
        assert first_stats["hedges"] > 0  # the replayed decisions include hedges

    def test_enable_hedging_rejects_unwired_replicas(self, trained_ddnn):
        single = LoadBalancer.from_plan(PartitionPlan(trained_ddnn), THRESHOLD)
        with pytest.raises(ValueError, match="replicas"):
            single.enable_hedging(HedgePolicy())
        plan = PartitionPlan(trained_ddnn, replicas=2)
        unshared = LoadBalancer.from_plan(plan, THRESHOLD)
        with pytest.raises(ValueError):
            unshared.enable_hedging(HedgePolicy())  # separate loops / no policy


# --------------------------------------------------------------------------- #
class TestBalancerCapacityTieBreak:
    def test_least_loaded_prefers_the_stack_with_more_online_workers(
        self, trained_ddnn
    ):
        plan = PartitionPlan(trained_ddnn, replicas=2, workers_per_tier=2)
        balancer = LoadBalancer.from_plan(plan, THRESHOLD, strategy="least-loaded")
        balancer.replicas[0].attach_chaos(
            ChaosSchedule(
                crashes=[WorkerCrash(tier="cloud", start=0.0, end=1.0, workers=1)]
            )
        )
        # Probe mid-window: replica 0 stays healthy but one cloud worker is
        # dark, so the depth tie breaks toward the fuller stack.
        probes = {}
        balancer.replicas[0].events.schedule(
            0.5,
            lambda now: probes.update(
                healthy=balancer.healthy_indices(), pick=balancer.pick()
            ),
        )
        balancer.replicas[0].run_until_idle(drain=True)
        assert probes["healthy"] == [0, 1]
        assert probes["pick"] == 1
        # After the restart boundary capacity is equal again and the tie
        # falls back to the lowest index.
        assert balancer.replicas[0].clock.now >= 1.0
        assert balancer.pick() == 0

    def test_a_hedge_goes_to_the_sibling_with_more_online_workers(self, trained_ddnn):
        """Hedge copies rank siblings as least-loaded picks do: depth ties
        break toward more online workers, then the lowest index."""
        plan = PartitionPlan(trained_ddnn, replicas=3, workers_per_tier=2)
        balancer = LoadBalancer.from_plan(plan, THRESHOLD, strategy="least-loaded")
        first, second, third = balancer.replicas
        first.attach_chaos(
            ChaosSchedule(
                crashes=[WorkerCrash(tier="cloud", start=0.0, end=1.0, workers=1)]
            )
        )
        probes = {}
        first.events.schedule(
            0.5,
            lambda now: probes.update(
                from_third=balancer._hedge_sibling(third, 0),
                from_second=balancer._hedge_sibling(second, 0),
                from_first=balancer._hedge_sibling(first, 0),
            ),
        )
        first.run_until_idle(drain=True)
        assert probes == {"from_third": second, "from_second": third, "from_first": second}
        assert balancer._hedge_sibling(third, 0) is first
        assert balancer._hedge_sibling(first, 0) is second


# --------------------------------------------------------------------------- #
class TestReportMetadataUniformity:
    def test_fabric_report_carries_the_observability_block(
        self, trained_ddnn, tiny_test
    ):
        fabric = _fabric(trained_ddnn, offload=POLICY, slo_s=1.0)
        _submit_trace(fabric, tiny_test, num_requests=8)
        fabric.run_until_idle(drain=True)
        metadata = fabric.report().metadata
        assert set(metadata) >= {"resilience", "admission", "breakers"}
        assert set(metadata["resilience"]) == set(
            fabric.resilience_stats.as_dict()
        ) | {"failovers", "deadline_expired"}
        for block in metadata["breakers"].values():
            assert set(block) == {"state", "transitions"}

    def test_balancer_report_prefixes_breakers_per_replica(
        self, trained_ddnn, tiny_test
    ):
        plan = PartitionPlan(trained_ddnn, replicas=2)
        balancer = LoadBalancer.from_plan(
            plan,
            THRESHOLD,
            batching=BATCHING,
            service_models=[SERVICE] * plan.num_tiers,
            offload=POLICY,
        )
        for index in range(4):
            balancer.submit(tiny_test.images[index], at=0.01 * index)
        balancer.run_until_idle(drain=True)
        metadata = balancer.report().metadata
        assert all(
            key.startswith(("r0:", "r1:")) for key in metadata["breakers"]
        )
        assert set(metadata["resilience"]) == set(
            balancer.replicas[0].resilience_stats.as_dict()
        ) | {"failovers", "deadline_expired"}


# --------------------------------------------------------------------------- #
class TestWallClockSLO:
    @pytest.mark.parametrize(
        "slo_s, crash, num_requests, lossy",
        [
            (0.15, (0.05, 0.4), 10, False),
            # A lossy uplink before the blackout: offloads time out and
            # retry on real timers, under the studies' transfer-scaled
            # retry ladder.
            (0.25, (0.15, 0.70), 24, True),
        ],
        ids=["blackout", "loss-then-blackout"],
    )
    def test_thread_backend_retires_expired_requests_on_the_wall_clock(
        self, trained_ddnn, tiny_test, slo_s, crash, num_requests, lossy
    ):
        """The same deadline machinery on ``backend="thread"``: a real
        blackout outlasts the budget, so expiry timers must retire queued
        requests in real time.  Bounds are tolerance-based (scheduling
        jitters); exactly-once and flag honesty are exact."""
        if lossy:
            offload = retry_ladder(PartitionPlan(trained_ddnn), 0, max_retries=2)[0]
            losses = [LinkLoss(probability=0.3, destination="cloud", start=0.0, end=crash[0])]
        else:
            offload, losses = POLICY, []
        fabric = _fabric(
            trained_ddnn,
            offload=offload,
            slo_s=slo_s,
            edf=True,
            backend="thread",
        )
        try:
            fabric.attach_chaos(
                ChaosSchedule(
                    crashes=[
                        WorkerCrash(tier="cloud", start=crash[0], end=crash[1])
                    ],
                    losses=losses,
                    seed=0,
                )
            )
            started = fabric.clock.now
            for count in range(num_requests):
                index = count % len(tiny_test.images)
                fabric.submit(
                    tiny_test.images[index],
                    target=int(tiny_test.labels[index]),
                    at=started + 0.01 * count,
                )
            responses = fabric.run_until_idle(drain=True)
            elapsed = fabric.clock.now - started
        finally:
            fabric.close()
        assert not check_exactly_once(num_requests, responses)
        stats = fabric.resilience_stats
        assert not check_no_expired_compute(stats.as_dict())
        assert fabric.reasons["deadline"] > 0, (
            f"a {crash[1] - crash[0]:.2f}s blackout must expire some {slo_s}s budgets"
        )
        # Honest flags on a real clock: any answer at/past the budget is
        # marked, and only those (up to float slivers at the boundary).
        for r in responses:
            late = r.latency_s >= slo_s - 1e-9
            if r.deadline_exceeded != late:
                assert abs(r.latency_s - slo_s) <= 1e-6
        # The restart boundary fires on the wall clock (sleep-until may
        # undershoot by a sliver).
        assert elapsed >= crash[1] - 0.05
        assert max(r.latency_s for r in responses) <= slo_s + (
            crash[1] - crash[0]
        ) + 2.0
