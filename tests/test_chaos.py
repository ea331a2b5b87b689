"""Tests for the runtime fault plane: chaos schedules, offload deadlines
with retry/backoff, circuit breaking, failover to local exits, and the
accounting that keeps degraded service honest."""

from __future__ import annotations

import math

import pytest

from repro.hierarchy import (
    ChaosSchedule,
    LinkFlap,
    LinkLoss,
    LinkOutage,
    PartitionPlan,
    WorkerCrash,
)
from repro.serving import (
    BatchingPolicy,
    BreakerState,
    CircuitBreaker,
    DistributedServingFabric,
    EventLoop,
    HedgePolicy,
    LoadBalancer,
    PoissonProcess,
    RetryPolicy,
    ServiceModel,
    admission_policy,
    make_worker_pool,
)
from repro.serving.invariants import (
    accounting,
    check_conservation,
    check_exactly_once,
    check_honest_reasons,
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


def _serve(fabric, tiny_test, num_requests=32, rate=30.0, seed=0):
    return fabric.open_loop(
        PoissonProcess(rate_rps=rate, seed=seed),
        tiny_test.images,
        targets=[int(label) for label in tiny_test.labels],
        num_requests=num_requests,
    )


# --------------------------------------------------------------------------- #
# --------------------------------------------------------------------------- #
class TestChaosSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            LinkOutage(start=1.0, end=1.0)
        with pytest.raises(ValueError):
            LinkFlap(period_s=0.1, down_s=0.1)  # down must be < period
        with pytest.raises(ValueError):
            LinkFlap(period_s=0.0, down_s=0.0)
        with pytest.raises(ValueError):
            LinkLoss(probability=1.5)
        with pytest.raises(ValueError):
            WorkerCrash(tier="cloud", start=0.0, end=math.inf)  # must restart
        with pytest.raises(ValueError):
            WorkerCrash(tier="cloud", start=0.0, end=1.0, workers=0)

    def test_outage_window_is_half_open_and_wildcarded(self):
        schedule = ChaosSchedule(outages=[LinkOutage(destination="cloud", start=1.0, end=2.0)])
        assert schedule.link_up("devices", "cloud", 0.999)
        assert not schedule.link_up("devices", "cloud", 1.0)
        assert not schedule.link_up("edge-0", "cloud", 1.999)
        assert schedule.link_up("devices", "cloud", 2.0)  # end excluded
        assert schedule.link_up("devices", "edge-0", 1.5)  # other destination

    def test_flap_phase_alignment(self):
        flap = LinkFlap(period_s=0.4, down_s=0.1, start=1.0, end=2.0)
        schedule = ChaosSchedule(flaps=[flap])
        assert schedule.link_up("a", "b", 0.5)  # before the flap starts
        assert not schedule.link_up("a", "b", 1.05)  # first down phase
        assert schedule.link_up("a", "b", 1.2)  # up phase
        assert not schedule.link_up("a", "b", 1.45)  # second down phase
        assert schedule.link_up("a", "b", 2.05)  # after end

    def test_loss_probabilities_combine_independently(self):
        schedule = ChaosSchedule(
            losses=[LinkLoss(probability=0.5), LinkLoss(probability=0.5)]
        )
        assert schedule.loss_probability("a", "b", 0.0) == pytest.approx(0.75)
        assert schedule.loss_probability("a", "b", math.inf) == 0.0

    def test_workers_down_caps_at_pool_size(self):
        schedule = ChaosSchedule(
            crashes=[
                WorkerCrash(tier="cloud", start=0.0, end=1.0, workers=2),
                WorkerCrash(tier="cloud", start=0.5, end=1.5, workers=2),
            ]
        )
        assert schedule.workers_down("cloud", 0.25, 3) == 2
        assert schedule.workers_down("cloud", 0.75, 3) == 3  # capped
        assert schedule.workers_down("cloud", 1.25, 3) == 2
        assert schedule.workers_down("edge-0", 0.75, 3) == 0
        assert schedule.worker_event_times("cloud") == [0.0, 0.5, 1.0, 1.5]

    def test_loss_draws_reset_and_stay_draw_count_stable(self):
        window = dict(start=1.0, end=2.0)
        first = ChaosSchedule(losses=[LinkLoss(probability=0.5, **window)], seed=9)
        # Draws outside the window consume no RNG state...
        for _ in range(10):
            assert not first.sample_loss("a", "b", 0.5)
        inside = [first.sample_loss("a", "b", 1.5) for _ in range(20)]
        # ...so a schedule that only ever draws inside the window agrees.
        fresh = ChaosSchedule(losses=[LinkLoss(probability=0.5, **window)], seed=9)
        assert inside == [fresh.sample_loss("a", "b", 1.5) for _ in range(20)]
        # And reset() rewinds to the seeded state.
        first.reset()
        assert inside == [first.sample_loss("a", "b", 1.5) for _ in range(20)]

    def test_has_link_chaos(self):
        crash_only = ChaosSchedule(crashes=[WorkerCrash(tier="cloud", start=0.0, end=1.0)])
        assert not crash_only.has_link_chaos
        assert ChaosSchedule(outages=[LinkOutage()]).has_link_chaos


# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=0.0)

    def test_closed_to_open_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=1.0)
        for t in (0.0, 0.1):
            breaker.record_failure(t)
            assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.2)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(0.3)

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.5)
        assert breaker.state is BreakerState.OPEN

    def test_half_open_admits_a_single_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(0.5)
        assert breaker.allow(1.0)  # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(1.1)  # only one outstanding probe

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_success(1.2)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(1.3)

    def test_probe_failure_reopens_and_restarts_the_timer(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_failure(1.2)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(1.5)  # timer restarted at 1.2
        assert breaker.allow(2.2)

    def test_straggling_failure_while_open_is_ignored(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0)
        breaker.record_failure(0.0)
        opened_at = breaker.opened_at
        breaker.record_failure(0.5)  # late timeout from before the trip
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_at == opened_at

    def test_spawn_copies_thresholds_only(self):
        template = CircuitBreaker(failure_threshold=2, reset_timeout_s=0.5)
        template.record_failure(0.0)
        template.record_failure(0.1)
        child = template.spawn()
        assert template.state is BreakerState.OPEN
        assert child.state is BreakerState.CLOSED
        assert child.failure_threshold == 2
        assert child.reset_timeout_s == 0.5


# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=0.2, backoff_max_s=0.1)

    def test_backoff_ladder_is_capped(self):
        policy = RetryPolicy(
            deadline_s=0.1, backoff_base_s=0.05, backoff_multiplier=2.0, backoff_max_s=0.15
        )
        assert policy.backoff_s(1) == pytest.approx(0.05)
        assert policy.backoff_s(2) == pytest.approx(0.10)
        assert policy.backoff_s(3) == pytest.approx(0.15)  # capped
        assert policy.backoff_s(4) == pytest.approx(0.15)
        with pytest.raises(ValueError):
            policy.backoff_s(0)

    def test_worst_case_delay_bounds_the_ladder(self):
        policy = RetryPolicy(
            deadline_s=0.1,
            max_retries=2,
            backoff_base_s=0.02,
            backoff_multiplier=2.0,
            backoff_max_s=1.0,
            jitter_s=0.01,
        )
        # 3 deadlines + backoffs (0.02 + 0.04) + 2 max jitters.
        assert policy.worst_case_delay_s() == pytest.approx(0.3 + 0.06 + 0.02)


# --------------------------------------------------------------------------- #
class TestEventHandleCancellation:
    def test_cancelled_event_never_fires(self):
        loop = EventLoop()
        fired = []
        keep = loop.schedule(1.0, lambda now: fired.append(("keep", now)))
        drop = loop.schedule(0.5, lambda now: fired.append(("drop", now)))
        drop.cancel()
        loop.run()
        assert fired == [("keep", 1.0)]
        assert keep.cancelled is False
        assert drop.cancelled is True

    def test_cancel_after_firing_is_a_noop(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(0.1, lambda now: fired.append(now))
        loop.run()
        handle.cancel()
        assert fired == [0.1]

    def test_cancelled_head_is_skipped_without_consuming_the_budget(self):
        loop = EventLoop()
        fired = []
        head = loop.schedule(0.5, lambda now: fired.append("head"))
        loop.schedule(1.5, lambda now: fired.append("tail"))
        head.cancel()
        # A cancelled heap head must not count against max_events: one slot
        # of budget still reaches the live event behind it.
        assert loop.run(max_events=1) == 1
        assert fired == ["tail"]
        assert loop.clock.now == 1.5


# --------------------------------------------------------------------------- #
class TestWorkerPoolOffline:
    def test_apply_offline_prefers_idle_workers_and_restores(self):
        pool = make_worker_pool("simulated", EventLoop(), num_workers=3)
        busy = pool.acquire(0.0)
        busy.busy_until = 5.0
        assert pool.apply_offline(2, 0.0) == 2
        assert pool.online == 1
        # The busy worker survives (idle workers crash first).
        assert not busy.offline
        # acquire skips offline workers; the only online one is mid-batch.
        assert pool.acquire(0.0) is None
        assert pool.apply_offline(0, 6.0) == 0
        assert pool.online == 3
        assert pool.acquire(6.0) is not None

    def test_blackout_takes_every_worker(self):
        pool = make_worker_pool("simulated", EventLoop(), num_workers=2)
        assert pool.apply_offline(2, 0.0) == 2
        assert pool.online == 0
        assert pool.acquire(0.0) is None


# --------------------------------------------------------------------------- #
class TestResilientOffload:
    def test_fault_free_explicit_policy_matches_default_exactly(
        self, trained_ddnn, tiny_test
    ):
        """``offload=None`` is a degenerate RetryPolicy on the one offload
        path: a real policy that never triggers changes nothing, completion
        times included."""
        default = _serve(_fabric(trained_ddnn), tiny_test)
        fabric = _fabric(trained_ddnn, offload=POLICY)
        explicit = _serve(fabric, tiny_test)
        key = lambda rs: sorted(
            (r.request_id, r.prediction, r.exit_index, r.exit_name, r.completion_time)
            for r in rs
        )
        assert key(explicit.responses) == key(default.responses)
        assert explicit.reasons["failover"] == explicit.reasons["deadline"] == 0
        assert explicit.retry_total == 0
        stats = fabric.resilience_stats
        assert stats.attempts > 0  # offloads were actually sent
        assert stats.timeouts == stats.retries == fabric.reasons["failover"] == 0

    def test_default_policy_arms_no_attempt_timer(self, trained_ddnn, tiny_test):
        """The never-timing-out default must not schedule anything at
        ``t = inf``: the loop drains and the clock stops at the last answer."""
        fabric = _fabric(trained_ddnn)
        report = _serve(fabric, tiny_test)
        stats = fabric.resilience_stats
        assert stats.attempts > 0
        assert stats.timeouts == stats.retries == fabric.reasons["failover"] == 0
        assert len(fabric.events) == 0
        assert fabric.clock.now == max(r.completion_time for r in report.responses)

    def test_slo_without_policy_never_fails_an_inflight_offload_over(
        self, trained_ddnn, tiny_test
    ):
        """With no exit below the cloud and an SLO shorter than one transfer,
        every answer is late but real: an attempt timer clipped to the
        group's expiry would instead fail over with nothing to answer from."""
        fabric = DistributedServingFabric.from_plan(
            PartitionPlan(trained_ddnn, local_exit=False, slo_s=1e-3), 0.8
        )
        report = _serve(fabric, tiny_test, num_requests=8)
        assert report.served == 8
        assert {r.exit_name for r in report.responses} == {"cloud"}
        assert all(r.deadline_exceeded and not r.degraded for r in report.responses)
        assert fabric.reasons["failover"] == 0

    def test_partition_fails_over_to_local_exits(self, trained_ddnn, tiny_test):
        fabric = _fabric(
            trained_ddnn,
            offload=POLICY,
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout_s=1.0),
        ).attach_chaos(ChaosSchedule(outages=[LinkOutage(destination="cloud")], seed=0))
        report = _serve(fabric, tiny_test)
        assert not check_exactly_once(32, report.responses)
        degraded = [r for r in report.responses if r.degraded]
        assert degraded, "a full partition must force failovers"
        # Degraded answers come from the origin tier's own exit, honestly
        # labelled, never counted as shed.
        first_exit = fabric.sections[0].exit_name
        assert all(r.exit_name == first_exit and not r.shed for r in degraded)
        assert len(degraded) == fabric.reasons["failover"]
        assert fabric.resilience_stats.timeouts > 0
        assert fabric.deployment.fabric.lost_messages > 0
        # The breaker learned the link is dark and fast-failed later groups.
        assert fabric.resilience_stats.breaker_fast_fails > 0
        assert fabric.breaker_for("devices", "cloud").state is BreakerState.OPEN

    def test_flaky_uplink_retries_bridge_short_gaps(self, trained_ddnn, tiny_test):
        chaos = ChaosSchedule(
            flaps=[LinkFlap(period_s=0.4, down_s=0.12, destination="cloud")],
            losses=[LinkLoss(probability=0.1, destination="cloud")],
            seed=0,
        )
        fabric = _fabric(trained_ddnn, offload=POLICY).attach_chaos(chaos)
        report = _serve(fabric, tiny_test)
        assert report.served == 32
        assert report.retry_total > 0
        # Some offloads survived after retrying: the retry ladder is not
        # just a detour to failover.
        assert any(r.retries > 0 and not r.degraded for r in report.responses)
        # Lost/darkened sends still burned the deadline that detected them.
        assert fabric.resilience_stats.timeouts >= fabric.resilience_stats.retries

    def test_chaos_runs_are_byte_identical_under_seed(self, trained_ddnn, tiny_test):
        def _run():
            chaos = ChaosSchedule(
                flaps=[LinkFlap(period_s=0.4, down_s=0.12, destination="cloud")],
                losses=[LinkLoss(probability=0.1, destination="cloud")],
                outages=[LinkOutage(destination="cloud", start=0.5, end=0.8)],
                seed=4,
            )
            fabric = _fabric(trained_ddnn, offload=POLICY).attach_chaos(chaos)
            report = _serve(fabric, tiny_test)
            return accounting(report.responses), fabric.report_metadata()["resilience"]

        first_acc, first_stats = _run()
        second_acc, second_stats = _run()
        assert first_acc == second_acc
        assert first_stats == second_stats

    def test_breaker_recovers_after_the_partition_heals(self, trained_ddnn, tiny_test):
        fabric = _fabric(
            trained_ddnn,
            offload=POLICY,
            breaker=CircuitBreaker(failure_threshold=1, reset_timeout_s=0.05),
        ).attach_chaos(
            ChaosSchedule(outages=[LinkOutage(destination="cloud", start=0.0, end=0.4)], seed=0)
        )
        report = _serve(fabric, tiny_test, num_requests=32, rate=30.0)
        assert report.served == 32
        assert fabric.resilience_stats.breaker_fast_fails > 0
        # After the outage window a half-open probe succeeded, closed the
        # breaker, and cloud service resumed.
        assert fabric.breaker_for("devices", "cloud").state is BreakerState.CLOSED
        healed = [
            r
            for r in report.responses
            if r.exit_name == fabric.sections[-1].exit_name and not r.degraded
        ]
        assert healed, "no request reached the cloud exit after the heal"

    def test_worker_crash_delays_but_never_degrades(self, trained_ddnn, tiny_test):
        crash = WorkerCrash(tier="cloud", start=0.2, end=0.6)
        fabric = _fabric(trained_ddnn, offload=POLICY).attach_chaos(
            ChaosSchedule(crashes=[crash], seed=0)
        )
        probes = {}
        fabric.events.schedule(0.3, lambda now: probes.update(mid=fabric.healthy))
        report = _serve(fabric, tiny_test)
        assert report.served == 32
        assert report.reasons["failover"] == report.reasons["deadline"] == 0
        assert probes["mid"] is False  # the blackout actually took the tier down
        assert fabric.healthy  # restart restored the pool

    def test_link_chaos_without_retry_policy_is_rejected(self, trained_ddnn):
        fabric = _fabric(trained_ddnn)
        with pytest.raises(ValueError, match="RetryPolicy"):
            fabric.attach_chaos(ChaosSchedule(outages=[LinkOutage()]))
        # Pure worker chaos is fine without one: links never darken.
        fabric.attach_chaos(
            ChaosSchedule(crashes=[WorkerCrash(tier="cloud", start=0.0, end=0.1)])
        )

    def test_breaker_without_offload_policy_is_rejected(self, trained_ddnn):
        with pytest.raises(ValueError, match="offload"):
            _fabric(trained_ddnn, breaker=CircuitBreaker())

    def test_policy_that_cannot_time_out_is_treated_like_none(self, trained_ddnn):
        """The guards ask whether an attempt can time out, not whether a
        policy object was passed: a hand-built infinite deadline would hang
        under link chaos exactly like ``offload=None``."""
        immortal = RetryPolicy(deadline_s=math.inf)
        outage = ChaosSchedule(outages=[LinkOutage(destination="cloud")])
        with pytest.raises(ValueError, match="RetryPolicy"):
            _fabric(trained_ddnn, offload=immortal).attach_chaos(outage)
        with pytest.raises(ValueError, match="breaker without offload"):
            _fabric(trained_ddnn, offload=immortal, breaker=CircuitBreaker())
        with pytest.raises(ValueError, match="hedge without offload"):
            _fabric(trained_ddnn, offload=immortal, hedge=HedgePolicy())
        plan = PartitionPlan(trained_ddnn, replicas=2)
        balancer = LoadBalancer.from_plan(
            plan, THRESHOLD, offload=immortal, events=EventLoop()
        )
        with pytest.raises(ValueError, match="no offload RetryPolicy"):
            balancer.enable_hedging(HedgePolicy())

    def test_link_chaos_needs_a_device_exit_to_fail_over_to(self, trained_ddnn):
        """Regression: a failover with no cleared exit and no device exit
        used to die mid-run blaming admission.  Both ways of combining
        link chaos with an exit-less device tier are rejected up front."""
        outage = ChaosSchedule(outages=[LinkOutage(destination="cloud")])
        no_exit = PartitionPlan(trained_ddnn, local_exit=False)
        fabric = DistributedServingFabric.from_plan(no_exit, THRESHOLD, offload=POLICY)
        with pytest.raises(ValueError, match="device tier has no exit"):
            fabric.attach_chaos(outage)
        armed = _fabric(trained_ddnn, offload=POLICY).attach_chaos(outage)
        with pytest.raises(ValueError, match="device tier has no exit"):
            armed.apply_plan(no_exit)
        # Worker chaos never forces a failover, so it stays allowed.
        fabric.attach_chaos(
            ChaosSchedule(crashes=[WorkerCrash(tier="cloud", start=0.0, end=0.1)])
        )

    def test_failover_with_no_exit_names_the_offload_not_admission(
        self, trained_ddnn, tiny_test
    ):
        """Without chaos the same dead end is still reachable — a deadline
        the uplink cannot meet — and must blame the offload, not admission."""
        fabric = DistributedServingFabric.from_plan(
            PartitionPlan(trained_ddnn, local_exit=False),
            THRESHOLD,
            offload=RetryPolicy(deadline_s=1e-3, max_retries=0),
        )
        with pytest.raises(RuntimeError, match="nothing to fail over to") as error:
            _serve(fabric, tiny_test, num_requests=4)
        assert "admission" not in str(error.value)


# --------------------------------------------------------------------------- #
class TestChaosAccounting:
    @pytest.mark.parametrize("slo_s", [None, 0.08], ids=["no-slo", "slo"])
    def test_invariants_hold_under_midrun_flaps_with_bounded_queues(
        self, trained_ddnn, tiny_test, slo_s
    ):
        """offered == accepted + rejected + shed; responses == accepted -
        dropped + shed; the report's resilience block counts what the
        answers' reasons say, and every reason is honest — with link flaps
        mid-run, a bounded ingress shedding to the local exit and (``slo``)
        a budget tight enough that failovers and deadline retirements
        happen in the same run."""
        chaos = ChaosSchedule(
            flaps=[LinkFlap(period_s=0.3, down_s=0.12, destination="cloud")],
            losses=[LinkLoss(probability=0.15, destination="cloud")],
            seed=2,
        )
        fabric = _fabric(
            trained_ddnn,
            offload=POLICY,
            capacity=6,
            admission=admission_policy("shed-local"),
            slo_s=slo_s,
        ).attach_chaos(chaos)
        views = list(tiny_test.images)
        gap = 1.0 / (4.0 * SERVICE.capacity_rps(4))  # 4x overload
        for index, sample in enumerate(views):
            fabric.submit(sample, target=int(tiny_test.labels[index]), at=index * gap)
        fabric.run_until_idle(drain=True)

        stats = fabric.admission_stats
        responses = fabric.responses
        report = fabric.report()
        reasons = report.reasons
        resilience = report.metadata["resilience"]
        shed = [r for r in responses if r.shed]
        degraded = [r for r in responses if r.degraded]
        assert stats.shed > 0, "overload never triggered shedding"
        assert degraded or resilience["retries"] > 0, (
            "the flap windows never touched an offload"
        )
        if slo_s is not None:
            assert resilience["failovers"] > 0 and resilience["deadline_expired"] > 0
        assert not check_conservation(fabric.offered, stats.as_dict())
        assert len(responses) - len(shed) == stats.accepted - stats.dropped
        assert len(shed) == stats.shed
        assert len(degraded) == resilience["failovers"] + resilience["deadline_expired"]
        assert not any(r.shed for r in degraded)  # disjoint classifications
        assert reasons["failover"] == resilience["failovers"]
        assert reasons["deadline"] == resilience["deadline_expired"]
        assert reasons["shed"] == stats.shed
        assert sum(reasons.values()) == len(responses)
        thresholds = [criterion.threshold for criterion in fabric.criteria]
        assert not check_honest_reasons(responses, thresholds)
        assert not check_exactly_once(len(responses), responses), "duplicate responses"
        # Every admitted-and-kept request got exactly one answer.
        assert len(responses) == fabric.offered - stats.rejected - stats.dropped


# --------------------------------------------------------------------------- #
class TestHealthAwareBalancer:
    def test_mark_down_routes_around_and_all_down_raises(self, trained_ddnn):
        plan = PartitionPlan(trained_ddnn, replicas=2)
        balancer = LoadBalancer.from_plan(plan, THRESHOLD, strategy="round-robin")
        balancer.mark_down(0)
        assert balancer.healthy_indices() == [1]
        assert balancer.pick() == 1
        balancer.mark_down(1)
        with pytest.raises(RuntimeError, match="unhealthy"):
            balancer.pick()
        balancer.mark_up(0)
        assert balancer.pick() == 0
        with pytest.raises(IndexError):
            balancer.mark_down(5)

    def test_crashed_replica_stack_is_excluded_until_restart(
        self, trained_ddnn, tiny_test
    ):
        plan = PartitionPlan(trained_ddnn, replicas=2)
        balancer = LoadBalancer.from_plan(plan, THRESHOLD, strategy="round-robin")
        # Replica 0's cloud tier blacks out from t=0; its own clock is still
        # at 0, so the balancer sees it unhealthy immediately.
        balancer.replicas[0].attach_chaos(
            ChaosSchedule(crashes=[WorkerCrash(tier="cloud", start=0.0, end=1.0)])
        )
        assert balancer.healthy_indices() == [1]
        for _ in range(3):  # rotation collapses onto the healthy stack
            assert balancer.pick() == 1
        index, _ = balancer.submit(tiny_test.images[0])
        assert index == 1
        # Advance replica 0 past the restart boundary: health returns.
        balancer.replicas[0].run_until_idle(drain=True)
        assert balancer.replicas[0].clock.now >= 1.0
        assert balancer.healthy_indices() == [0, 1]
