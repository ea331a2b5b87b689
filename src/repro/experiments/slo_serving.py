"""Experiment S7 — end-to-end SLO budgets and hedged offloads under chaos.

The chaos study (:mod:`~repro.experiments.chaos_serving`) shows the fabric
*survives* faults; this one asks what surviving costs the tail, and what an
explicit end-to-end budget buys back.  One identical Poisson trace is
served under the chaos scenarios three times:

* ``no-slo`` — PR-8 resilience only: offload deadlines, retry ladders,
  circuit breaking, failover.  Requests carry no end-to-end budget, so a
  request can spend the whole worst-case recovery ladder in the tail.
* ``deadline`` — every request carries a
  :class:`~repro.serving.resilience.Deadline` (``slo_s``): expired
  requests are retired from tier queues *before* burning compute, retry
  ladders are clipped to the remaining budget, and batches form
  earliest-deadline-first.  The tail is capped near the budget.
* ``deadline+hedge`` — additionally, an offload that has consumed a
  :class:`~repro.serving.resilience.HedgePolicy` fraction of its budget
  without delivering is speculatively re-sent to a sibling replica stack
  via the :class:`~repro.serving.balancer.LoadBalancer`; first arrival
  wins, the loser is cancelled, hedge bytes are honestly charged.

The run *raises* (rather than records) when the SLO plane fails its
contract: every (mode, scenario) must answer every request exactly once;
no expired request may consume a remote compute slot
(``expired_compute == 0``); the fault-free baselines must show zero
expiries, zero retries and zero hedges; hedging must *strictly* improve
the chaos p99 against deadline-only at equal answer count on the
link-chaos scenarios; deadline propagation must strictly improve the
worker-crash p99 against no-slo (queue retirement caps the blackout
tail); and every cell must replay byte-identically — same seed, fresh
fabrics → identical per-request accounting *including hedge decisions and
deadline flags*.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..hierarchy.plan import PartitionPlan
from ..serving import HedgePolicy, LoadBalancer, PoissonProcess
from ..serving.invariants import (
    accounting,
    check_exactly_once,
    check_honest_reasons,
    check_no_expired_compute,
    check_replay,
    require,
)
from .results import ExperimentResult
from .runner import ExperimentScale, available_cpu_count, default_scale
from .scenarios import (
    SCENARIOS,
    ServingTrace,
    chaos_schedule,
    degraded_fraction,
    fault_windows,
    flap_cycle,
    retry_ladder,
)

__all__ = ["run_slo_serving"]

MODES = ("no-slo", "deadline", "deadline+hedge")
#: Local-exit entropy threshold of the cascade.
THRESHOLD = 0.8
#: Poisson arrivals served under every (mode, scenario) cell.
NUM_REQUESTS = 160
#: Seed of the arrival process, chaos draws and retry jitter.
SEED = 0

#: Hedge trigger as a fraction of the offload group's remaining budget.
#: It must sit between one healthy delivery (<= deadline/2 of a budget of
#: eight deadlines, so the fault-free baseline sends zero hedges) and the
#: first attempt's timeout (so a hedge preempts the retry ladder instead
#: of merely racing its failover).
HEDGE_TRIGGER_FRACTION = 0.1


def run_slo_serving(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Serve one trace per (mode, scenario); assert the SLO plane's contract."""
    scale = scale if scale is not None else default_scale()

    # Same trace, ladder and fault timetable as the chaos study, so the two
    # tables are comparable cell for cell.
    trace = ServingTrace(scale, NUM_REQUESTS)
    rate, horizon = trace.rate_rps, trace.horizon_s
    policy, breaker, transfer = retry_ladder(PartitionPlan(trace.model), SEED)
    deadline = policy.deadline_s
    # The end-to-end budget: generous against one healthy journey, tight
    # against the retry ladder's worst case — so the budget only ever binds
    # when chaos is actually eating the slack.
    slo_s = 8.0 * deadline
    hedge = HedgePolicy(trigger_fraction=HEDGE_TRIGGER_FRACTION, max_hedges=1)
    # Unlike the chaos study, the blackout must *outlast* the budget —
    # a crash window shorter than slo_s is invisible to the deadline plane
    # (queued work just waits it out and still answers in budget).
    windows = fault_windows(
        horizon, crash_end=0.30 * horizon + max(0.25 * horizon, 1.5 * slo_s)
    )
    flap = flap_cycle(horizon, deadline)

    # Requests *submitted inside the fault window* are the population the
    # SLO machinery acts on; gating on their tail (rather than the whole
    # trace's) keeps the assertions meaningful at any trace length, where
    # the global p99 quantile can land on an unaffected request.
    def _window_p99(report, scenario: str) -> float:
        lo, hi = windows[scenario]
        latencies = [
            r.latency_s for r in report.responses if lo <= r.submit_time <= hi
        ]
        if not latencies:
            raise RuntimeError(
                f"no requests were submitted inside the '{scenario}' fault "
                f"window [{lo:.3f}, {hi:.3f}]s — the chaos never touched the "
                "trace, so the SLO plane went unexercised"
            )
        return float(np.percentile(np.asarray(latencies), 99))

    def _run(mode: str, scenario: str) -> Dict:
        use_deadline = mode != "no-slo"
        use_hedge = mode == "deadline+hedge"
        # Identical two-replica topology in every mode, so compute capacity
        # is equal and the measured differences are the SLO plane alone.
        # All traffic enters replica 0 (where chaos strikes); replica 1 only
        # ever sees hedge copies.
        plan = PartitionPlan(
            trace.model,
            replicas=2,
            slo_s=slo_s if use_deadline else None,
            hedge=hedge if use_hedge else None,
        )
        balancer = LoadBalancer.from_plan(
            plan,
            THRESHOLD,
            strategy="round-robin",
            batching=trace.batching,
            service_models=trace.service_models(plan),
            offload=policy,
            breaker=breaker,
            edf=use_deadline,
        )
        origin = balancer.replicas[0]
        schedule = chaos_schedule(scenario, windows, flap, origin.tier_names[-1], SEED)
        if schedule is not None:
            origin.attach_chaos(schedule)
        arrivals = PoissonProcess(rate_rps=rate, seed=SEED + 1)
        for count, when in zip(range(NUM_REQUESTS), arrivals):
            index = count % len(trace.views)
            origin.submit(trace.views[index], target=trace.targets[index], at=when)
        balancer.run_until_idle(drain=True)
        report = balancer.report(duration_s=origin.clock.now)
        resilience = report.metadata["resilience"]
        require(
            f"slo cell ({mode}, {scenario}) (expired or not, every request must "
            "be answered exactly once for an honest reason, and expired work "
            "retired, not computed)",
            check_exactly_once(NUM_REQUESTS, report.responses),
            check_honest_reasons(report.responses, [c.threshold for c in origin.criteria]),
            check_no_expired_compute(resilience),
        )
        # A hit answers strictly inside the budget with its intended (not
        # deadline-retired) result; a request retired *at* its budget has
        # latency == slo_s and must not count as both hit and expired.
        hit = (
            sum(
                1
                for r in report.responses
                if not r.deadline_exceeded and r.latency_s < slo_s
            )
            / report.served
        )
        return {
            "report": report,
            "accounting": accounting(report.responses),
            "resilience": resilience,
            "breakers": report.metadata["breakers"],
            "hit_rate": hit,
            "window_p99_s": _window_p99(report, scenario),
            "lost_messages": origin.deployment.fabric.lost_messages,
        }

    result = ExperimentResult(
        name="slo_serving",
        paper_reference=(
            "End-to-end SLO plane over the fault-tolerant fabric (Section "
            "IV-G online): deadline propagation across tiers + hedged "
            "offloads to sibling replicas"
        ),
        columns=[
            "mode",
            "scenario",
            "served",
            "p50_ms",
            "p99_ms",
            "chaos_p99_ms",
            "hit_pct",
            "expired_pct",
            "degraded_pct",
            "retries",
            "hedges",
            "hedge_wins",
            "hedge_kb",
        ],
        metadata={
            "scale": scale.name,
            "threshold": THRESHOLD,
            "num_requests": NUM_REQUESTS,
            "offered_rate_rps": rate,
            "horizon_s": horizon,
            "slo_s": slo_s,
            "deadline_s": deadline,
            "hedge_trigger_fraction": hedge.trigger_fraction,
            "max_hedges": hedge.max_hedges,
            "worst_case_recovery_s": policy.worst_case_delay_s(),
            "uplink_transfer_estimate_s": transfer,
            "flap": {"period_s": flap[0], "down_s": flap[1]},
            "partition_window_s": list(windows["cloud-partition"]),
            "crash_window_s": list(windows["worker-crash"]),
            "seed": SEED,
            "cpu_count": available_cpu_count(),
            "backend": "simulated",
            "note": (
                "hit_pct = answers within the end-to-end budget slo_s; every "
                "cell asserted exactly-once, zero expired-compute, and "
                "byte-reproducible under its seed (hedge decisions and "
                "deadline flags included); hedging must strictly beat "
                "deadline-only chaos_p99 (tail over requests submitted in "
                "the fault window) on link-chaos scenarios, and deadline "
                "propagation must strictly beat no-slo chaos_p99 and hit "
                "rate on worker-crash"
            ),
        },
    )

    outcomes: Dict[tuple, Dict] = {}
    for mode in MODES:
        for scenario in SCENARIOS:
            first = _run(mode, scenario)
            second = _run(mode, scenario)
            require(
                f"slo cell ({mode}, {scenario}) under seed {SEED}",
                check_replay(first["accounting"], second["accounting"]),
            )
            outcomes[(mode, scenario)] = first
            report = first["report"]
            resilience = first["resilience"]
            result.add_row(
                mode=mode,
                scenario=scenario,
                served=report.served,
                p50_ms=1e3 * report.p50_latency_s,
                p99_ms=1e3 * report.p99_latency_s,
                chaos_p99_ms=1e3 * first["window_p99_s"],
                hit_pct=100.0 * first["hit_rate"],
                expired_pct=100.0 * report.deadline_exceeded_fraction,
                degraded_pct=100.0 * degraded_fraction(report),
                retries=report.retry_total,
                hedges=report.hedge_total,
                hedge_wins=resilience["hedge_wins"],
                hedge_kb=report.hedge_bytes / 1e3,
            )

    # -- fault-free baselines never touch the SLO recovery machinery ------ #
    for mode in MODES:
        baseline = outcomes[(mode, "none")]
        report = baseline["report"]
        resilience = baseline["resilience"]
        if report.retry_total or degraded_fraction(report):
            raise RuntimeError(
                f"fault-free baseline of mode '{mode}' retried or degraded "
                f"(retries={report.retry_total}, "
                f"degraded={degraded_fraction(report):.3f})"
            )
        if mode != "no-slo" and resilience["deadline_expired"]:
            raise RuntimeError(
                f"fault-free baseline of mode '{mode}' expired "
                f"{resilience['deadline_expired']} request(s) — the budget "
                f"({slo_s:.4f}s) is too tight for healthy journeys"
            )
        if report.hedge_total:
            raise RuntimeError(
                f"fault-free baseline of mode '{mode}' sent "
                f"{report.hedge_total} hedge(s) — the trigger fraction "
                f"({hedge.trigger_fraction}) fires before one healthy delivery"
            )
    if outcomes[("no-slo", "none")]["report"].offload_fraction <= 0.0:
        raise RuntimeError(
            f"threshold {THRESHOLD} offloads nothing at the baseline — the "
            "SLO plane would be unexercised; lower the threshold"
        )

    # -- hedging must strictly improve the link-chaos tail ---------------- #
    # Gated on the in-window tail (chaos_p99_ms): hedging's claim is about
    # the requests the fault actually touched, and the whole-trace p99
    # quantile can land on an unaffected request at some trace lengths.
    for scenario in ("flaky-uplink", "cloud-partition"):
        plain = outcomes[("deadline", scenario)]
        hedged = outcomes[("deadline+hedge", scenario)]
        if hedged["report"].served != plain["report"].served:
            raise RuntimeError(
                f"hedging changed the answer count on '{scenario}' "
                f"({hedged['report'].served} vs {plain['report'].served}) "
                "— p99 comparison is meaningless"
            )
        if not hedged["window_p99_s"] < plain["window_p99_s"]:
            raise RuntimeError(
                f"hedging did not strictly improve '{scenario}' in-window "
                f"p99: {1e3 * hedged['window_p99_s']:.2f}ms (hedged) vs "
                f"{1e3 * plain['window_p99_s']:.2f}ms (deadline-only) at "
                f"{hedged['report'].served} answers each"
            )
        if hedged["report"].hedge_total == 0:
            raise RuntimeError(
                f"'{scenario}' sent zero hedges — the trigger never fired, "
                "so the improvement (if any) is not hedging"
            )

    # -- deadline propagation must cap the worker-crash blackout tail ----- #
    unbounded = outcomes[("no-slo", "worker-crash")]
    bounded = outcomes[("deadline", "worker-crash")]
    if not bounded["hit_rate"] > unbounded["hit_rate"]:
        raise RuntimeError(
            "deadline propagation did not strictly improve the "
            f"worker-crash hit rate: {100 * bounded['hit_rate']:.1f}% "
            f"(deadline) vs {100 * unbounded['hit_rate']:.1f}% (no-slo) — "
            "retiring expired work should protect the not-yet-expired "
            "backlog"
        )
    if not bounded["window_p99_s"] < unbounded["window_p99_s"]:
        raise RuntimeError(
            "deadline propagation did not strictly improve the "
            f"worker-crash in-window p99: "
            f"{1e3 * bounded['window_p99_s']:.2f}ms (deadline) vs "
            f"{1e3 * unbounded['window_p99_s']:.2f}ms (no-slo) — queue "
            "retirement should cap the blackout tail"
        )
    if bounded["resilience"]["deadline_expired"] == 0:
        raise RuntimeError(
            "the worker-crash window expired nothing under deadlines — "
            "the blackout never intersected a queued budget, so the "
            "retirement path went unexercised"
        )

    result.metadata["resilience_stats"] = {
        f"{mode}/{scenario}": outcome["resilience"]
        for (mode, scenario), outcome in outcomes.items()
    }
    result.metadata["breakers"] = {
        f"{mode}/{scenario}": outcome["breakers"]
        for (mode, scenario), outcome in outcomes.items()
    }
    result.metadata["hit_rates"] = {
        f"{mode}/{scenario}": outcome["hit_rate"]
        for (mode, scenario), outcome in outcomes.items()
    }
    return result
