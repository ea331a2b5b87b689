"""Experiment S6 — the serving fabric under runtime fault injection.

The paper's fault-tolerance study (Section IV-G, Fig. 10) removes end
devices *offline* and measures the surviving system's accuracy.  This
experiment asks the online question the serving fabric must answer: what
happens to a live request stream when the network or the workers fail
*mid-run*?  An identical Poisson trace is served under four scenarios:

* ``none`` — the fault-free baseline (resilience armed, never triggered);
* ``flaky-uplink`` — the uplink to the top tier flaps (periodic dark
  windows) and drops messages; deadline timeouts retry with backoff and
  mostly bridge the gaps, a few offloads fail over to the local exit;
* ``cloud-partition`` — the top tier is unreachable for the middle half of
  the run; every offload in the window degrades to the origin tier's own
  exit (after the circuit breaker opens, without even burning a deadline),
  and cloud service resumes when the partition heals;
* ``worker-crash`` — every worker of the top tier crashes for a window and
  restarts; links stay up, so offloads queue at the dark tier and drain on
  restart — latency bulges, nothing degrades.

The run *raises* (rather than records) when resilience fails: every
scenario must answer every request exactly once (zero hangs, drops or
duplicates), the ``none`` scenario must show zero degraded answers and
zero retries, link-chaos scenarios must keep p95 within the no-chaos p95
plus the retry policy's worst-case delay bound (every failover is answered
by then), the partition must actually degrade a nonzero fraction, and
every scenario must replay byte-identically — same seed, fresh fabric →
identical per-request accounting — on the simulated backend.

The recorded table carries p95, degraded fraction, retry counts and the
accuracy delta against the fault-free baseline: graceful degradation as a
measured quantity, exactly in the spirit of the paper's Fig. 10 but for
the *runtime* failure axis.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hierarchy.plan import PartitionPlan
from ..serving import DistributedServingFabric, PoissonProcess
from ..serving.invariants import (
    accounting,
    check_exactly_once,
    check_honest_reasons,
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

__all__ = ["run_chaos_serving"]

#: Local-exit entropy threshold of the cascade.
THRESHOLD = 0.8
#: Poisson arrivals served under every chaos scenario.
NUM_REQUESTS = 160
#: Seed of the arrival process, chaos draws and retry jitter.
SEED = 0


def run_chaos_serving(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Serve one trace under injected faults; assert graceful degradation."""
    scale = scale if scale is not None else default_scale()

    trace = ServingTrace(scale, NUM_REQUESTS)
    rate, horizon = trace.rate_rps, trace.horizon_s
    plan = PartitionPlan(trace.model)
    policy, breaker, transfer = retry_ladder(plan, SEED)
    windows = fault_windows(horizon, crash_end=0.55 * horizon)
    flap = flap_cycle(horizon, policy.deadline_s)
    crash = windows["worker-crash"]

    def _run(scenario: str) -> Dict:
        fabric = DistributedServingFabric.from_plan(
            plan,
            THRESHOLD,
            batching=trace.batching,
            service_models=trace.service_models(plan),
            offload=policy,
            breaker=breaker,
        )
        schedule = chaos_schedule(scenario, windows, flap, fabric.tier_names[-1], SEED)
        if schedule is not None:
            fabric.attach_chaos(schedule)
        report = fabric.open_loop(
            PoissonProcess(rate_rps=rate, seed=SEED + 1),
            trace.views,
            targets=trace.targets,
            num_requests=NUM_REQUESTS,
        )
        require(
            f"chaos scenario '{scenario}' (degraded or not, the fabric must answer "
            "every request exactly once, for an honest reason)",
            check_exactly_once(NUM_REQUESTS, report.responses),
            check_honest_reasons(report.responses, [c.threshold for c in fabric.criteria]),
        )
        stats = fabric.admission_stats
        if stats.rejected or stats.dropped or stats.shed:
            raise RuntimeError(
                f"chaos scenario '{scenario}' shed/rejected at the unbounded "
                f"ingress ({stats}) — accounting is broken"
            )
        return {
            "report": report,
            "accounting": accounting(report.responses),
            "resilience": report.metadata["resilience"],
            "lost_messages": fabric.deployment.fabric.lost_messages,
            # Uniform observability block (also on report.metadata): breaker
            # end states plus how often each tripped/recovered.
            "breakers": fabric.report_metadata()["breakers"],
        }

    result = ExperimentResult(
        name="chaos_serving",
        paper_reference=(
            "Runtime fault plane (Section IV-G's fault tolerance, online): "
            "chaos injection + offload deadlines/retries + failover to local exits"
        ),
        columns=[
            "scenario",
            "served",
            "degraded_pct",
            "retries",
            "failovers",
            "p50_ms",
            "p95_ms",
            "accuracy",
            "acc_delta",
            "detail",
        ],
        metadata={
            "scale": scale.name,
            "threshold": THRESHOLD,
            "num_requests": NUM_REQUESTS,
            "offered_rate_rps": rate,
            "horizon_s": horizon,
            "deadline_s": policy.deadline_s,
            "max_retries": policy.max_retries,
            "backoff_base_s": policy.backoff_base_s,
            "jitter_s": policy.jitter_s,
            "worst_case_recovery_s": policy.worst_case_delay_s(),
            "breaker": {
                "failure_threshold": breaker.failure_threshold,
                "reset_timeout_s": breaker.reset_timeout_s,
            },
            "uplink_transfer_estimate_s": transfer,
            "flap": {"period_s": flap[0], "down_s": flap[1]},
            "partition_window_s": list(windows["cloud-partition"]),
            "crash_window_s": list(crash),
            "seed": SEED,
            "cpu_count": available_cpu_count(),
            "backend": "simulated",
            "note": (
                "simulated backend: every scenario is asserted byte-reproducible "
                "under its seed (two fresh runs, identical per-request "
                "degraded/retry accounting), answers every request exactly "
                "once, and keeps p95 within the no-chaos p95 plus the retry "
                "policy's worst-case recovery bound (link scenarios) or the "
                "crash window plus drain (worker-crash)"
            ),
        },
    )

    outcomes: Dict[str, Dict] = {}
    for scenario in SCENARIOS:
        first = _run(scenario)
        second = _run(scenario)
        require(
            f"chaos scenario '{scenario}' under seed {SEED}",
            check_replay(first["accounting"], second["accounting"]),
        )
        outcomes[scenario] = first

    baseline = outcomes["none"]["report"]
    if degraded_fraction(baseline) or baseline.retry_total:
        raise RuntimeError(
            "the fault-free baseline produced degraded answers or retries "
            f"(degraded={degraded_fraction(baseline):.3f}, "
            f"retries={baseline.retry_total}) — the deadline "
            f"({policy.deadline_s:.4f}s) is too tight for the deployment's "
            f"healthy transfers (~{transfer:.4f}s)"
        )
    if baseline.offload_fraction <= 0.0:
        raise RuntimeError(
            f"threshold {THRESHOLD} offloads nothing at the baseline, so the "
            "chaos scenarios would exercise no offload path — lower the "
            "threshold"
        )

    recovery = policy.worst_case_delay_s()
    slack = 0.05  # float/eventing slack on top of the analytic bounds
    bounds = {
        "flaky-uplink": baseline.p95_latency_s + recovery + slack,
        "cloud-partition": baseline.p95_latency_s + recovery + slack,
        # Links stay up: queued offloads wait out the crash window, then the
        # post-restart backlog drains at the capacity surplus.
        "worker-crash": baseline.p95_latency_s
        + (crash[1] - crash[0]) * 2.0
        + recovery
        + slack,
    }
    for scenario, outcome in outcomes.items():
        report = outcome["report"]
        bound = bounds.get(scenario)
        if bound is not None and report.p95_latency_s > bound:
            raise RuntimeError(
                f"chaos scenario '{scenario}' p95 {report.p95_latency_s:.4f}s "
                f"exceeds its graceful-degradation bound {bound:.4f}s"
            )
        accuracy = report.accuracy if report.accuracy is not None else 0.0
        base_acc = baseline.accuracy if baseline.accuracy is not None else 0.0
        resilience = outcome["resilience"]
        result.add_row(
            scenario=scenario,
            served=report.served,
            degraded_pct=100.0 * degraded_fraction(report),
            retries=report.retry_total,
            failovers=resilience["failovers"],
            p50_ms=1e3 * report.p50_latency_s,
            p95_ms=1e3 * report.p95_latency_s,
            accuracy=accuracy,
            acc_delta=accuracy - base_acc,
            detail=(
                f"lost={outcome['lost_messages']} "
                f"timeouts={resilience['timeouts']} "
                f"fast_fails={resilience['breaker_fast_fails']} "
                "breakers="
                + (
                    ",".join(
                        f"{link}:{info['state']}/{info['transitions']}"
                        for link, info in sorted(outcome["breakers"].items())
                    )
                    or "-"
                )
            ),
        )

    if degraded_fraction(outcomes["cloud-partition"]["report"]) <= 0.0:
        raise RuntimeError(
            "the cloud-partition scenario degraded nothing — the outage "
            "window never intersected an offload, so the failover path "
            "went unexercised"
        )
    if outcomes["flaky-uplink"]["report"].retry_total == 0:
        raise RuntimeError(
            "the flaky-uplink scenario never retried — the flap/loss windows "
            "never intersected an offload, so the retry path went unexercised"
        )

    result.metadata["resilience_stats"] = {
        scenario: outcome["resilience"] for scenario, outcome in outcomes.items()
    }
    result.metadata["breakers"] = {
        scenario: outcome["breakers"] for scenario, outcome in outcomes.items()
    }
    return result
