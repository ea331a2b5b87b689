"""Experiment S5 — the elastic tier plane under a diurnal load ramp.

Two studies over the :class:`~repro.hierarchy.plan.PartitionPlan` machinery
this repo's elastic refactor introduced:

* **diurnal ramp** — the same trained model served through three fabric
  configurations against an identical sinusoidal
  :class:`~repro.serving.loadgen.DiurnalProcess` arrival stream (trough
  below one worker's capacity, crest needing the full worker budget), with
  a bounded ingress queue and shed-local admission:

  - ``static-min`` — one worker per tier, all day: cheap, but the crest
    overloads it and the tail latency / shed rate show it;
  - ``static-peak`` — the peak worker budget per tier, all day: the
    latency floor, at maximum provisioning cost;
  - ``elastic`` — starts at one worker and lets the
    :class:`~repro.serving.autoscale.Autoscaler` move each tier between
    the watermarks, so the crest is served at peak capacity and the
    trough releases it.

  The acceptance bar is the elastic row matching the fully-provisioned
  static row at the tail (``p95(elastic) <= p95(static-peak)``) while
  provisioning fewer worker-seconds; the run *raises* if elastic is worse,
  so a written table is itself evidence.

* **mid-run repartition** — a live fabric serving a request stream has its
  section boundary moved by :meth:`~repro.serving.fabric.DistributedServingFabric.apply_plan`
  (local exit disabled → devices become pure feature extractors)
  mid-burst.  Every request queued at the handoff is served under the new
  plan, and the post-handoff routing (prediction + exit per request) must
  be byte-identical to a fabric freshly built at the new boundary —
  mismatches, drops and duplicates all raise.

Everything runs on the simulated backend, so rows are deterministic; the
metadata still records the visible CPU count for parity with the other
serving studies.
"""

from __future__ import annotations

from typing import Optional

from ..hierarchy.plan import AutoscalePolicy, PartitionPlan
from ..serving import DistributedServingFabric, DiurnalProcess, admission_policy
from ..serving.invariants import check_conservation, check_exactly_once, require, routing
from .results import ExperimentResult
from .runner import ExperimentScale, available_cpu_count, default_scale
from .scenarios import ServingTrace

__all__ = ["run_elastic_serving"]

THRESHOLD = 0.8
#: Peak worker budget per tier: the static-peak count and the elastic maximum.
PEAK_WORKERS = 3
#: Diurnal arrivals per configuration.
NUM_REQUESTS = 240
#: Ingress queue bound of the shed-local admission policy.
CAPACITY = 32
SEED = 0


def run_elastic_serving(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Measure static-vs-elastic tails and mid-run repartition identity."""
    scale = scale if scale is not None else default_scale()

    trace = ServingTrace(scale, NUM_REQUESTS)
    model, views, targets = trace.model, trace.views, trace.targets
    batching, one_worker_rps = trace.batching, trace.one_worker_rps
    # One device-tier worker sustains ~one_worker_rps on full batches; the
    # diurnal crest offers PEAK_WORKERS times the trough, so static-min
    # drowns at the crest while the peak budget keeps up with headroom.
    base_rate = 0.6 * one_worker_rps
    peak_rate = 0.8 * PEAK_WORKERS * one_worker_rps
    # Scale up on the first sign of backlog (a queued request *is* the
    # evidence), release a worker after a sustained lull.
    policy = AutoscalePolicy(
        min_workers=1,
        max_workers=PEAK_WORKERS,
        high_watermark=1,
        low_watermark=0,
        cooldown_s=0.5,
        step=PEAK_WORKERS - 1,
    )

    result = ExperimentResult(
        name="elastic_serving",
        paper_reference="Elastic tier plane (diurnal ramp + live re-partition)",
        columns=[
            "sweep",
            "config",
            "workers",
            "served",
            "shed_rate",
            "p50_ms",
            "p95_ms",
            "peak_workers",
            "detail",
        ],
        metadata={
            "scale": scale.name,
            "threshold": THRESHOLD,
            "num_requests": NUM_REQUESTS,
            "peak_worker_budget": PEAK_WORKERS,
            "capacity": CAPACITY,
            "base_rate_rps": base_rate,
            "peak_rate_rps": peak_rate,
            "one_worker_rps": one_worker_rps,
            "seed": SEED,
            "cpu_count": available_cpu_count(),
            "backend": "simulated",
            "note": (
                "simulated backend: rows are deterministic; elastic p95 must "
                "not exceed static-peak p95 (asserted at run time)"
            ),
        },
    )

    # ------------------------------------------------------------------ #
    # Diurnal ramp: identical arrival stream, three provisioning schemes.
    period = 2.0 * NUM_REQUESTS / (base_rate + peak_rate)  # ~one full cycle

    def _ramp(config: str) -> dict:
        if config == "static-min":
            plan = PartitionPlan(model, workers_per_tier=1)
        elif config == "static-peak":
            plan = PartitionPlan(model, workers_per_tier=PEAK_WORKERS)
        else:
            plan = PartitionPlan(model, workers_per_tier=1, autoscale=policy)
        fabric = DistributedServingFabric.from_plan(
            plan,
            THRESHOLD,
            batching=batching,
            service_models=trace.service_models(plan),
            capacity=CAPACITY,
            admission=admission_policy("shed-local"),
        )
        process = DiurnalProcess(base_rate, peak_rate, period_s=period, seed=SEED)
        report = fabric.open_loop(
            process, views, targets=targets, num_requests=NUM_REQUESTS
        )
        require(
            f"elastic diurnal ramp '{config}'",
            check_conservation(NUM_REQUESTS, fabric.admission_stats.as_dict()),
        )
        scaler = fabric.autoscaler
        return {
            "served": report.served,
            "shed": report.shed_fraction,
            "p50_ms": 1e3 * report.p50_latency_s,
            "p95_ms": 1e3 * report.p95_latency_s,
            "peak": max(scaler.peak_workers) if scaler is not None else max(
                plan.worker_counts()
            ),
            "trajectory": list(scaler.trajectory) if scaler is not None else [],
        }

    ramp = {config: _ramp(config) for config in ("static-min", "static-peak", "elastic")}
    for config, row in ramp.items():
        workers = {
            "static-min": "1",
            "static-peak": str(PEAK_WORKERS),
            "elastic": f"1..{PEAK_WORKERS}",
        }[config]
        result.add_row(
            sweep="diurnal",
            config=config,
            workers=workers,
            served=row["served"],
            shed_rate=row["shed"],
            p50_ms=row["p50_ms"],
            p95_ms=row["p95_ms"],
            peak_workers=row["peak"],
            detail=f"{len(row['trajectory'])} scale events",
        )
    result.metadata["elastic_trajectory"] = [
        (round(t, 4), tier, n) for t, tier, n in ramp["elastic"]["trajectory"]
    ]
    if ramp["elastic"]["p95_ms"] > ramp["static-peak"]["p95_ms"]:
        raise RuntimeError(
            f"elastic p95 ({ramp['elastic']['p95_ms']:.3f} ms) exceeds the "
            f"equal-peak-budget static p95 ({ramp['static-peak']['p95_ms']:.3f} ms) "
            "— the autoscaler failed to track the diurnal crest"
        )

    # ------------------------------------------------------------------ #
    # Mid-run repartition: move the boundary on a live fabric mid-burst and
    # compare post-handoff routing against a fabric born at the new boundary.
    plan_a = PartitionPlan(model)
    plan_b = plan_a.with_changes(local_exit=False)
    burst = min(NUM_REQUESTS, len(views))
    gap = 1.0 / (1.5 * one_worker_rps)  # mild overload so a backlog exists
    switch_at = burst * gap / 2.0
    # The same modelled service times on both fabrics (they change *when*
    # things happen, never what is computed) — sustained 1.5x overload
    # guarantees requests are queued when the boundary moves.
    tier_services = trace.service_models(plan_a)

    live = DistributedServingFabric.from_plan(
        plan_a, THRESHOLD, batching=batching, service_models=tier_services
    )
    for index in range(burst):
        live.submit(views[index], target=targets[index], at=index * gap)
    outcome = {}
    live.events.schedule(
        switch_at, lambda now: outcome.update(report=live.apply_plan(plan_b, now=now))
    )
    live.run_until_idle(drain=True)
    handoff = live.last_repartition
    assert handoff is not None

    fresh = DistributedServingFabric.from_plan(
        plan_b, THRESHOLD, batching=batching, service_models=tier_services
    )
    for index in range(burst):
        fresh.submit(views[index], target=targets[index], at=index * gap)
    fresh.run_until_idle(drain=True)

    require("mid-run repartition", check_exactly_once(burst, live.responses))
    if handoff.total_requeued == 0:
        raise RuntimeError(
            "repartition study found no queued requests at the handoff — "
            "the boundary move was not exercised under load"
        )
    after = routing(live.responses, after=handoff.time)
    after_ids = {row[0] for row in after}
    reference = [row for row in routing(fresh.responses) if row[0] in after_ids]
    if after != reference:
        mismatches = sum(1 for a, b in zip(after, reference) if a != b)
        raise RuntimeError(
            f"post-handoff routing diverged from the freshly-built fabric at "
            f"the new boundary on {mismatches}/{len(after)} requests"
        )
    pre = burst - len(after)
    result.add_row(
        sweep="repartition",
        config="local-exit→off",
        workers="1",
        served=burst,
        shed_rate=0.0,
        p50_ms=0.0,
        p95_ms=0.0,
        peak_workers=1,
        detail=(
            f"pre={pre} post={len(after)} requeued={handoff.total_requeued} "
            f"match=yes dropped=0 duplicated=0"
        ),
    )
    result.metadata["repartition"] = {
        "switch_at_s": switch_at,
        "handoff_at_s": handoff.time,
        "requeued": handoff.requeued,
        "synchronous": outcome.get("report") is not None,
        "post_handoff_requests": len(after),
    }
    return result
