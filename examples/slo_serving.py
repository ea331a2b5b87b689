"""End-to-end SLO serving: deadline propagation and hedged offloads.

The chaos example shows the fabric *surviving* faults; this one shows
what surviving costs the tail and what an explicit end-to-end budget
buys back.  A small trained DDNN serves the same Poisson request stream
under two chaos scenarios, three ways each, on an identical two-replica
topology (all traffic enters replica 0, where chaos strikes):

1. ``no-slo`` — offload deadlines, retries, breakers and failover only;
   a request can spend the whole worst-case recovery ladder in the tail;
2. ``deadline`` — every request carries an end-to-end budget: expired
   work is retired from tier queues before burning compute, retry
   ladders are clipped to the remaining budget, and batches form
   earliest-deadline-first;
3. ``deadline+hedge`` — additionally, an offload that has consumed a
   fraction of its budget without delivering is speculatively re-sent to
   the sibling replica stack; first arrival wins, the loser is
   cancelled, and the losing copy's bytes are charged honestly.

Every cell answers every request exactly once, and on the simulated
clock the whole realisation is deterministic under the seed.

Run with::

    PYTHONPATH=src python examples/slo_serving.py [--epochs 10] [--train-samples 160]
"""

from __future__ import annotations

import argparse

from repro.core import DDNNTrainer, TrainingConfig, build_ddnn
from repro.datasets import DEFAULT_DEVICE_PROFILES, load_mvmc_splits
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
    CircuitBreaker,
    HedgePolicy,
    LoadBalancer,
    PoissonProcess,
    RetryPolicy,
    ServiceModel,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-samples", type=int, default=160)
    parser.add_argument("--test-samples", type=int, default=60)
    parser.add_argument("--epochs", type=int, default=10)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    num_devices = 4
    profiles = DEFAULT_DEVICE_PROFILES[:num_devices]
    train_set, test_set = load_mvmc_splits(
        train_samples=args.train_samples,
        test_samples=args.test_samples,
        profiles=profiles,
        seed=7,
    )

    print("Training a small DDNN (4 devices)...")
    model = build_ddnn(
        num_devices=num_devices,
        device_filters=4,
        cloud_filters=8,
        cloud_conv_blocks=2,
        cloud_hidden_units=32,
        seed=1,
    )
    DDNNTrainer(model, TrainingConfig(epochs=args.epochs, batch_size=32, seed=0)).fit(train_set)

    threshold = 0.8
    num_requests = 120
    service = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.004)
    rate = 0.5 * service.capacity_rps(4)
    horizon = num_requests / rate
    batching = BatchingPolicy(max_batch_size=4, max_wait_s=0.004)
    policy = RetryPolicy(
        deadline_s=0.1,
        max_retries=3,
        backoff_base_s=0.05,
        backoff_multiplier=2.0,
        backoff_max_s=0.4,
        jitter_s=0.01,
        seed=0,
    )
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=0.25)
    # Budget: generous against one healthy journey, tight against the
    # retry ladder's worst case — it only binds when chaos eats the slack.
    slo_s = 0.8
    # Trigger between one healthy delivery and the first attempt timeout:
    # a clean run never hedges, a dark link is escaped before the ladder.
    hedge = HedgePolicy(trigger_fraction=0.1, max_hedges=1)

    scenarios = {
        "flaky-uplink": ChaosSchedule(
            flaps=[
                LinkFlap(
                    period_s=horizon / 4.0,
                    down_s=0.12,
                    destination="cloud",
                    start=0.1 * horizon,
                    end=0.9 * horizon,
                )
            ],
            losses=[LinkLoss(probability=0.08, destination="cloud")],
            seed=0,
        ),
        "worker-crash": ChaosSchedule(
            crashes=[
                WorkerCrash(
                    tier="cloud", start=0.3 * horizon, end=0.3 * horizon + 2.0 * slo_s
                )
            ],
            seed=0,
        ),
        "cloud-partition": ChaosSchedule(
            outages=[
                LinkOutage(
                    destination="cloud", start=0.2 * horizon, end=0.8 * horizon
                )
            ],
            seed=0,
        ),
    }
    modes = ("no-slo", "deadline", "deadline+hedge")

    print(
        f"\nServing {num_requests} requests at {rate:.0f} req/s "
        f"(~{horizon:.2f} s horizon); budget {1e3 * slo_s:.0f} ms, hedge "
        f"trigger at {hedge.trigger_fraction:.0%} of remaining budget.\n"
    )
    header = (
        f"{'scenario':<16} {'mode':<15} {'p99 ms':>8} {'hit %':>6} "
        f"{'expired':>8} {'degraded':>9} {'hedges':>7} {'wins':>5}  notes"
    )
    print(header)
    print("-" * len(header))
    for name, schedule in scenarios.items():
        for mode in modes:
            plan = PartitionPlan(
                model,
                replicas=2,
                slo_s=slo_s if mode != "no-slo" else None,
                hedge=hedge if mode == "deadline+hedge" else None,
            )
            balancer = LoadBalancer.from_plan(
                plan,
                threshold,
                strategy="round-robin",
                batching=batching,
                service_models=[service] * plan.num_tiers,
                offload=policy,
                breaker=breaker,
                edf=mode != "no-slo",
            )
            origin = balancer.replicas[0]
            origin.attach_chaos(schedule)
            arrivals = PoissonProcess(rate_rps=rate, seed=1)
            for count, when in zip(range(num_requests), arrivals):
                index = count % len(test_set.images)
                origin.submit(
                    test_set.images[index],
                    target=int(test_set.labels[index]),
                    at=when,
                )
            balancer.run_until_idle(drain=True)
            report = balancer.report(duration_s=origin.clock.now)
            assert report.served == num_requests, "a request was dropped"
            resilience = report.metadata["resilience"]
            assert resilience["expired_compute"] == 0
            hit = sum(
                1
                for r in report.responses
                if not r.deadline_exceeded and r.latency_s < slo_s
            )
            notes = (
                f"retries={report.retry_total} "
                f"clipped={resilience['clipped_retries']} "
                f"hedge_kb={report.hedge_bytes / 1e3:.1f}"
            )
            print(
                f"{name:<16} {mode:<15} {1e3 * report.p99_latency_s:>8.2f} "
                f"{100.0 * hit / report.served:>6.1f} "
                f"{100.0 * report.deadline_exceeded_fraction:>7.1f}% "
                f"{100.0 * report.degraded_fraction:>8.1f}% "
                f"{report.hedge_total:>7} {resilience['hedge_wins']:>5}  {notes}"
            )

    print(
        "\nDeadlines cap the blackout tail near the budget (expired work is"
        "\nretired before burning compute); hedging escapes dark links to the"
        "\nsibling replica before the retry ladder even starts."
    )


if __name__ == "__main__":
    main()
