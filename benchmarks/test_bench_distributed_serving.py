"""Benchmark S3 — distributed serving fabric: p95 / offload vs fabric knobs.

Runs the tier-aware fabric study (open-loop Poisson arrivals, simulated
time, real model predictions) and checks the distributed-serving contract:

* exit decisions are worker-count-invariant: every worker-sweep row reports
  the same offload fraction and accuracy, only the latency moves;
* adding workers never worsens the tail, and going from a saturated single
  worker to two cuts p95 measurably;
* shrinking link bandwidth adds transfer delay for offloaded requests
  without changing what is offloaded;
* shedding at admission (a bounded device-tier queue answering arrivals
  that find it full from the local exit) cuts both the offload fraction
  and the tail latency of the saturated single-worker row at a bounded
  accuracy cost.

Everything is simulated-time deterministic — no wall-clock assertions.
"""

from __future__ import annotations

from repro.experiments.distributed_serving import run_distributed_serving


def test_bench_distributed_serving(benchmark, scale, record_result):
    result = benchmark.pedantic(
        run_distributed_serving, args=(scale,), rounds=1, iterations=1
    )
    record_result(result)
    rows = result.rows

    worker_rows = sorted(
        (row for row in rows if row["sweep"] == "workers"), key=lambda r: r["workers"]
    )
    assert len(worker_rows) >= 2

    # Worker-count invariance: same decisions, hence identical offload
    # fraction and accuracy across the sweep.
    for row in worker_rows[1:]:
        assert row["offload_pct"] == worker_rows[0]["offload_pct"]
        assert row["accuracy_pct"] == worker_rows[0]["accuracy_pct"]

    # More workers never worsen the tail; the first doubling visibly helps
    # (the single worker is saturated at offered_x > 1).
    p95s = [row["p95_ms"] for row in worker_rows]
    assert all(b <= a * 1.001 for a, b in zip(p95s, p95s[1:])), p95s
    assert p95s[1] < 0.9 * p95s[0], f"2 workers should beat 1 under overload: {p95s}"

    # Bandwidth: scaled-down links slow offloaded requests but route the
    # same samples (offload fraction pinned to the matched workers=2 row).
    two_worker = next(row for row in worker_rows if row["workers"] == 2)
    for row in rows:
        if row["sweep"] != "bandwidth":
            continue
        assert row["offload_pct"] == two_worker["offload_pct"]
        assert row["p50_ms"] >= two_worker["p50_ms"]

    # Threshold moves the offload fraction (the paper's knob, end to end).
    threshold_rows = [row for row in rows if row["sweep"] == "threshold"]
    offloads = {row["threshold"]: row["offload_pct"] for row in threshold_rows}
    offloads[two_worker["threshold"]] = two_worker["offload_pct"]
    ordered = [offloads[key] for key in sorted(offloads)]
    assert ordered == sorted(ordered, reverse=True), (
        "offload fraction should fall as the local threshold rises: "
        f"{offloads}"
    )

    # Shedding vs the matched saturated single-worker row: less offload,
    # better tail, bounded accuracy cost.
    baseline = worker_rows[0]
    shed = next(row for row in rows if row["sweep"] == "shed")
    assert shed["shed_pct"] > 0.0
    assert shed["offload_pct"] < baseline["offload_pct"]
    assert shed["p95_ms"] < baseline["p95_ms"]
    assert shed["accuracy_pct"] >= baseline["accuracy_pct"] - 10.0
