"""Benchmark S7 — the end-to-end SLO plane under chaos.

Regenerates the slo-serving table: one Poisson trace served under the
chaos scenarios in three modes — no-slo (PR-8 resilience only), deadline
(end-to-end budgets: queue retirement, clipped retry ladders, EDF
batching) and deadline+hedge (speculative re-sends to a sibling replica
stack).  The experiment itself raises when any cell drops or duplicates
a request, lets an expired request burn a remote compute slot, when a
fault-free baseline retries/expires/hedges, when hedging fails to
strictly improve the in-window chaos p99 on the link-chaos scenarios,
when deadlines fail to strictly improve the worker-crash tail and hit
rate, or when two fresh seeded runs disagree byte-for-byte — so a
recorded table is already evidence; the assertions below re-state the
acceptance bars explicitly on the rows.

Everything runs on the simulated backend, so the rows are deterministic
on any machine (the wall-clock counterpart is
``tests/test_slo.py::TestWallClockSLO``).
"""

from __future__ import annotations

from repro.experiments.runner import available_cpu_count
from repro.experiments.slo_serving import run_slo_serving


def test_bench_slo_serving(benchmark, scale, record_result):
    result = benchmark.pedantic(run_slo_serving, args=(scale,), rounds=1, iterations=1)
    record_result(result)

    rows = {(row["mode"], row["scenario"]): row for row in result.rows}
    modes = ("no-slo", "deadline", "deadline+hedge")
    scenarios = ("none", "flaky-uplink", "cloud-partition", "worker-crash")
    assert set(rows) == {(m, s) for m in modes for s in scenarios}

    # Exactly-once everywhere: every cell answered the full trace.
    served = result.metadata["num_requests"]
    assert all(row["served"] == served for row in rows.values())

    # Fault-free baselines never touch the SLO recovery machinery.
    for mode in modes:
        baseline = rows[(mode, "none")]
        assert baseline["retries"] == 0
        assert baseline["degraded_pct"] == 0.0
        assert baseline["expired_pct"] == 0.0
        assert baseline["hedges"] == 0
        assert baseline["hit_pct"] == 100.0

    # Without budgets nothing is ever flagged as exceeded.
    assert all(rows[("no-slo", s)]["expired_pct"] == 0.0 for s in scenarios)

    # Hedging strictly improves the in-window link-chaos tail at equal
    # answer count, and the wins are real (copies sent, races won, bytes
    # honestly charged).
    for scenario in ("flaky-uplink", "cloud-partition"):
        plain = rows[("deadline", scenario)]
        hedged = rows[("deadline+hedge", scenario)]
        assert hedged["chaos_p99_ms"] < plain["chaos_p99_ms"]
        assert hedged["hedges"] > 0
        assert hedged["hedge_wins"] > 0
        assert hedged["hedge_kb"] > 0.0

    # Deadline propagation caps the worker-crash blackout tail: expired
    # requests are retired early, protecting the not-yet-expired backlog.
    unbounded = rows[("no-slo", "worker-crash")]
    bounded = rows[("deadline", "worker-crash")]
    assert bounded["chaos_p99_ms"] < unbounded["chaos_p99_ms"]
    assert bounded["hit_pct"] > unbounded["hit_pct"]
    assert bounded["expired_pct"] > 0.0

    # The capped tail sits near the budget, far under the blackout length.
    slo_ms = 1e3 * result.metadata["slo_s"]
    assert bounded["p99_ms"] <= 1.5 * slo_ms

    assert result.metadata["cpu_count"] == available_cpu_count()
