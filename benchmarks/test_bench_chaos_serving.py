"""Benchmark S6 — the serving fabric under runtime fault injection.

Regenerates the chaos-serving table: one Poisson trace served under
none / flaky-uplink / cloud-partition / worker-crash, with offload
deadlines, retry backoff, circuit breaking and failover to local exits.
The experiment itself raises when any scenario drops or duplicates a
request, when the fault-free baseline degrades anything, when a
link-chaos p95 escapes the retry policy's worst-case recovery bound, or
when two fresh seeded runs disagree byte-for-byte — so a recorded table
is already evidence; the assertions below re-state the acceptance bars
explicitly on the rows.

Everything runs on the simulated backend, so the rows are deterministic
on any machine (cpu_count is recorded for parity with the wall-clock
studies, not because the numbers depend on it).
"""

from __future__ import annotations

from repro.experiments.chaos_serving import run_chaos_serving
from repro.experiments.runner import available_cpu_count


def test_bench_chaos_serving(benchmark, scale, record_result):
    result = benchmark.pedantic(run_chaos_serving, args=(scale,), rounds=1, iterations=1)
    record_result(result)

    rows = {row["scenario"]: row for row in result.rows}
    assert set(rows) == {"none", "flaky-uplink", "cloud-partition", "worker-crash"}

    # Zero dropped / duplicated: every scenario answered the full trace.
    served = result.metadata["num_requests"]
    assert all(row["served"] == served for row in rows.values())

    # The fault-free baseline never touches the recovery machinery.
    assert rows["none"]["degraded_pct"] == 0.0
    assert rows["none"]["retries"] == 0

    # The partition actually forces failovers to local exits, and the
    # flaky uplink actually exercises the retry ladder.
    assert rows["cloud-partition"]["degraded_pct"] > 0.0
    assert rows["cloud-partition"]["failovers"] > 0
    assert rows["flaky-uplink"]["retries"] > 0

    # Worker crashes darken compute, not links: latency bulges while the
    # backlog drains, but nothing degrades to a local exit.
    assert rows["worker-crash"]["degraded_pct"] == 0.0
    assert rows["worker-crash"]["p95_ms"] >= rows["none"]["p95_ms"]

    # Graceful degradation is bounded: every link-chaos p95 stays within
    # the no-chaos p95 plus the retry policy's worst-case recovery delay.
    bound_ms = 1e3 * (result.metadata["worst_case_recovery_s"]) + rows["none"]["p95_ms"]
    assert rows["flaky-uplink"]["p95_ms"] <= bound_ms + 50.0
    assert rows["cloud-partition"]["p95_ms"] <= bound_ms + 50.0

    assert result.metadata["cpu_count"] == available_cpu_count()
