"""Benchmark S5 — the elastic tier plane under a diurnal load ramp.

Regenerates the elastic-serving table: static-min / static-peak / elastic
provisioning against an identical sinusoidal arrival stream, plus the
mid-run repartition study.  The experiment itself raises when the elastic
p95 exceeds the equal-peak-budget static p95 or when post-handoff routing
diverges from a freshly-built fabric at the new boundary, so a recorded
table is already evidence; the assertions below re-state the acceptance
bars explicitly on the rows.

Everything runs on the simulated backend, so the rows are deterministic on
any machine (cpu_count is recorded for parity with the wall-clock studies,
not because the numbers depend on it).
"""

from __future__ import annotations

from repro.experiments.elastic_serving import run_elastic_serving
from repro.experiments.runner import available_cpu_count


def test_bench_elastic_serving(benchmark, scale, record_result):
    result = benchmark.pedantic(
        run_elastic_serving, args=(scale,), rounds=1, iterations=1
    )
    record_result(result)

    diurnal = {row["config"]: row for row in result.rows if row["sweep"] == "diurnal"}
    assert set(diurnal) == {"static-min", "static-peak", "elastic"}

    # The under-provisioned static config must visibly suffer at the crest
    # (that is the regime elasticity exists for) ...
    assert diurnal["static-min"]["p95_ms"] > diurnal["static-peak"]["p95_ms"]
    # ... and the elastic config must match the fully-provisioned tail:
    # elastic p95 <= static p95 at equal peak worker budget.
    assert diurnal["elastic"]["p95_ms"] <= diurnal["static-peak"]["p95_ms"]
    # The autoscaler actually moved: it reached the peak budget and scaled
    # in both directions over the cycle.
    assert diurnal["elastic"]["peak_workers"] == result.metadata["peak_worker_budget"]
    assert result.metadata["elastic_trajectory"], "expected scale events"

    # Repartition row: queued requests crossed the boundary move with exact
    # accounting and byte-identical post-handoff routing (the run raises
    # otherwise, so the detail string is a faithful record).
    repartition = [row for row in result.rows if row["sweep"] == "repartition"]
    assert len(repartition) == 1
    detail = repartition[0]["detail"]
    assert "match=yes" in detail
    assert "dropped=0" in detail
    assert "duplicated=0" in detail
    assert result.metadata["repartition"]["post_handoff_requests"] > 0

    assert result.metadata["cpu_count"] == available_cpu_count()
