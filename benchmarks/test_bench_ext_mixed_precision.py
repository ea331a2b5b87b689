"""Benchmark E9b — extension: mixed-precision cloud (paper Section VI)."""

from __future__ import annotations

from repro.experiments import run_mixed_precision


def test_bench_ext_mixed_precision(benchmark, scale, record_result):
    result = benchmark.pedantic(run_mixed_precision, args=(scale,), rounds=1, iterations=1)
    record_result(result)

    rows = {row["cloud_precision"]: row for row in result.rows}
    assert set(rows) == {"binary", "float"}
    for row in rows.values():
        assert 0.0 <= row["cloud_accuracy_pct"] <= 100.0
        # Kernel-side cross-check: "bitpacked" names the fp64 plan, so its
        # logits equal the fp64 ones, and the fp32 mode honors its
        # grid-pooled routing-agreement guarantee on both trained models.
        assert row["bitpacked_identical"] == "yes"
        assert row["fp32_routing_agreement"] >= 0.999
        # fp32 staged accuracy can only drift where routing disagrees.
        assert abs(row["fp32_overall_accuracy_pct"] - row["overall_accuracy_pct"]) <= 1.0
    # A floating-point cloud should not be (much) worse than a binary cloud —
    # it strictly generalises the binary hypothesis class.
    assert rows["float"]["cloud_accuracy_pct"] >= rows["binary"]["cloud_accuracy_pct"] - 15.0
