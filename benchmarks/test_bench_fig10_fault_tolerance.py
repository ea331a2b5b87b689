"""Benchmark E6 — regenerate Figure 10 (fault tolerance under device failure)."""

from __future__ import annotations

import numpy as np

from repro.core import ExitOracle
from repro.experiments import (
    get_dataset,
    get_trained_ddnn,
    run_fault_tolerance,
    run_multi_device_failures,
)


def test_bench_fig10_fault_tolerance(benchmark, scale, record_result):
    result = benchmark.pedantic(run_fault_tolerance, args=(scale,), rounds=1, iterations=1)
    record_result(result)

    assert [row["failed_device"] for row in result.rows] == list(range(1, scale.num_devices + 1))

    overall = np.array(result.column("overall_accuracy_pct"))
    cloud = np.array(result.column("cloud_accuracy_pct"))

    # Baseline (no failure) accuracy of the same trained model.
    model, _ = get_trained_ddnn(scale)
    _, test_set = get_dataset(scale)
    healthy = ExitOracle.capture(model, test_set, compile=False).route(0.8)
    healthy_overall = 100.0 * healthy.accuracy()

    # Losing any single device keeps the system well above chance and within a
    # modest margin of the healthy system (the paper reports a <= 3% drop; we
    # allow a wider band at reduced training scale).
    assert (overall > 100.0 / 3.0).all()
    assert overall.min() >= healthy_overall - 25.0
    assert ((0 <= cloud) & (cloud <= 100)).all()


def test_bench_multi_device_failures(benchmark, scale, record_result):
    result = benchmark.pedantic(run_multi_device_failures, args=(scale,), rounds=1, iterations=1)
    record_result(result)
    overall = np.array(result.column("overall_accuracy_pct"))
    assert len(result.rows) == 4  # 0..3 failures
    # Degradation is graceful: accuracy never collapses to chance with up to
    # half of the devices lost.
    assert (overall[:3] > 100.0 / 3.0).all()
