"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``.

Not part of tier-1 (``pyproject.toml`` collects ``tests`` and ``benchmarks``
only): the quick run below spawns ten subprocesses.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import check, compare  # noqa: E402
from bench.trace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# the quick run: every workload, every metric
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def quick_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", "--seconds", "0.2", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())["records"], done.stdout


def test_quick_run_reports_every_metric_on_every_workload(quick_records):
    records, stdout = quick_records
    rows = {(r["workload"], r["metric"]): r for r in records}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    expected.update({m["name"]: m["unit"] for m in compare.LOCAL_METRICS})
    end_to_end = [m["name"] for m in SPEC["end_to_end"]] + ["latency_p50_ms"]
    assert len(end_to_end) == 10 and len(SPEC["per_layer"]) < 128
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for name, unit in expected.items():
            if not compare.reported(name, workload):
                assert (workload, name) not in rows  # no filler under a real name
                continue
            record = rows[(workload, name)]
            assert record["unit"] == unit
            assert math.isfinite(record["median"]), (workload, name)
            assert record["q1"] <= record["median"] <= record["q3"]
            assert record["k"] >= 1
            assert f"{name} " in stdout  # printed by name
            if name in end_to_end:
                assert record["median"] > 0.0, (workload, name)
        assert rows[(workload, "failed_fraction")]["median"] == 0.0
    for key in ("git_sha", "cpu_count", "numpy", "python", "blas_threads", "seed", "scale"):
        assert key in records[0]
    assert records[0]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_quick_run_layer_metrics_reconcile(quick_records):
    records, _ = quick_records
    rows = {(r["workload"], r["metric"]): r["median"] for r in records}
    for workload in ("serve-sim-steady", "serve-sim-chaos"):
        requests = rows[(workload, "serving.loadgen.arrivals")]
        # Bytes the links carried == bytes charged per request, exactly.
        assert rows[(workload, "hierarchy.network.bytes")] == pytest.approx(
            rows[(workload, "comm_bytes_per_req")] * requests, rel=1e-12
        )
        assert rows[(workload, "serving.fabric.responses")] == requests
        assert rows[(workload, "trace.accounted_ratio")] >= 0.9
    assert rows[("serve-sim-chaos", "serving.balancer.assignments.r0")] > 0
    assert rows[("serve-sim-steady", "serving.resilience.hedges")] == 0
    assert rows[("serve-thread-wallclock", "serving.workers.handoff_ms_mean")] > 0.0
    assert rows[("serve-sim-steady", "serving.workers.handoff_ms_mean")] == 0.0
    assert rows[("train-fit", "compile.plan_forward_calls")] == 0  # no compile code
    assert rows[("train-fit", "nn.backward_s")] > 0.0
    assert rows[("offline-eval", "core.oracle.capture_s.bitpacked")] > 0.0
    assert (ROOT / "bench" / "out" / "trace-serve-sim-steady.json").exists()


def test_single_run_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "train-fit",
         "--seed", "3", "--seconds", "0.1", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    # The contract's line names every listed metric; cells train-fit does not
    # report carry the placeholder.
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())
    values = {name: v["value"] for name, v in result["metrics"].items()}
    assert values["goodput_pct"] == values["sim_latency_p95_ms"] == 1.0
    assert values["accuracy_pct"] > 1.0


# --------------------------------------------------------------------------- #
# check.py
# --------------------------------------------------------------------------- #
def _response(request_id, exit_index=0, prediction=1, **flags):
    fields = dict(
        request_id=request_id, prediction=prediction, exit_index=exit_index,
        exit_name=("local", "cloud")[exit_index], shed=False, degraded=False,
        relaxed=False, retries=0, hedged=False, deadline_exceeded=False,
        completion_time=0.1 * request_id, bytes_transferred=12.0,
    )
    fields.update(flags)
    return SimpleNamespace(**fields)


def _oracle(num_samples=4):
    # Exit 0 predicts class 1, exit 1 predicts class 2; odd samples go to the cloud.
    oracle = SimpleNamespace(
        predictions=np.stack([np.ones(num_samples, int), np.full(num_samples, 2)])
    )
    routed = SimpleNamespace(exit_indices=np.arange(num_samples) % 2)
    return oracle, routed


def _good_responses(num=4):
    return [_response(i, exit_index=i % 2, prediction=1 + i % 2) for i in range(num)]


def test_check_accepts_a_clean_trial():
    oracle, routed = _oracle()
    responses = _good_responses()
    assert check.check_exactly_once(range(4), responses).ok
    assert check.check_against_oracle(responses, list(range(4)), oracle, routed).ok
    assert check.check_replay(range(4), check.accounting(responses), check.accounting(responses)).ok
    assert check.check_bytes_reconcile(range(4), responses, 48.0).ok
    assert check.check_conservation(
        range(4), {"accepted": 3, "rejected": 0, "shed": 1}, {"expired_compute": 0}
    ).ok


def test_check_rejects_duplicate_dropped_and_misrouted():
    oracle, routed = _oracle()
    duplicate = _good_responses() + [_response(2, exit_index=0, prediction=1)]
    assert check.check_exactly_once(range(4), duplicate).failed == {2}
    dropped = _good_responses()[:-1]
    assert check.check_exactly_once(range(4), dropped).failed == {3}
    misrouted = _good_responses()
    misrouted[1] = _response(1, exit_index=0, prediction=1)  # oracle sends it to the cloud
    assert check.check_against_oracle(misrouted, list(range(4)), oracle, routed).failed == {1}
    # ... unless a policy touched it: a degraded answer may leave early.
    misrouted[1] = _response(1, exit_index=0, prediction=1, degraded=True)
    assert check.check_against_oracle(misrouted, list(range(4)), oracle, routed).ok
    wrong = _good_responses()
    wrong[0] = _response(0, exit_index=0, prediction=2)
    assert check.check_against_oracle(wrong, list(range(4)), oracle, routed).failed == {0}


def test_check_rejects_broken_invariants():
    responses = _good_responses()
    moved = copy.deepcopy(responses)
    moved[3].completion_time += 1e-9
    assert not check.check_replay(range(4), check.accounting(responses), check.accounting(moved)).ok
    assert not check.check_bytes_reconcile(range(4), responses, 60.0).ok
    assert not check.check_conservation(
        range(4), {"accepted": 3, "rejected": 0, "shed": 0}, {"expired_compute": 0}
    ).ok
    assert not check.check_conservation(
        range(4), {"accepted": 4, "rejected": 0, "shed": 0}, {"expired_compute": 1}
    ).ok
    assert not check.check_same_routing(responses, list(reversed(_good_responses(3))), "x").ok
    assert check.check_training(range(8), [2.0, 1.5], {"local": 0.6}, 0.34).ok
    assert not check.check_training(range(8), [2.0, 2.1], {"local": 0.6}, 0.34).ok
    assert not check.check_training(range(8), [2.0, 1.5], {"local": 0.2}, 0.34).ok


# --------------------------------------------------------------------------- #
# compare.py
# --------------------------------------------------------------------------- #
def _result_file(path, seed=0, **medians):
    """A result file with every reported cell at 10.0, or at ``medians[metric]``."""
    records = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for metric in SPEC["end_to_end"] + list(compare.LOCAL_METRICS):
            if compare.reported(metric["name"], workload):
                value = medians.get(metric["name"], 0.0 if metric["name"] == "failed_fraction" else 10.0)
                records.append(dict(workload=workload, metric=metric["name"], unit=metric["unit"],
                                    median=value, q1=value, q3=value, k=7, seed=seed,
                                    replayed=metric["unit"] in ("%", "bytes", "sim_ms")))
    path.write_text(json.dumps({"records": records}))
    return str(path)


def _verdicts(a, b, metric):
    return {row[2] for row in compare.compare(a, b, SPEC) if row[1] == metric}


def test_bounds_are_the_issues():
    bounds = compare.BOUNDS
    assert bounds["setup_s"] == 0.25
    for name in ("throughput_ops_s", "cpu_ms_per_op", "peak_rss_mb", "latency_p50_ms"):
        assert bounds[name] == 0.10
    assert bounds["sim_latency_p95_ms"] == bounds["comm_bytes_per_req"] == 0.01
    assert compare.POINT_BOUND == 0.5
    # The driver's bounds are never tighter than the ones compare.py judges by.
    for metric in SPEC["end_to_end"]:
        if metric["unit"] != "%":
            assert metric["bound"] >= bounds[metric["name"]]


def test_compare_passes_identical_and_flags_a_15_percent_throughput_drop(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", throughput_ops_s=1000.0)
    same = _result_file(tmp_path / "b.json", throughput_ops_s=1000.0)
    slow = _result_file(tmp_path / "c.json", throughput_ops_s=850.0)
    wobble = _result_file(tmp_path / "d.json", throughput_ops_s=950.0)
    assert compare.main([base, same]) == 0
    assert compare.main([base, wobble]) == 0  # inside the bound
    assert compare.main([base, slow]) == 1
    assert "worse" in capsys.readouterr().out
    assert _verdicts(base, slow, "throughput_ops_s") == {"worse"}
    assert compare.main([slow, base]) == 0  # a gain is not a regression
    assert _verdicts(slow, base, "throughput_ops_s") == {"better"}
    # Within the bound, but one side's own quartiles are wider than it.
    noisy = json.loads(Path(same).read_text())
    for record in noisy["records"]:
        if record["metric"] == "throughput_ops_s":
            record.update(q1=940.0, q3=1060.0)
    Path(same).write_text(json.dumps(noisy))
    assert _verdicts(base, same, "throughput_ops_s") == {"unresolved"}


def test_compare_judges_replayed_metrics_by_their_tight_bounds(tmp_path):
    base = _result_file(tmp_path / "a.json", accuracy_pct=86.25, sim_latency_p95_ms=73.5)
    # Percentages are judged in points, not as a share of the median.
    assert _verdicts(base, _result_file(tmp_path / "b.json", accuracy_pct=85.65), "accuracy_pct") == {"worse"}
    assert _verdicts(base, _result_file(tmp_path / "c.json", accuracy_pct=85.85), "accuracy_pct") == {"changed"}
    assert _verdicts(base, _result_file(tmp_path / "d.json", accuracy_pct=85.85, seed=1), "accuracy_pct") == {"same"}
    # The simulated tail is held to 1%.
    assert _verdicts(base, _result_file(tmp_path / "e.json", sim_latency_p95_ms=75.0), "sim_latency_p95_ms") == {"worse"}
    assert compare.main([base, str(tmp_path / "e.json")]) == 1
    # A zero baseline: any move counts.
    zero = _result_file(tmp_path / "f.json", comm_bytes_per_req=0.0)
    assert _verdicts(zero, _result_file(tmp_path / "g.json", comm_bytes_per_req=1e-9), "comm_bytes_per_req") == {"worse"}
    assert _verdicts(zero, zero, "comm_bytes_per_req") == {"same"}


def test_compare_treats_new_failures_and_missing_rows_as_regressions(tmp_path):
    base = _result_file(tmp_path / "a.json")
    broken = json.loads(Path(base).read_text())
    for record in broken["records"]:
        if record["metric"] == "failed_fraction" and record["workload"] == "train-fit":
            record["median"] = 0.001
    (tmp_path / "b.json").write_text(json.dumps(broken))
    assert compare.main([base, str(tmp_path / "b.json")]) == 1
    # A workload that crashed leaves no records behind.
    crashed = json.loads(Path(base).read_text())
    crashed["records"] = [r for r in crashed["records"] if r["workload"] != "serve-sim-chaos"]
    (tmp_path / "c.json").write_text(json.dumps(crashed))
    assert _verdicts(base, tmp_path / "c.json", "throughput_ops_s") == {"same", "missing"}
    assert compare.main([base, str(tmp_path / "c.json")]) == 1
    # ... but two files of one workload compare on that workload alone.
    assert compare.main([str(tmp_path / "c.json"), str(tmp_path / "c.json")]) == 0


# --------------------------------------------------------------------------- #
# trace.py
# --------------------------------------------------------------------------- #
def test_tracer_self_time_excludes_children_and_restores_patches():
    from repro.serving.clock import EventLoop

    original = EventLoop.schedule
    tracer = Tracer()
    tracer.keep_spans = True
    tracer.install()
    try:
        assert EventLoop.schedule is not original
        with tracer.span("outer"):
            time.sleep(0.01)
            with tracer.span("inner"):
                time.sleep(0.02)
            loop = EventLoop()
            loop.schedule(0.0, lambda now: None)
            assert loop.run() == 1
    finally:
        tracer.remove()
    assert EventLoop.schedule is original
    totals = tracer.snapshot()
    assert totals["inner"]["total_s"] >= 0.02
    assert totals["outer"]["total_s"] >= 0.03
    children = totals["inner"]["total_s"] + totals["serving.fabric.loop"]["total_s"]
    children += totals["serving.clock.schedule"]["total_s"]
    assert totals["outer"]["self_s"] == pytest.approx(totals["outer"]["total_s"] - children)
    assert totals["serving.clock.events_fired"]["value"] == 1
    parents = {span[0]: span[3] for span in tracer.spans()}
    assert parents["inner"] == "outer" and parents["outer"] is None
    assert tracer.snapshot() == {}  # snapshots reset
