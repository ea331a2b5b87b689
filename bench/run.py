#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name with its unit.

    python bench/run.py [--seed N] [--workload NAME] [--quick] [--out FILE]

runs each workload in a fresh subprocess, first with tracing off (the
end-to-end metrics) and then once traced (the per-layer metrics), checks
the outputs, prints every metric and exits non-zero if a check failed.

One such subprocess is the benchmark contract's single run:

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It prints the metrics and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Names, units and
bounds live in ``BENCHMARK.json`` at the root of the checkout and nowhere
else.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups timed per run (their median is ``setup_s``).
SETUPS = 3
#: Fewest timed trials a run reports on, however slow the machine; one
#: untimed warm-up trial runs before them.
MIN_TRIALS = 5
#: Untraced trials a traced run times first: the base of ``trace.overhead_ratio``.
REFERENCE_TRIALS = 2
#: Memory touched and released before anything is timed; above every
#: workload's peak RSS (~650 MB).
PREFAULT_MB = 768
#: glibc ``mallopt(M_MMAP_THRESHOLD, 1 MiB)``: blocks of 1 MiB and more are
#: mapped and given back on ``free``, from the first allocation to the last.
#: Left alone, glibc raises the threshold each time such a block is freed and
#: the heap then keeps every one of them, so ``peak_rss_mb`` records allocation
#: history rather than footprint: on ``serve-thread-wallclock`` it climbed from
#: 400 to 480-540 MB over seven trials, by another amount in every process
#: (quartile spread 13% over ten runs; 4-8% pinned).  The price is the page
#: faults of mapping large arrays afresh: 3-10% of throughput, the same on every
#: commit.  Pinning the threshold high instead (no faults) left the thread
#: workload's peak RSS at 13%.
MALLOPT = (-3, 1 << 20)  # (M_MMAP_THRESHOLD, bytes)
#: What the result line carries in a cell the benchmark does not report
#: (see :func:`result_line`).
NOT_REPORTED = 1.0

#: Per-layer metrics that are not "<span>_s" / "<span>_calls": (span, field).
SPAN_FIELDS = {
    "serving.fabric.self_s": ("serving.fabric.loop", "self_s"),
    "serving.clock.events_scheduled": ("serving.clock.schedule", "calls"),
    "serving.clock.events_cancelled": ("serving.clock.cancel", "calls"),
    "serving.clock.events_fired": ("serving.clock.events_fired", "value"),
    "hierarchy.faults.delivery_checks": ("hierarchy.faults.delivery", "calls"),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def summarize(values) -> dict:
    """Median with quartiles and sample count, as every record carries them."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "k": len(values)}


def environment(seed: int, scale: str) -> dict:
    """What every record carries so two result files can be told apart."""
    import numpy

    sha = ""
    if (ROOT / ".git").exists():  # never look for a repository above the checkout
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha or "unknown",
        "cpu_count": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
        "scale": scale,
    }


# --------------------------------------------------------------------------- #
# one run of one workload (the contract's unit)
# --------------------------------------------------------------------------- #
def prefault(megabytes: int) -> None:
    """Touch a block of memory once, in a child process, and give it back.

    In a micro-VM the first touch of a guest page the host has never backed
    costs ~20x a normal page fault (measured here: 2.6 s for the first
    512 MB, 0.12 s once backed).  Which allocations hit such pages depends on
    what ran on the machine before, and it moved ``setup_s`` by 40% and whole
    trials by 10-40% between otherwise identical runs.  Paying that cost here,
    outside every timed region, leaves backed pages on the kernel's free
    lists for the workload to reuse; a child pays it so that this process's
    ``peak_rss_mb`` stays the workload's own.
    """
    touch = f"import numpy; numpy.empty({megabytes} * 131072).fill(0.0)"
    subprocess.run([sys.executable, "-c", touch])  # best effort: it only steadies timings


def span_value(name: str, snapshots) -> float:
    """Median over ``snapshots`` of the span total a per-layer name stands for."""
    if name in SPAN_FIELDS:
        span, key = SPAN_FIELDS[name]
    elif name.endswith("_calls"):
        span, key = name[: -len("_calls")], "calls"
    elif "_s." in name:  # e.g. core.oracle.capture_s.float64
        span, key = name.replace("_s.", "."), "total_s"
    elif name.endswith("_s"):
        span, key = name[: -len("_s")], "total_s"
    else:
        return 0.0
    values = [snapshot[span][key] for snapshot in snapshots if span in snapshot]
    return statistics.median(values) if values else 0.0


def layer_metrics(names, workload, reference, traced, setup_snapshots, micro, span_count) -> dict:
    """Every per-layer metric by name, from one traced run.

    ``traced`` is ``[(Trial, snapshot), ...]``.  Time and count metrics are
    medians over the traced trials (or over the set-ups for spans that only
    occur there); a layer the workload never enters reads 0.
    """
    trials = [trial for trial, _ in traced]
    snapshots = [snapshot for _, snapshot in traced]
    ops = trials[0].ops
    untraced_wall = statistics.median(t.wall_s for t in reference)

    def per_trial(function):
        return statistics.median(function(snapshot) for snapshot in snapshots)

    derived = {
        "trace.spans": span_count,
        "trace.overhead_ratio": statistics.median(t.wall_s for t in trials) / untraced_wall,
        # Share of the timed region covered by spans below the trial root.
        "trace.accounted_ratio": per_trial(
            lambda s: 1.0 - s["trial"]["self_s"] / s["trial"]["total_s"]
        ),
        "serving.workers.handoff_ms_mean": per_trial(
            lambda s: 1e3
            * s.get("serving.workers.handoff_s", {"value": 0.0})["value"]
            / max(1, s.get("serving.workers.execute", {"calls": 0})["calls"])
        ),
    }
    if workload.op == "request":
        derived["serving.fabric.rps_over_raw"] = (ops / untraced_wall) / micro[
            "compile.raw_rps.float64.b8"
        ]
        derived["serving.clock.events_per_request"] = (
            span_value("serving.clock.events_fired", snapshots) / ops
        )
    values = {}
    for name in names:
        if name in micro:
            values[name] = micro[name]
        elif name in derived:
            values[name] = derived[name]
        elif any(name in trial.layers for trial in trials):
            values[name] = statistics.median(trial.layers.get(name, 0.0) for trial in trials)
        else:
            values[name] = span_value(name, snapshots) or span_value(name, setup_snapshots)
    return values


def run_one(args) -> int:
    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = "1"
    try:
        ctypes.CDLL(None).mallopt(*MALLOPT)
    except (OSError, AttributeError):
        pass  # not glibc: peak_rss_mb is noisier, nothing else changes
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    # Import the benchmark as the package ``bench``: with this script's own
    # directory on the path, ``trace.py`` would shadow the standard library's.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    import resource

    from bench import workloads
    from bench.compare import LOCAL_METRICS, reported
    from bench.trace import NullTracer, Tracer

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    traced_run = bool(args.trace)
    sizes = workloads.QUICK if args.quick else workloads.FULL
    if not args.quick:
        prefault(PREFAULT_MB)
    started = time.perf_counter()
    micro = workloads.run_micro(sizes, args.seed) if traced_run else {}

    tracer = Tracer() if traced_run else NullTracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, tracer)
    setups, setup_snapshots = [], []
    tracer.install()
    try:
        for _ in range(1 if args.quick else SETUPS):
            begun = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - begun)
            if traced_run:
                setup_snapshots.append(tracer.snapshot())
    finally:
        tracer.remove()

    # The budget covers everything from process start except the set-ups,
    # so a traced run (micro phases, reference trials) is no longer than an
    # untraced one.
    deadline = started + sum(setups) + args.seconds

    at_least = 2 if args.quick else MIN_TRIALS

    def repeat(one_trial) -> list:
        """Run trials until the budget is used; one that would mostly
        overrun it is not started."""
        done, since = [], time.perf_counter()
        while len(done) < at_least or (
            time.perf_counter() + (time.perf_counter() - since) / len(done) / 2.0 < deadline
        ):
            done.append(one_trial(len(done)))
        return done

    # Untimed: the first full trial plans arenas for every batch shape the
    # timed ones will meet.  Its answers are checked like any other's.
    workload.tracer = NullTracer()
    warm_up = workload.trial()
    timed, traced = [], []
    if traced_run:
        timed = [workload.trial() for _ in range(REFERENCE_TRIALS)]
        workload.tracer = tracer

        def traced_trial(index: int):
            tracer.trial = index
            tracer.keep_spans = index == 0  # the first traced trial goes to the file
            trial = workload.trial()
            return trial, tracer.snapshot()

        tracer.install()
        try:
            traced = repeat(traced_trial)
        finally:
            tracer.remove()
    else:
        timed = repeat(lambda index: workload.trial())

    quality = workload.quality()
    trials = [warm_up] + timed + [trial for trial, _ in traced]
    attempted = sum(trial.ops for trial in trials)
    failed = sum(min(trial.ops, len(trial.verdict.failed)) for trial in trials)
    messages = [m for trial in trials for m in trial.verdict.messages]
    correct = failed == 0 and not messages
    for message in dict.fromkeys(messages):
        print(f"CHECK FAILED [{args.workload}]: {message}", file=sys.stderr)
    notes = [f"trial {index}: {note}" for index, trial in enumerate(trials) for note in trial.notes]
    for note in notes:
        print(f"NOTE [{args.workload}]: {note}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    if traced_run:
        names = [metric["name"] for metric in spec["per_layer"]]
        span_count = tracer.write_chrome(OUT_DIR / f"trace-{args.workload}.json")
        values = layer_metrics(
            names, workload, timed, traced, setup_snapshots, micro, span_count
        )
        samples = {name: [value] for name, value in values.items()}
        units = listed = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    else:
        samples = {
            "setup_s": setups,
            "throughput_ops_s": [t.ops / t.wall_s for t in timed],
            "cpu_ms_per_op": [1e3 * t.cpu_s / t.ops for t in timed],
            # The process's high-water mark: one value per run, whatever k is.
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        }
        if timed[0].latencies_ms:
            samples["latency_p50_ms"] = [statistics.median(t.latencies_ms) for t in timed]
        samples["failed_fraction"] = [failed / attempted]
        samples.update({name: [value] for name, value in quality.items()})
        # ``listed`` go on the result line; the run also records the local ones.
        listed = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        units = dict(listed, **{metric["name"]: metric["unit"] for metric in LOCAL_METRICS})
        cells = {name for name in units if reported(name, args.workload)}
        if set(samples) != cells:
            raise RuntimeError(f"{args.workload} produced {sorted(samples)}, not {sorted(cells)}")

    env = dict(environment(args.seed, sizes.name), workload=args.workload)
    records = [
        dict(
            env,
            metric=name,
            unit=units[name],
            **summarize(samples[name]),
            values=samples[name],
            # Depends on the inputs alone, not on this machine's clock.
            replayed=not traced_run and name in quality,
        )
        for name in samples
    ]
    detail = {
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "notes": notes,
        "records": records,
    }
    with open(OUT_DIR / f"run-{args.workload}-trace{int(traced_run)}.json", "w") as handle:
        json.dump(detail, handle, indent=1)

    for record in records:
        print(f"{args.workload:24s} {record['metric']:44s} {record['median']:.6g} {record['unit']}")
    medians = {record["metric"]: record["median"] for record in records}
    print(result_line(correct, attempted, failed, medians, listed))
    return 0 if correct else 1


def result_line(correct: bool, attempted: int, failed: int, medians: dict, units: dict) -> str:
    """The contract's last line of output: every listed metric, reported or not.

    The contract wants a non-zero value for every listed end-to-end metric
    from every workload, but some metrics exist on some workloads only
    (``compare.REPORTED_ON``).  A cell the benchmark does not report carries
    :data:`NOT_REPORTED` here and nowhere else: it is not printed, not
    recorded and not compared.
    """
    values = {name: medians.get(name, NOT_REPORTED) for name in units}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


# --------------------------------------------------------------------------- #
# the whole benchmark
# --------------------------------------------------------------------------- #
def run_all(args) -> int:
    spec = load_spec()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else (1 if args.quick else spec["run_seconds"])
    records, ok = [], True
    for name in names:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve())]
            command += ["--workload", name, "--seed", str(args.seed)]
            command += ["--seconds", str(seconds), "--trace", str(trace)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            print(*lines[:-1], sep="\n", flush=True)
            if not lines or not lines[-1].startswith("{"):
                print(f"{name} (trace {trace}) exited {done.returncode} without a result")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and done.returncode == 0 and result["correct"]
            with open(OUT_DIR / f"run-{name}-trace{trace}.json") as handle:
                detail = json.load(handle)
            records.extend(detail["records"])
    out = Path(args.out) if args.out else OUT_DIR / f"bench-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"records": records}, handle, indent=1)
    print(f"wrote {len(records)} records to {out}; " + ("all checks passed" if ok else "CHECKS FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="seconds one run measures for (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run ONE run of --workload, untraced (0) or traced (1), and print its result as JSON")
    parser.add_argument("--quick", action="store_true", help="tiny sizes: a smoke test, not a measurement")
    parser.add_argument("--out", help="where the full run writes its records (default bench/out/bench-seed<N>.json)")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_all(args)
    if args.workload is None or args.seconds is None:
        parser.error("--trace needs --workload and --seconds")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
