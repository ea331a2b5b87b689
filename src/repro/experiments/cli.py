"""Command-line entry point for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run table2_fig7_threshold_sweep --scale ci
    python -m repro.experiments run all --scale paper --output-dir results/
    python -m repro.experiments dist-bench --workers 1 --workers 4 --offered-x 2.0
    python -m repro.experiments slo-bench --wallclock-smoke
    python -m repro.experiments --help          # every ``*-bench`` command

Each experiment prints its table (the same rows the paper reports) and can
optionally write it to a text file.

The experiments are data: :data:`EXPERIMENTS` names each one's run
function and, where it has a ``*-bench`` command, that command's flags and
epilogue.  The parser, the dispatch and ``EXPERIMENT_REGISTRY`` (``list`` /
``run <id>``) are all built from that one table.
"""

from __future__ import annotations

import argparse
import inspect
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .aggregation_table import run_aggregation_table
from .chaos_serving import run_chaos_serving
from .cloud_offloading import run_cloud_offloading
from .communication_reduction import run_communication_reduction
from .dataset_stats import run_dataset_stats
from .distributed_serving import run_distributed_serving
from .edge_hierarchy import run_edge_hierarchy
from .elastic_serving import run_elastic_serving
from .fault_tolerance import run_fault_tolerance
from .flags import (
    CAPACITY,
    MAX_BATCH_SIZE,
    NUM_REQUESTS,
    OUTPUT_DIR,
    SCALE,
    SEED,
    THRESHOLD,
    WORKERS,
    Flag,
    fraction,
    positive_float,
    positive_int,
)
from .mixed_precision import run_mixed_precision
from .overload_study import run_overload_study
from .results import ExperimentResult
from .scaling_devices import run_scaling_devices
from .slo_serving import run_slo_serving, run_wallclock_slo_smoke
from .threshold_sweep import run_threshold_sweep
from .weight_ablation import run_weight_ablation

__all__ = ["Experiment", "EXPERIMENTS", "EXPERIMENT_REGISTRY", "build_parser", "main"]


# --------------------------------------------------------------------------- #
# Epilogues: what a ``*-bench`` command prints under its table, from the
# result's metadata ``m`` (the text table drops it).
def _dist_epilogue(m: dict) -> Iterator[str]:
    yield (
        f"plan-timing calibration: overhead {m['measured_plan_batch_overhead_ms']:.3f} ms, "
        f"per-sample {m['measured_plan_per_sample_ms']:.3f} ms ({m['service_calibration']} rows)"
    )


def _elastic_epilogue(m: dict) -> Iterator[str]:
    trajectory = m["elastic_trajectory"]
    yield f"elastic trajectory ({len(trajectory)} scale events): {trajectory}"


def _resilience_epilogue(m: dict) -> Iterator[str]:
    stats, breakers = m["resilience_stats"], m["breakers"]
    yield "resilience accounting: " + "; ".join(f"{cell}: {v}" for cell, v in stats.items())
    yield "breakers: " + "; ".join(f"{cell}: {v or '-'}" for cell, v in breakers.items())


# --------------------------------------------------------------------------- #
class Experiment:
    """One table/figure: its id and run function, plus — when it has a
    ``*-bench`` command — that command's help line, own flags and epilogue.

    Every bench command also takes :data:`SCALE` and :data:`THRESHOLD` first
    and :data:`OUTPUT_DIR` last; an entry's own flag of the same name
    replaces the shared one.
    """

    def __init__(
        self,
        id: str,
        run: Callable[..., ExperimentResult],
        command: Optional[str] = None,
        help: str = "",
        *flags: Flag,
        epilogue: Callable[[dict], Iterable[str]] = lambda m: (),
    ) -> None:
        self.id, self.run, self.command, self.help, self.epilogue = id, run, command, help, epilogue
        own = {flag.name: flag for flag in flags}
        head = [own.pop(shared.name, shared) for shared in (SCALE, THRESHOLD)]
        tail = own.pop(OUTPUT_DIR.name, OUTPUT_DIR)
        self.flags: Tuple[Flag, ...] = (*head, *own.values(), tail)


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("fig6_dataset_stats", run_dataset_stats),
    Experiment("table1_aggregation", run_aggregation_table),
    Experiment("table2_fig7_threshold_sweep", run_threshold_sweep),
    Experiment("fig8_scaling_devices", run_scaling_devices),
    Experiment("fig9_cloud_offloading", run_cloud_offloading),
    Experiment("fig10_fault_tolerance", run_fault_tolerance),
    Experiment("sec4h_communication_reduction", run_communication_reduction),
    Experiment("ablation_exit_weights", run_weight_ablation),
    Experiment("ext_edge_hierarchy", run_edge_hierarchy),
    Experiment("ext_mixed_precision", run_mixed_precision),
    Experiment(
        "overload_tail_latency",
        run_overload_study,
        "load-bench",
        "open-loop overload study: tail latency vs offered load per admission policy",
        CAPACITY.but("request-queue bound used by the admission policies"),
        MAX_BATCH_SIZE.but("micro-batch ceiling of the serving policy"),
        NUM_REQUESTS.but("arrivals per run (the divergence sweep uses n/2, n and 2n)"),
        Flag.repeatable(
            "--offered-x",
            "load_multipliers",
            "offered load as a multiple of capacity (repeatable; default: 0.5 1.0 2.0 4.0)",
            type=positive_float,
        ),
        Flag.repeatable(
            "--policy",
            "policies",
            "admission policy to study (repeatable; default: all four)",
            choices=("unbounded", "reject", "drop-oldest", "shed-local"),
        ),
        SEED.but("base seed for the arrival processes"),
    ),
    Experiment(
        "distributed_serving",
        run_distributed_serving,
        "dist-bench",
        "distributed serving fabric: p95 latency / offload fraction vs workers, bandwidth, threshold",
        THRESHOLD.but("base local-exit entropy threshold used by the cascade"),
        WORKERS.but("workers per tier to measure (repeatable; default: 1, 2 and 4)"),
        Flag.repeatable(
            "--bandwidth-x",
            "bandwidth_scales",
            "link-bandwidth scale factors to measure (repeatable; default: 0.5 and 0.25)",
            type=positive_float,
        ),
        Flag.repeatable(
            "--sweep-threshold",
            "threshold_sweep",
            "extra exit thresholds to measure (repeatable; default: 0.5 and 0.95)",
            type=fraction,
        ),
        Flag(
            "--offered-x",
            "offered load as a multiple of one device-tier worker's capacity",
            type=positive_float,
        ),
        NUM_REQUESTS.but("open-loop arrivals per row"),
        MAX_BATCH_SIZE,
        SEED.but("base seed for the arrival processes"),
        Flag(
            "--backend",
            "worker-pool backend: deterministic simulated slots (default) or "
            "real thread-pool workers on wall-clock time",
            choices=("simulated", "thread"),
        ),
        Flag.switch(
            "--calibrate",
            "use plan-timing-calibrated service models in the rows (machine-dependent)",
        ),
        epilogue=_dist_epilogue,
    ),
    Experiment(
        "elastic_serving",
        run_elastic_serving,
        "elastic-bench",
        "elastic tier plane: static-vs-elastic diurnal tails + mid-run repartition identity",
        Flag(
            "--peak-workers",
            "peak worker budget per tier (static-peak count, elastic max)",
            type=positive_int,
        ),
        NUM_REQUESTS.but("diurnal arrivals per configuration"),
        MAX_BATCH_SIZE,
        CAPACITY.but("ingress queue bound used by the shed-local admission policy"),
        SEED.but("seed for the diurnal arrival process"),
        epilogue=_elastic_epilogue,
    ),
    Experiment(
        "chaos_serving",
        run_chaos_serving,
        "chaos-bench",
        "runtime fault plane: one trace under link flaps / partition / worker crashes",
        NUM_REQUESTS.but("Poisson arrivals served under every chaos scenario"),
        MAX_BATCH_SIZE,
        SEED,
        epilogue=_resilience_epilogue,
    ),
    Experiment(
        "slo_serving",
        run_slo_serving,
        "slo-bench",
        "end-to-end SLO plane: deadlines + hedged offloads vs the chaos scenarios",
        NUM_REQUESTS.but("Poisson arrivals served under every (mode, scenario) cell"),
        MAX_BATCH_SIZE,
        SEED,
        Flag.switch(
            "--wallclock-smoke",
            "instead of the simulated table, run the thread-backend chaos + "
            "deadline smoke against a real wall clock",
            passed=False,
        ),
        epilogue=_resilience_epilogue,
    ),
)

#: Experiment id -> callable producing its ExperimentResult (``list`` / ``run``).
EXPERIMENT_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    experiment.id: experiment.run for experiment in EXPERIMENTS
}

_RUN_FLAGS = (
    Flag("experiment", "experiment id from 'list', or 'all'"),
    SCALE.but("experiment scale: 'ci' (fast, default) or 'paper' (680/171 samples, 100 epochs)"),
    OUTPUT_DIR.but("directory to write each experiment's table as <name>.txt"),
)


def _add_flags(parser, flags: Sequence[Flag], run: Optional[Callable] = None, **names) -> None:
    parameters = inspect.signature(run).parameters if run is not None else {}
    for flag in flags:
        options = dict(flag.options)
        if flag.name.startswith("--") and not {"action", "default"} & options.keys():
            # One copy of each default: the run function's signature.
            options["default"] = parameters[flag.kwarg].default
        parser.add_argument(flag.name, help=flag.help.format(**names), **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the DDNN paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    _add_flags(subparsers.add_parser("run", help="run one experiment (or 'all')"), _RUN_FLAGS)
    for experiment in EXPERIMENTS:
        if experiment.command is not None:
            _add_flags(
                subparsers.add_parser(experiment.command, help=experiment.help),
                experiment.flags,
                experiment.run,
                id=experiment.id,
            )
    return parser


def _emit(result: ExperimentResult, output_dir: Optional[Path]) -> None:
    text = result.to_text()
    print(text)
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        (output_dir / f"{result.name}.txt").write_text(text + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        print("\n".join(EXPERIMENT_REGISTRY))
        return 0

    if args.command == "run":
        if args.experiment != "all" and args.experiment not in EXPERIMENT_REGISTRY:
            parser.error(
                f"unknown experiment '{args.experiment}'; run 'list' to see the available ids"
            )
        names = list(EXPERIMENT_REGISTRY) if args.experiment == "all" else [args.experiment]
        for name in names:
            _emit(EXPERIMENT_REGISTRY[name](SCALE.convert(args.scale)), args.output_dir)
            print()
        return 0

    if args.command == "slo-bench" and args.wallclock_smoke:
        facts = run_wallclock_slo_smoke(
            SCALE.convert(args.scale), threshold=args.threshold, seed=args.seed
        )
        print(
            "wall-clock slo smoke (thread backend): "
            + ", ".join(f"{key}={value}" for key, value in sorted(facts.items()))
        )
        return 0

    # Every other command: flags -> run-function keywords -> table -> epilogue.
    # An unset repeatable flag parses to None and is left to the run
    # function's own default.
    experiment = next(e for e in EXPERIMENTS if e.command == args.command)
    kwargs = {
        flag.kwarg: flag.convert(value) if flag.convert else value
        for flag in experiment.flags
        if flag.passed and (value := getattr(args, flag.dest)) is not None
    }
    result = experiment.run(**kwargs)
    _emit(result, args.output_dir)
    for line in experiment.epilogue(result.metadata):
        print(line)
    return 0

