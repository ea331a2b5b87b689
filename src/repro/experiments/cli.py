"""Command-line entry point for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run table2_fig7_threshold_sweep --scale ci
    python -m repro.experiments run all --scale paper --output-dir results/

Each experiment prints its table (the same rows the paper reports) and can
optionally write it to a text file.  ``list`` and ``run`` both read the one
table :data:`EXPERIMENT_REGISTRY`.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from .aggregation_table import run_aggregation_table
from .chaos_serving import run_chaos_serving
from .cloud_offloading import run_cloud_offloading
from .communication_reduction import run_communication_reduction
from .dataset_stats import run_dataset_stats
from .distributed_serving import run_distributed_serving
from .edge_hierarchy import run_edge_hierarchy
from .elastic_serving import run_elastic_serving
from .fault_tolerance import run_fault_tolerance
from .mixed_precision import run_mixed_precision
from .overload_study import run_overload_study
from .results import ExperimentResult
from .runner import ci_scale, paper_scale
from .scaling_devices import run_scaling_devices
from .slo_serving import run_slo_serving
from .threshold_sweep import run_threshold_sweep
from .weight_ablation import run_weight_ablation

__all__ = ["EXPERIMENT_REGISTRY", "build_parser", "main"]

#: Experiment id -> function producing its ExperimentResult from a scale.
EXPERIMENT_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "fig6_dataset_stats": run_dataset_stats,
    "table1_aggregation": run_aggregation_table,
    "table2_fig7_threshold_sweep": run_threshold_sweep,
    "fig8_scaling_devices": run_scaling_devices,
    "fig9_cloud_offloading": run_cloud_offloading,
    "fig10_fault_tolerance": run_fault_tolerance,
    "sec4h_communication_reduction": run_communication_reduction,
    "ablation_exit_weights": run_weight_ablation,
    "ext_edge_hierarchy": run_edge_hierarchy,
    "ext_mixed_precision": run_mixed_precision,
    "overload_tail_latency": run_overload_study,
    "distributed_serving": run_distributed_serving,
    "elastic_serving": run_elastic_serving,
    "chaos_serving": run_chaos_serving,
    "slo_serving": run_slo_serving,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the DDNN paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument(
        "--scale",
        choices=("ci", "paper"),
        default="ci",
        help="experiment scale: 'ci' (fast, default) or 'paper' (680/171 samples, 100 epochs)",
    )
    run.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="directory to write each experiment's table as <name>.txt",
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

    if args.experiment != "all" and args.experiment not in EXPERIMENT_REGISTRY:
        parser.error(f"unknown experiment '{args.experiment}'; run 'list' to see the available ids")
    names = list(EXPERIMENT_REGISTRY) if args.experiment == "all" else [args.experiment]
    scale = paper_scale() if args.scale == "paper" else ci_scale()
    for name in names:
        _emit(EXPERIMENT_REGISTRY[name](scale), args.output_dir)
        print()
    return 0
