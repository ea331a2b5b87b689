"""``repro.experiments`` — one module per table/figure of the paper.

Each ``run_*`` function returns an
:class:`~repro.experiments.results.ExperimentResult` whose rows mirror the
paper's table/figure.  ``EXPERIMENT_REGISTRY`` maps experiment ids to the
functions, each called with the experiment scale alone; the command line
(:mod:`~repro.experiments.cli`: ``list`` and ``run <id>|all``) reads it.
"""

from .aggregation_table import PAPER_TABLE1_ORDER, run_aggregation_table
from .chaos_serving import run_chaos_serving
from .cli import EXPERIMENT_REGISTRY
from .cloud_offloading import DEFAULT_FILTER_SWEEP, run_cloud_offloading
from .communication_reduction import run_communication_reduction
from .dataset_stats import run_dataset_stats
from .distributed_serving import run_distributed_serving
from .edge_hierarchy import run_edge_hierarchy
from .elastic_serving import run_elastic_serving
from .fault_tolerance import run_fault_tolerance, run_multi_device_failures
from .mixed_precision import run_mixed_precision
from .overload_study import queue_latency_bound_s, run_overload_study
from .results import ExperimentResult, format_table
from .runner import (
    ExperimentScale,
    available_cpu_count,
    capture_oracle,
    ci_scale,
    clear_cache,
    default_scale,
    get_dataset,
    get_trained_ddnn,
    paper_scale,
    train_fresh_ddnn,
)
from .scaling_devices import compute_individual_accuracies, run_scaling_devices
from .slo_serving import run_slo_serving
from .threshold_sweep import PAPER_TABLE2_THRESHOLDS, run_threshold_sweep
from .weight_ablation import run_weight_ablation

__all__ = [
    "ExperimentResult",
    "format_table",
    "ExperimentScale",
    "ci_scale",
    "paper_scale",
    "default_scale",
    "get_dataset",
    "get_trained_ddnn",
    "train_fresh_ddnn",
    "capture_oracle",
    "clear_cache",
    "run_dataset_stats",
    "run_aggregation_table",
    "PAPER_TABLE1_ORDER",
    "run_threshold_sweep",
    "PAPER_TABLE2_THRESHOLDS",
    "run_scaling_devices",
    "compute_individual_accuracies",
    "run_cloud_offloading",
    "DEFAULT_FILTER_SWEEP",
    "run_fault_tolerance",
    "run_multi_device_failures",
    "run_communication_reduction",
    "run_weight_ablation",
    "run_edge_hierarchy",
    "run_mixed_precision",
    "run_overload_study",
    "queue_latency_bound_s",
    "run_distributed_serving",
    "available_cpu_count",
    "run_elastic_serving",
    "run_chaos_serving",
    "run_slo_serving",
    "EXPERIMENT_REGISTRY",
]
