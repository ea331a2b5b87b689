"""``repro.experiments`` — one module per table/figure of the paper.

Each ``run_*`` function returns an
:class:`~repro.experiments.results.ExperimentResult` whose rows mirror the
paper's table/figure; ``EXPERIMENT_REGISTRY`` maps experiment ids to the
functions so the benchmark harness and ``examples/`` scripts can enumerate
them; it is derived from the one experiment table in
:mod:`~repro.experiments.cli`, which also builds the command line.
"""

from .aggregation_table import PAPER_TABLE1_ORDER, run_aggregation_table
from .chaos_serving import DEFAULT_SCENARIOS, run_chaos_serving
from .cli import EXPERIMENT_REGISTRY
from .cloud_offloading import DEFAULT_FILTER_SWEEP, run_cloud_offloading
from .communication_reduction import run_communication_reduction
from .compiled_forward import REFERENCE_BATCH_SIZE, run_compiled_forward
from .dataset_stats import run_dataset_stats
from .distributed_serving import (
    DEFAULT_BANDWIDTH_SCALES,
    DEFAULT_THRESHOLD_SWEEP,
    DEFAULT_WORKER_COUNTS,
    run_distributed_serving,
)
from .edge_hierarchy import run_edge_hierarchy
from .elastic_serving import DEFAULT_PEAK_WORKERS, run_elastic_serving
from .fault_tolerance import run_fault_tolerance, run_multi_device_failures
from .mixed_precision import run_mixed_precision
from .overload_study import (
    DEFAULT_LOAD_MULTIPLIERS,
    DEFAULT_POLICIES,
    queue_latency_bound_s,
    run_overload_study,
)
from .parallel_serving import DEFAULT_PARALLEL_WORKER_COUNTS, run_parallel_serving
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
from .serving_benchmark import DEFAULT_BATCH_SIZES, run_serving_throughput
from .slo_serving import DEFAULT_MODES, run_slo_serving, run_wallclock_slo_smoke
from .sweep_fastpath import DEFAULT_SWEEP_GRIDS, REFERENCE_GRID, run_sweep_fastpath
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
    "run_serving_throughput",
    "DEFAULT_BATCH_SIZES",
    "run_compiled_forward",
    "REFERENCE_BATCH_SIZE",
    "run_overload_study",
    "DEFAULT_LOAD_MULTIPLIERS",
    "DEFAULT_POLICIES",
    "queue_latency_bound_s",
    "run_distributed_serving",
    "DEFAULT_WORKER_COUNTS",
    "DEFAULT_BANDWIDTH_SCALES",
    "DEFAULT_THRESHOLD_SWEEP",
    "run_parallel_serving",
    "DEFAULT_PARALLEL_WORKER_COUNTS",
    "available_cpu_count",
    "run_elastic_serving",
    "DEFAULT_PEAK_WORKERS",
    "run_chaos_serving",
    "DEFAULT_SCENARIOS",
    "run_slo_serving",
    "run_wallclock_slo_smoke",
    "DEFAULT_MODES",
    "run_sweep_fastpath",
    "DEFAULT_SWEEP_GRIDS",
    "REFERENCE_GRID",
    "EXPERIMENT_REGISTRY",
]
