"""Experiment E9a — three-tier device/edge/cloud configurations (paper Sec. V).

The paper's evaluation uses configuration (c) of Figure 2 (devices + cloud)
and notes that the system "can be generalized to a more elaborated structure
which includes an edge layer" ((d), (e), (f)).  This extension experiment
trains those topologies and reports every exit's accuracy plus the staged
(overall) accuracy, demonstrating vertical scaling across three tiers and
horizontal scaling across multiple edges.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.config import DDNNTopology
from .results import ExperimentResult
from .runner import ExperimentScale, capture_oracle, default_scale, get_dataset, get_trained_ddnn

__all__ = ["run_edge_hierarchy", "TOPOLOGIES"]

#: (figure label, topology name, number of edges) combinations evaluated.
TOPOLOGIES: Tuple[Tuple[str, str, int], ...] = (
    ("(c) devices + cloud", "devices_cloud", 0),
    ("(e) devices + edge + cloud", "devices_edge_cloud", 1),
    ("(f) devices + 2 edges + cloud", "devices_edges_cloud", 2),
)
THRESHOLDS = (0.8, 0.8)  #: Local and edge exit thresholds (two tiers use the first).


def run_edge_hierarchy(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Train DDNNs for device-edge-cloud topologies and compare exits."""
    scale = scale if scale is not None else default_scale()
    _, test_set = get_dataset(scale)

    result = ExperimentResult(
        name="ext_edge_hierarchy",
        paper_reference="Figure 2 (d)-(f) / Section V",
        columns=[
            "configuration",
            "local_accuracy_pct",
            "edge_accuracy_pct",
            "cloud_accuracy_pct",
            "overall_accuracy_pct",
            "local_exit_pct",
            "edge_exit_pct",
        ],
        metadata={"scale": scale.name, "thresholds": list(THRESHOLDS)},
    )
    for label, topology_name, num_edges in TOPOLOGIES:
        config = scale.ddnn_config(
            topology=DDNNTopology.from_name(topology_name, num_edges=max(num_edges, 1))
        )
        model, _ = get_trained_ddnn(scale, config=config)
        oracle = capture_oracle(model, test_set)
        accuracies = oracle.exit_accuracies()
        exit_thresholds = list(THRESHOLDS[: model.num_exits - 1])
        staged = oracle.route(exit_thresholds)
        result.add_row(
            configuration=label,
            local_accuracy_pct=100.0 * accuracies.get("local", float("nan")),
            edge_accuracy_pct=100.0 * accuracies.get("edge", float("nan")),
            cloud_accuracy_pct=100.0 * accuracies.get("cloud", float("nan")),
            overall_accuracy_pct=100.0 * staged.accuracy(test_set.labels),
            local_exit_pct=100.0 * staged.local_exit_fraction,
            edge_exit_pct=100.0 * staged.exit_fraction("edge"),
        )
    return result
