"""Distributed inference runtime over the simulated hierarchy.

:class:`HierarchyRuntime` executes the staged DDNN inference procedure of the
paper's Section III-D over a :class:`~repro.hierarchy.partition.HierarchyDeployment`:

1. every end device runs its NN section and sends a class-score summary
   (``4 * |C|`` bytes) to the local aggregator;
2. the local aggregator fuses the summaries, computes the normalized entropy
   and exits confident samples;
3. unconfident samples trigger the devices to send their binarized feature
   maps to the next tier (edge if present, otherwise cloud), where further
   aggregation and NN processing happen, and so on until the cloud exit.

Since PR 4 the staged procedure itself lives in the shared tier machinery —
:mod:`repro.hierarchy.sections` decomposes the deployment into per-tier
sections and :class:`~repro.serving.fabric.DistributedServingFabric`
schedules them — and this runtime is the *offline replay* of that fabric:
the whole dataset arrives at time zero, one worker per tier drains it in
fixed-size batches, and per-sample latency is the path latency (compute +
transfer along the sample's route, no queueing), which reproduces the
original runtime's accounting exactly.  Communication is accounted per
sample so the byte counts match the paper's Eq. 1, and the predictions are
identical to :class:`~repro.core.inference.StagedInferenceEngine` running
the monolithic model (both equivalences are covered by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.cascade import ExitCascade, Thresholds
from ..core.exits import ExitCriterion
from ..datasets.mvmc import MVMCDataset
from .faults import FaultPlan
from .partition import HierarchyDeployment
from .sections import build_tier_sections
from .telemetry import Telemetry

__all__ = ["DistributedInferenceResult", "HierarchyRuntime"]


@dataclass
class DistributedInferenceResult:
    """Outcome of a distributed inference run over the simulator."""

    predictions: np.ndarray
    exit_names_per_sample: List[str]
    latencies_s: np.ndarray
    bytes_per_sample: np.ndarray
    telemetry: Telemetry
    targets: Optional[np.ndarray] = None

    @property
    def local_exit_fraction(self) -> float:
        if not self.exit_names_per_sample:
            return 0.0
        return self.exit_names_per_sample.count("local") / len(self.exit_names_per_sample)

    def exit_fraction(self, name: str) -> float:
        if not self.exit_names_per_sample:
            return 0.0
        return self.exit_names_per_sample.count(name) / len(self.exit_names_per_sample)

    def accuracy(self, targets: Optional[np.ndarray] = None) -> float:
        targets = self.targets if targets is None else np.asarray(targets)
        if targets is None:
            raise ValueError("targets are required to compute accuracy")
        return float(np.mean(self.predictions == targets))

    def mean_bytes_per_device(self, num_devices: int) -> float:
        """Average per-device transmission per sample (comparable to Eq. 1)."""
        return float(self.bytes_per_sample.mean() / num_devices)


class HierarchyRuntime:
    """Runs threshold-based DDNN inference over simulated nodes and links.

    This is the offline (infinite-arrival-rate) replay of the distributed
    serving fabric: same tier sections, same offload messages, same byte
    and latency accounting — just with the whole dataset enqueued at once.
    """

    def __init__(
        self,
        deployment: HierarchyDeployment,
        thresholds: Thresholds,
        fault_plan: Optional[FaultPlan] = None,
        batch_size: int = 64,
        compile: bool = False,
        precision: str = "float64",
    ) -> None:
        if precision != "float64" and not compile:
            raise ValueError(
                f"precision='{precision}' requires compile=True: the eager "
                "stack always computes in float64"
            )
        self.deployment = deployment
        self.model = deployment.model
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.batch_size = batch_size
        # The cascade supplies criteria/routing; the tier sections own the
        # forwards and take the compiled bundle (if any) as their default
        # plan, so the shared deployment is never mutated.
        self.cascade = ExitCascade.for_model(self.model, thresholds)
        self.compiled = None
        if compile:
            from ..compile.cache import compiled_plan_for

            self.compiled = compiled_plan_for(self.model, precision)

    @property
    def criteria(self) -> List[ExitCriterion]:
        """The cascade's per-exit criteria (final threshold forced to 1.0)."""
        return self.cascade.criteria

    # ------------------------------------------------------------------ #
    def run(self, dataset: MVMCDataset) -> DistributedInferenceResult:
        """Run distributed inference over every sample of ``dataset``."""
        from ..serving.batcher import BatchingPolicy
        from ..serving.fabric import DistributedServingFabric

        self.deployment.reset()
        # Fresh-run semantics: the fault plan's intermittent draws restart
        # from the seed, so replaying one runtime (or sharing one plan
        # across runtimes) sees the same failure realisation every run.
        self.fault_plan.reset()
        self._apply_permanent_faults()
        self.model.eval()

        num_samples = len(dataset)
        targets = dataset.labels
        fabric = DistributedServingFabric(
            self.deployment,
            self.cascade.thresholds,
            workers_per_tier=1,
            batching=BatchingPolicy(max_batch_size=self.batch_size, max_wait_s=0.0),
            sections=build_tier_sections(
                self.deployment, self.fault_plan, compiled=self.compiled
            ),
        )
        responses = fabric.serve_dataset(dataset)

        predictions = np.zeros(num_samples, dtype=np.int64)
        exit_names: List[str] = [""] * num_samples
        latencies = np.zeros(num_samples, dtype=np.float64)
        bytes_per_sample = np.zeros(num_samples, dtype=np.float64)
        entropies_seen = np.zeros(num_samples, dtype=np.float64)
        for index, response in enumerate(responses):
            predictions[index] = response.prediction
            exit_names[index] = response.exit_name
            latencies[index] = response.path_latency_s
            bytes_per_sample[index] = response.bytes_transferred
            entropies_seen[index] = response.entropy

        telemetry = Telemetry()
        telemetry.record_batch(
            sample_indices=np.arange(num_samples),
            predictions=predictions,
            exit_names=exit_names,
            latencies_s=latencies,
            bytes_transferred=bytes_per_sample,
            entropies=entropies_seen,
            correct=predictions == targets,
        )

        return DistributedInferenceResult(
            predictions=predictions,
            exit_names_per_sample=exit_names,
            latencies_s=latencies,
            bytes_per_sample=bytes_per_sample,
            telemetry=telemetry,
            targets=targets,
        )

    # ------------------------------------------------------------------ #
    def _apply_permanent_faults(self) -> None:
        for index, device in enumerate(self.deployment.devices):
            if self.fault_plan.device_is_down(index):
                device.fail()
        for index, edge in enumerate(self.deployment.edges):
            if self.fault_plan.edge_is_down(index):
                edge.fail()
