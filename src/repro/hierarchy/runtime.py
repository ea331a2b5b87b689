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
sample so the byte counts match the paper's Eq. 1, and the routing is
identical to :meth:`~repro.core.oracle.ExitOracle.route` on the monolithic
model (both equivalences are covered by tests).  The result is the oracle's
:class:`~repro.core.oracle.InferenceResult` with the per-sample path
latency and bytes filled in.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.cascade import Thresholds, build_exit_criteria, require_compiled
from ..core.oracle import InferenceResult
from ..datasets.mvmc import MVMCDataset, _int_at_least
from .faults import FaultPlan
from .partition import HierarchyDeployment
from .sections import build_tier_sections

__all__ = ["HierarchyRuntime"]


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
        compile: bool = True,
    ) -> None:
        require_compiled(compile)
        self.deployment = deployment
        self.model = deployment.model
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.fault_plan._check_nodes(len(deployment.devices))
        self.batch_size = _int_at_least(batch_size, "batch_size")
        #: Per-exit criteria (final threshold forced to 1.0).
        self.criteria = build_exit_criteria(thresholds, self.model.exit_names)

    # ------------------------------------------------------------------ #
    def run(self, dataset: MVMCDataset) -> InferenceResult:
        """Run distributed inference over every sample of ``dataset``."""
        from ..serving.batcher import BatchingPolicy
        from ..serving.fabric import DistributedServingFabric

        self.deployment.reset()
        self.model.eval()

        num_samples = len(dataset)
        fabric = DistributedServingFabric(
            self.deployment,
            [criterion.threshold for criterion in self.criteria],
            workers_per_tier=1,
            batching=BatchingPolicy(max_batch_size=self.batch_size, max_wait_s=0.0),
            sections=build_tier_sections(self.deployment, self.fault_plan),
        )
        responses = fabric.serve_dataset(dataset)

        predictions = np.zeros(num_samples, dtype=np.int64)
        exit_indices = np.zeros(num_samples, dtype=np.int64)
        entropies = np.zeros(num_samples, dtype=np.float64)
        latencies = np.zeros(num_samples, dtype=np.float64)
        bytes_per_sample = np.zeros(num_samples, dtype=np.float64)
        for index, response in enumerate(responses):
            predictions[index] = response.prediction
            exit_indices[index] = response.exit_index
            entropies[index] = response.entropy
            latencies[index] = response.path_latency_s
            bytes_per_sample[index] = response.bytes_transferred

        return InferenceResult(
            predictions=predictions,
            exit_indices=exit_indices,
            exit_names=list(self.model.exit_names),
            entropies=entropies,
            targets=dataset.labels,
            latencies_s=latencies,
            bytes_per_sample=bytes_per_sample,
        )
