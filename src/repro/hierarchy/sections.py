"""Per-tier sections of the exit cascade over a simulated deployment.

The staged DDNN forward decomposes by tier: end devices plus the local
aggregator produce the *local* exit, the optional edge nodes produce the
*edge* exit, and the cloud produces the final exit.  Historically this
decomposition lived inline in ``HierarchyRuntime._run_batch``; the serving
fabric needs the same stages as first-class objects it can schedule on
workers, so they live here as :class:`TierSection` subclasses shared by both
layers.

Each section does two things:

* :meth:`TierSection.process` — run the tier's NN sections on a batch,
  returning the tier's exit logits (if it has an exit), per-sample latency
  and byte accounting, and a batch-level *carry* (the feature maps an
  offload would forward);
* :meth:`TierSection.offload` — send the carried features for the
  not-confident rows up the hierarchy over the deployment's
  :class:`~repro.hierarchy.network.NetworkFabric` (one batched charge per
  sending node, accounted exactly as one message per row would be),
  returning per-row transfer delay/bytes and the per-row payloads the next
  tier will stack back into a batch.

The accounting reproduces the original runtime loop: summaries are sent
for every delivered sample, features only for offloaded samples from
delivered devices, per-sample compute latency comes from the node
ops models, and the per-device ``stats.bytes_sent`` counters match the
paper's Eq. 1 byte accounting (covered by the hierarchy tests).  One
decomposition note: the old loop charged offloaded samples
``max_e(transfer_e + compute_e)`` over the edge tier in one term, while
the split stages charge ``max(transfer)`` at the device offload and
``max(compute)`` at the edge — identical for the homogeneous edge tiers
:func:`~repro.hierarchy.partition.partition_ddnn` builds (every edge has
the same per-sample compute), and an upper bound if edges are hand-tuned
to heterogeneous speeds.

A tier forward runs one of two ways: eagerly through the nodes' own
``process`` methods, or through a :class:`~repro.compile.CompiledDDNN` plan
bundle — handed to ``process`` per call (``plans=...``: the fabric gives
every worker its own plan instances, so the compiled buffer arenas are
thread-safe by construction) or, failing that, the section's own
:attr:`TierSection.compiled` default (the ``HierarchyRuntime(compile=True)``
path).  The deployment's nodes are never mutated to select one.  Under a
bundle the device tier is *one* call: the bundle's grouped program computes
every device's branch on the device-major view of the batch, and failed
devices and dropped samples are masks on its output.  A section copies what
it keeps of a plan's output (the carry, the logits): plan outputs live only
until that plan's next forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn.tensor import Tensor, no_grad
from .faults import FaultPlan
from .partition import CLOUD_NAME, LOCAL_AGGREGATOR_NAME, HierarchyDeployment

__all__ = [
    "SectionResult",
    "TransferResult",
    "TierSection",
    "DeviceTierSection",
    "EdgeTierSection",
    "CloudTierSection",
    "build_tier_sections",
]

#: Per-row payload forwarded between tiers: one feature array per source node.
RowPayload = Tuple[np.ndarray, ...]


@dataclass
class SectionResult:
    """Outcome of running one tier's section on a batch of ``n`` rows."""

    logits: Optional[np.ndarray]  # exit logits (n, C); None when the tier has no exit
    carry: object  # batch-level state an offload would forward
    service_s: float  # wall-clock the tier's worker is occupied by this batch
    intake_s: np.ndarray  # per-row intra-tier transfer+wait latency (n,)
    compute_s: np.ndarray  # per-row compute latency contribution (n,)
    intake_bytes: np.ndarray  # per-row bytes sent inside the tier (n,)


@dataclass
class TransferResult:
    """Outcome of offloading a set of rows to the next tier."""

    payloads: List[RowPayload]  # one payload per offloaded row, in row order
    delay_s: np.ndarray  # per-offloaded-row transfer delay
    bytes: np.ndarray  # per-offloaded-row bytes put on the wire


class TierSection:
    """One tier of the cascade: compute stage plus upward offload stage."""

    #: Display name of the tier ("devices", "edge", "cloud").
    tier_name: str = "tier"
    #: Index into the cascade's exits, or None when the tier has no exit.
    exit_index: Optional[int] = None
    #: Exit name matching ``exit_index`` ("" when the tier has no exit).
    exit_name: str = ""
    #: Plan bundle :meth:`process` runs when called with ``plans=None``
    #: (``None`` = the eager node forwards).
    compiled = None

    def process(self, payload, plans=None) -> SectionResult:
        raise NotImplementedError

    def offload(self, carry, rows: np.ndarray) -> TransferResult:
        raise NotImplementedError

    def transfer_estimate_s(self) -> float:
        """Worst-case single-row offload transfer time under current topology.

        Unlike :meth:`offload`, this charges nothing — no bytes hit the
        wire.  The fabric's SLO plane uses it to decide *before* sending
        whether an offload can possibly land inside a request's remaining
        deadline budget (and to clip retry ladders); being a worst case it
        may answer locally a row that would have squeaked through, never
        the reverse.
        """
        raise NotImplementedError


class DeviceTierSection(TierSection):
    """End devices plus (optionally) the local aggregator and local exit.

    ``process`` consumes raw multi-view batches of shape ``(n, D, C, H, W)``;
    the carry holds the per-device binarized feature maps and the
    delivered mask (intermittent-fault bookkeeping).  ``offload`` sends each
    delivered device's feature map for every offloaded row to that device's
    uplink destination (its edge, or the cloud when no edge tier exists).
    """

    tier_name = "devices"

    def __init__(
        self,
        deployment: HierarchyDeployment,
        fault_plan: Optional[FaultPlan] = None,
        exit_index: Optional[int] = None,
    ) -> None:
        self.deployment = deployment
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.exit_index = exit_index
        self.exit_name = "local" if exit_index is not None else ""
        # Uplink destination per device: its edge when an edge tier exists,
        # the cloud otherwise (mirrors how partition_ddnn wires the fabric).
        self._uplink_destination = {}
        if deployment.edges:
            for edge in deployment.edges:
                for device_index in edge.device_indices:
                    self._uplink_destination[device_index] = edge.name
        else:
            for device_index in range(len(deployment.devices)):
                self._uplink_destination[device_index] = CLOUD_NAME

    def process(self, payload, plans=None) -> SectionResult:
        if plans is None:
            plans = self.compiled
        views = np.asarray(payload)
        deployment = self.deployment
        fabric = deployment.fabric
        devices = deployment.devices
        batch = len(views)

        delivered = self._draw_delivery(batch)
        everything_delivered = bool(delivered.all())
        device_features, device_scores, device_seconds = self._device_forwards(views, plans)
        if not everything_delivered:
            for device_index in range(len(devices)):
                lost = ~delivered[device_index]
                device_features[device_index][lost] = 0.0
                device_scores[device_index][lost] = 0.0
        device_latency = device_seconds / max(batch, 1)

        intake_s = np.zeros(batch)
        intake_bytes = np.zeros(batch)
        compute_s = np.zeros(batch)
        logits: Optional[np.ndarray] = None
        aggregate_seconds = 0.0

        if self.exit_index is not None:
            aggregator = deployment.local_aggregator
            for device_index, device in enumerate(devices):
                if device.failed:
                    continue
                # One charge per device for the samples it delivered (all of
                # them unless the fault plan dropped some: no mask then).
                mask = True if everything_delivered else delivered[device_index]
                count = batch if everything_delivered else int(np.count_nonzero(mask))
                if not count:
                    continue
                summary_size = device.summary_bytes()
                seconds = fabric.send_batch(
                    device.name, LOCAL_AGGREGATOR_NAME, summary_size, count
                )
                device.record_bytes_sent(summary_size * count)
                np.add(intake_bytes, summary_size, out=intake_bytes, where=mask)
                np.maximum(
                    intake_s, device_latency[device_index] + seconds, out=intake_s, where=mask
                )
            logits, aggregate_seconds = self._aggregate(aggregator, device_scores, plans)
            compute_s += aggregate_seconds / max(batch, 1)

        return SectionResult(
            logits=logits,
            carry=(device_features, delivered),
            service_s=float(device_seconds.max(initial=0.0)) + aggregate_seconds,
            intake_s=intake_s,
            compute_s=compute_s,
            intake_bytes=intake_bytes,
        )

    def _draw_delivery(self, batch: int) -> np.ndarray:
        """``(devices, batch)`` mask of samples each device delivers, drawn
        from the fault plan device by device, sample by sample."""
        delivered = np.ones((len(self.deployment.devices), batch), dtype=bool)
        if not self.fault_plan.is_empty():
            for device_index in range(len(delivered)):
                for sample in range(batch):
                    if not self.fault_plan.sample_delivery(device_index):
                        delivered[device_index, sample] = False
        return delivered

    def _device_forwards(self, views: np.ndarray, plans):
        """Every device's ``(features, scores)`` for a ``(n, D, C, H, W)``
        batch as per-device lists, plus per-device compute seconds.

        Eagerly that is each node's own ``process``; with a plan bundle the
        whole tier is one call of its grouped program on the device-major
        view of the batch, a failed device's rows are zeroed afterwards (it
        transmits nothing, see :meth:`EndDeviceNode.process`) and it
        accounts no compute.
        """
        devices = self.deployment.devices
        seconds = np.zeros(len(devices))
        if plans is None:
            features, scores, seconds[:] = zip(
                *(device.process(views[:, index]) for index, device in enumerate(devices))
            )
            return list(features), list(scores), seconds
        batch = len(views)
        # No dtype force: the plans cast to their own precision mode's dtype
        # (float64 plans see the historical bit-exact input).  One copy of
        # each output: they are views into buffers the group's next forward
        # reuses, and the carry must outlive it.
        features, scores = (
            out.copy() for out in plans.device_group(np.moveaxis(views, 1, 0))
        )
        for index, device in enumerate(devices):
            if device.failed:
                features[index] = 0.0
                scores[index] = 0.0
            else:
                seconds[index] = device._account(
                    device.operations_per_sample * batch, samples=batch
                )
        return list(features), list(scores), seconds

    def _aggregate(self, aggregator, device_scores, plans):
        if plans is not None and plans.local_aggregator is not None:
            arrays = [np.asarray(scores) for scores in device_scores]
            fused = plans.local_aggregator(arrays)
            operations = sum(array.size for array in arrays)
            seconds = aggregator._account(operations, samples=len(arrays[0]))
            return fused, seconds
        return aggregator.aggregate(device_scores)

    def offload(self, carry, rows: np.ndarray) -> TransferResult:
        device_features, delivered = carry
        deployment = self.deployment
        fabric = deployment.fabric
        rows = np.asarray(rows, dtype=np.int64)
        delay = np.zeros(len(rows))
        transferred = np.zeros(len(rows))
        everything_delivered = bool(delivered.all())
        for device_index, device in enumerate(deployment.devices):
            if device.failed:
                continue
            mask = True if everything_delivered else delivered[device_index, rows]
            count = len(rows) if everything_delivered else int(np.count_nonzero(mask))
            if not count:
                continue
            size = device.feature_bytes()
            seconds = fabric.send_batch(
                device.name, self._uplink_destination[device_index], size, count
            )
            device.record_bytes_sent(size * count)
            np.add(transferred, size, out=transferred, where=mask)
            np.maximum(delay, seconds, out=delay, where=mask)
        payloads = [
            tuple(features[row] for features in device_features) for row in rows
        ]
        return TransferResult(payloads=payloads, delay_s=delay, bytes=transferred)

    def transfer_estimate_s(self) -> float:
        worst = 0.0
        fabric = self.deployment.fabric
        for device_index, device in enumerate(self.deployment.devices):
            if device.failed:
                continue
            link = fabric.link(device.name, self._uplink_destination[device_index])
            worst = max(worst, link.transfer_time(device.feature_bytes()))
        return worst


class EdgeTierSection(TierSection):
    """The edge (fog) tier: per-edge aggregation + NN sections + edge exit."""

    tier_name = "edge"

    def __init__(self, deployment: HierarchyDeployment, exit_index: Optional[int]) -> None:
        self.deployment = deployment
        self.exit_index = exit_index
        self.exit_name = "edge" if exit_index is not None else ""

    def process(self, payload, plans=None) -> SectionResult:
        if plans is None:
            plans = self.compiled
        device_features = [np.asarray(array) for array in payload]
        deployment = self.deployment
        batch = len(device_features[0])

        edge_features: List[np.ndarray] = []
        edge_logit_list: List[np.ndarray] = []
        edge_seconds = np.zeros(max(len(deployment.edges), 1))
        for edge_index, edge in enumerate(deployment.edges):
            group = [device_features[i] for i in edge.device_indices]
            features, logits, seconds = self._edge_forward(edge, edge_index, group, plans)
            edge_features.append(features)
            edge_logit_list.append(logits)
            edge_seconds[edge_index] = seconds

        # An exit-less edge tier (boundary moved up) skips the exit-logit
        # fusion entirely — features still flow to the cloud unchanged.
        logits = (
            self._fuse_exit_logits(edge_logit_list, plans)
            if self.exit_index is not None
            else None
        )
        per_sample = float(edge_seconds.max(initial=0.0)) / max(batch, 1)
        return SectionResult(
            logits=logits,
            carry=edge_features,
            service_s=float(edge_seconds.max(initial=0.0)),
            intake_s=np.zeros(batch),
            compute_s=np.full(batch, per_sample),
            intake_bytes=np.zeros(batch),
        )

    def _edge_forward(self, edge, edge_index: int, group, plans):
        if plans is None:
            return edge.process(group)
        arrays = [np.asarray(array) for array in group]
        aggregated = plans.edge_aggregators[edge_index](arrays)
        features, logits = plans.edge_tiers[edge_index](aggregated)
        batch = len(arrays[0])
        seconds = edge._account(edge.operations_per_sample * batch, samples=batch)
        return features.copy(), logits.copy(), seconds

    def _fuse_exit_logits(self, edge_logit_list, plans):
        if len(edge_logit_list) == 1:
            return edge_logit_list[0]
        if plans is not None and plans.edge_exit_aggregator is not None:
            return plans.edge_exit_aggregator(edge_logit_list)
        with no_grad():
            return self.deployment.model.edge_exit_aggregator(
                [Tensor(logits) for logits in edge_logit_list]
            ).data

    def offload(self, carry, rows: np.ndarray) -> TransferResult:
        edge_features = carry
        deployment = self.deployment
        fabric = deployment.fabric
        rows = np.asarray(rows, dtype=np.int64)
        delay = np.zeros(len(rows))
        transferred = np.zeros(len(rows))
        for edge in deployment.edges:
            if edge.failed or not len(rows):
                continue
            size = edge.feature_bytes()
            seconds = fabric.send_batch(edge.name, CLOUD_NAME, size, len(rows))
            edge.record_bytes_sent(size * len(rows))
            transferred += size
            np.maximum(delay, seconds, out=delay)
        payloads = [tuple(features[row] for features in edge_features) for row in rows]
        return TransferResult(payloads=payloads, delay_s=delay, bytes=transferred)

    def transfer_estimate_s(self) -> float:
        worst = 0.0
        fabric = self.deployment.fabric
        for edge in self.deployment.edges:
            if edge.failed:
                continue
            link = fabric.link(edge.name, CLOUD_NAME)
            worst = max(worst, link.transfer_time(edge.feature_bytes()))
        return worst


class CloudTierSection(TierSection):
    """The cloud tier: final aggregation + cloud NN section (always exits)."""

    tier_name = "cloud"

    def __init__(self, deployment: HierarchyDeployment, exit_index: int) -> None:
        self.deployment = deployment
        self.exit_index = exit_index
        self.exit_name = "cloud"

    def process(self, payload, plans=None) -> SectionResult:
        if plans is None:
            plans = self.compiled
        sources = [np.asarray(array) for array in payload]
        batch = len(sources[0])
        logits, seconds = self._cloud_forward(sources, plans)
        per_sample = seconds / max(batch, 1)
        return SectionResult(
            logits=logits,
            carry=None,
            service_s=seconds,
            intake_s=np.zeros(batch),
            compute_s=np.full(batch, per_sample),
            intake_bytes=np.zeros(batch),
        )

    def _cloud_forward(self, sources, plans):
        cloud = self.deployment.cloud
        if plans is None:
            return cloud.process(sources)
        arrays = [np.asarray(array) for array in sources]
        aggregated = plans.cloud_aggregator(arrays)
        _, logits = plans.cloud(aggregated)
        batch = len(arrays[0])
        seconds = cloud._account(cloud.operations_per_sample * batch, samples=batch)
        return logits.copy(), seconds

    def offload(self, carry, rows: np.ndarray) -> TransferResult:
        raise RuntimeError("the cloud tier is final; nothing offloads past it")

    def transfer_estimate_s(self) -> float:
        raise RuntimeError("the cloud tier is final; nothing offloads past it")


def build_tier_sections(
    deployment: HierarchyDeployment,
    fault_plan: Optional[FaultPlan] = None,
    compiled=None,
    plan=None,
) -> List[TierSection]:
    """Decompose a deployment into its cascade tiers, in exit order.

    ``compiled`` is an optional :class:`~repro.compile.CompiledDDNN` that
    becomes every section's default plan bundle: ``process(payload)`` with no
    explicit ``plans=`` then runs it instead of the eager node forwards (the
    :class:`HierarchyRuntime` compile path).  One bundle serves one caller
    at a time — concurrent workers pass their own ``plans=``.

    ``plan`` is an optional :class:`~repro.hierarchy.plan.PartitionPlan`
    that places the section boundary: a tier whose exit the plan disables
    gets ``exit_index=None`` (its traffic offloads wholesale).  Exit
    *indices* always follow the model's exit numbering — the cascade's
    criteria are indexed by the model's exits regardless of which tiers
    currently evaluate them — so a boundary move never renumbers the exits
    queued requests will be judged against.  Without a plan the boundary
    follows the model's structure (the historical behaviour).
    """
    model = deployment.model
    if plan is not None and plan.model is not model:
        raise ValueError("plan.model must be the deployment's model")
    local_exit = model.has_local_exit if plan is None else plan.resolved_local_exit()
    edge_exit = model.has_edge if plan is None else plan.resolved_edge_exit()
    sections: List[TierSection] = []
    next_exit = 0
    if model.has_local_exit:
        local_index: Optional[int] = next_exit if local_exit else None
        next_exit += 1
    else:
        local_index = None
    sections.append(DeviceTierSection(deployment, fault_plan, exit_index=local_index))
    if model.has_edge:
        edge_index: Optional[int] = next_exit if edge_exit else None
        next_exit += 1
        sections.append(EdgeTierSection(deployment, exit_index=edge_index))
    sections.append(CloudTierSection(deployment, exit_index=next_exit))
    for section in sections:
        section.compiled = compiled
    return sections
