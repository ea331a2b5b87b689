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
  returning the logits of each exit the tier holds, the latency and bytes
  it charges every row, and a batch-level *carry*: the feature maps an
  offload would forward, as one batch-major ``(n, sources, ...)`` array —
  ``(n, D, f, h, w)`` out of the device tier, ``(n, E, ...)`` out of the edge;
* :meth:`TierSection.offload` — send the carried features for the
  not-confident rows up the hierarchy over the deployment's
  :class:`~repro.hierarchy.network.NetworkFabric` (one batched charge per
  sending node, accounted exactly as one message per row would be),
  returning the transfer delay and bytes of every offloaded row.

An offload is *row indices* into the carry, never per-row copies: row ``r``
travels as ``features[r]``, one ``(sources, ...)`` view, and the next tier
stages each arriving row once, straight into the ``(batch, sources, ...)``
layout its compiled aggregator takes (a CC aggregator is then a reshape).
A batch of one is a view of its row, not a copy
(:meth:`~repro.serving.workers.WorkerHandle.stage`).

The accounting reproduces the original runtime loop: every live device
sends a summary for every sample and its features for every offloaded
sample, per-sample compute latency comes from the node ops models, and
the per-device ``stats.bytes_sent`` counters match the paper's Eq. 1 byte
accounting (covered by the hierarchy tests).  One
decomposition note: the old loop charged offloaded samples
``max_e(transfer_e + compute_e)`` over the edge tier in one term, while
the split stages charge ``max(transfer)`` at the device offload and
``max(compute)`` at the edge — identical for the homogeneous edge tiers
:func:`~repro.hierarchy.partition.partition_ddnn` builds (every edge has
the same per-sample compute), and an upper bound if edges are hand-tuned
to heterogeneous speeds.  The device tier charges from per-device vectors
built once per section from its fault plan's dead devices.  Every row of a
batch, and every row of an offload, is charged the same, so a result holds
one latency and one byte count per batch.

A tier forward runs on a :class:`~repro.compile.CompiledDDNN` plan bundle
handed to ``process`` per call: the fabric gives every thread worker its
own bundle, so the compiled buffer arenas are thread-safe by construction,
and lets the simulated workers over one deployment, which compute one at a
time, share one.  The nodes only account: the section charges each node's
ops model for the rows it computed.  The device tier is *one* call: the
bundle's grouped program computes every device's branch on the
device-major view of the batch, and a failed device is zeroed out of its
output.  A section copies what it keeps of a plan's output
(the carry, the scores it aggregates, the logits): plan outputs live only
until that plan's next forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.ddnn import DDNN
from .faults import FaultPlan
from .network import NetworkLink
from .partition import CLOUD_NAME, LOCAL_AGGREGATOR_NAME, HierarchyDeployment

__all__ = [
    "SectionResult",
    "TransferResult",
    "TierSection",
    "DeviceTierSection",
    "EdgeTierSection",
    "CloudTierSection",
    "CascadeTierSection",
    "build_tier_sections",
]


@dataclass
class SectionResult:
    """Outcome of running one tier's section on a batch of ``n`` rows."""

    logits: List[np.ndarray]  # (n, C) logits of each exit the tier holds, in exit order
    carry: object  # batch-level state an offload would forward
    service_s: float  # wall-clock the tier's worker is occupied by this batch
    intake_s: float  # every row's intra-tier transfer+wait latency
    compute_s: float  # every row's compute latency contribution
    intake_bytes: float  # every row's bytes sent inside the tier


@dataclass
class TransferResult:
    """Outcome of offloading a set of rows to the next tier."""

    features: np.ndarray  # the batch-major carry: offloaded row r travels as features[r]
    delay_s: float  # every offloaded row's transfer delay
    bytes: float  # every offloaded row's bytes put on the wire


def _charge(nodes, links, sizes, count: int) -> List[float]:
    """Charge ``count`` messages of ``size`` bytes from each node over its
    link (as ``count`` single messages would be) and return one message's
    transfer time per node."""
    seconds = []
    for node, link, size in zip(nodes, links, sizes):
        seconds.append(link.send_batch(size, count))
        node.record_bytes_sent(size * count)
    return seconds


def _transfer(features, nodes, links, sizes, rows) -> TransferResult:
    """Send every row of ``rows`` from each node; each row waits for its
    slowest sender and carries every sender's bytes."""
    seconds = _charge(nodes, links, sizes, len(rows))
    return TransferResult(features, max(seconds, default=0.0), sum(sizes, 0.0))


class TierSection:
    """One tier of the cascade: compute stage plus upward offload stage."""

    #: Display name of the tier ("devices", "edge", "cloud").
    tier_name: str = "tier"
    #: Index into the cascade's exits, or None when the tier has no exit.
    exit_index: Optional[int] = None
    #: Exit name matching ``exit_index`` ("" when the tier has no exit).
    exit_name: str = ""

    @property
    def exits(self) -> List[Tuple[int, str]]:
        """``(index, name)`` of every exit the tier evaluates, in cascade
        order — the one exit it carries, or none."""
        return [] if self.exit_index is None else [(self.exit_index, self.exit_name)]

    def process(self, payload, plans) -> SectionResult:
        """Run the tier on a batch with ``plans``, a compiled plan bundle."""
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


class _DeviceVectors:
    """What the device tier charges per batch, for its live devices in
    device order.  Built once per section, on first use: the fault plan's
    dead devices are fixed for the section's life, and link parameters
    change only when a re-partition retunes them, which builds new sections
    first (``DistributedServingFabric.apply_plan``)."""

    def __init__(
        self, deployment: HierarchyDeployment, fault_plan: FaultPlan, destinations
    ) -> None:
        devices, fabric = deployment.devices, deployment.fabric
        down = [fault_plan.device_is_down(index) for index in range(len(devices))]
        live = [index for index, failed in enumerate(down) if not failed]
        self.dead = [index for index, failed in enumerate(down) if failed]
        self.devices = [devices[index] for index in live]
        self.operations = [device.operations_per_sample for device in self.devices]
        self.summary_bytes = [device.summary_bytes() for device in self.devices]
        self.summary_links = [
            fabric.link(device.name, LOCAL_AGGREGATOR_NAME)
            for device in (self.devices if deployment.local_aggregator is not None else [])
        ]
        self.feature_bytes = [device.feature_bytes() for device in self.devices]
        self.uplinks = [fabric.link(devices[i].name, destinations[i]) for i in live]
        self.transfer_estimate_s = max(
            map(NetworkLink.transfer_time, self.uplinks, self.feature_bytes), default=0.0
        )


class DeviceTierSection(TierSection):
    """End devices plus (optionally) the local aggregator and local exit.

    ``process`` consumes raw multi-view batches of shape ``(n, D, C, H, W)``;
    the carry is the batch-major ``(n, D, f, h, w)`` binarized feature maps.
    ``offload`` sends each live device's feature map for every offloaded row
    to that device's uplink destination (its edge, or the cloud when no edge
    tier exists).
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
        self._built: Optional[_DeviceVectors] = None

    def _vectors(self) -> _DeviceVectors:
        if self._built is None:
            self._built = _DeviceVectors(
                self.deployment, self.fault_plan, self._uplink_destination
            )
        return self._built

    def process(self, payload, plans) -> SectionResult:
        views = np.asarray(payload)
        batch = len(views)

        vectors = self._vectors()
        features, scores, seconds = self._device_forwards(views, plans, vectors)
        # A failed device transmits nothing.
        if vectors.dead:
            features[:, vectors.dead] = 0.0
            scores[vectors.dead] = 0.0

        logits: List[np.ndarray] = []
        aggregate_seconds = intake_s = compute_s = intake_bytes = 0.0
        if self.exit_index is not None:
            # One charge per live device: a summary for every row.
            link_seconds = _charge(
                vectors.devices, vectors.summary_links, vectors.summary_bytes, batch
            )
            intake_s = max(
                (own / max(batch, 1) + link for own, link in zip(seconds, link_seconds)),
                default=0.0,
            )
            intake_bytes = sum(vectors.summary_bytes, 0.0)
            fused, aggregate_seconds = self._aggregate(scores, plans)
            logits.append(fused)
            compute_s = aggregate_seconds / max(batch, 1)

        return SectionResult(
            logits=logits,
            carry=features,
            service_s=max(seconds, default=0.0) + aggregate_seconds,
            intake_s=intake_s,
            compute_s=compute_s,
            intake_bytes=intake_bytes,
        )

    def _device_forwards(self, views: np.ndarray, plans, vectors: _DeviceVectors):
        """``(features, scores, seconds)`` for a ``(n, D, C, H, W)`` batch:
        the ``(n, D, f, h, w)`` feature maps and ``(D, n, C)`` class scores,
        both the section's own arrays, and the live devices' compute seconds.

        The whole tier is one call of the bundle's grouped program on the
        device-major view of the batch, and a failed device accounts no
        compute.
        """
        batch = len(views)
        # No dtype force: the float64 plans cast their input themselves.
        features, scores = plans.device_group(views.swapaxes(0, 1))
        seconds = [
            device._account(operations * batch, samples=batch)
            for device, operations in zip(vectors.devices, vectors.operations)
        ]
        return features.swapaxes(0, 1).copy(), scores.copy(), seconds

    def _aggregate(self, scores: np.ndarray, plans):
        fused = plans.local_aggregator(scores.swapaxes(0, 1))
        aggregator = self.deployment.local_aggregator
        return fused, aggregator._account(scores.size, samples=scores.shape[1])

    def offload(self, carry, rows: np.ndarray) -> TransferResult:
        vectors = self._vectors()
        return _transfer(carry, vectors.devices, vectors.uplinks, vectors.feature_bytes, rows)

    def transfer_estimate_s(self) -> float:
        return self._vectors().transfer_estimate_s


class EdgeTierSection(TierSection):
    """The edge (fog) tier: per-edge aggregation + NN sections + edge exit.

    ``process`` consumes staged device rows, ``(n, D, f, h, w)``; the carry
    is the batch-major ``(n, E, ...)`` stack of every edge's feature maps.
    """

    tier_name = "edge"

    def __init__(self, deployment: HierarchyDeployment, exit_index: Optional[int]) -> None:
        self.deployment = deployment
        self.exit_index = exit_index
        self.exit_name = "edge" if exit_index is not None else ""

    def process(self, payload, plans) -> SectionResult:
        device_features = np.asarray(payload)
        deployment = self.deployment
        batch = len(device_features)

        edge_features: List[np.ndarray] = []
        edge_logit_list: List[np.ndarray] = []
        edge_seconds = np.zeros(max(len(deployment.edges), 1))
        for edge_index, edge in enumerate(deployment.edges):
            group = device_features[:, edge.device_indices]
            features, logits, seconds = self._edge_forward(edge, edge_index, group, plans)
            edge_features.append(features)
            edge_logit_list.append(logits)
            edge_seconds[edge_index] = seconds

        # An exit-less edge tier (boundary moved up) skips the exit-logit
        # fusion entirely — features still flow to the cloud unchanged.
        logits = (
            [self._fuse_exit_logits(edge_logit_list, plans)]
            if self.exit_index is not None
            else []
        )
        seconds = float(edge_seconds.max(initial=0.0))
        return SectionResult(
            logits=logits,
            carry=np.stack(edge_features, axis=1),
            service_s=seconds,
            intake_s=0.0,
            compute_s=seconds / max(batch, 1),
            intake_bytes=0.0,
        )

    def _edge_forward(self, edge, edge_index: int, group: np.ndarray, plans):
        """One edge's ``(features, logits, seconds)``; the features are read
        only until every edge has run (each edge has plans of its own)."""
        aggregated = plans.edge_aggregators[edge_index](group)
        features, logits = plans.edge_tiers[edge_index](aggregated)
        batch = len(group)
        seconds = edge._account(edge.operations_per_sample * batch, samples=batch)
        return features, logits.copy(), seconds

    def _fuse_exit_logits(self, edge_logit_list, plans):
        if len(edge_logit_list) == 1:
            return edge_logit_list[0]
        return plans.edge_exit_aggregator(np.stack(edge_logit_list, axis=1))

    def _uplinks(self):
        """The edges, their cloud links and their feature sizes."""
        fabric = self.deployment.fabric
        edges = self.deployment.edges
        links = [fabric.link(edge.name, CLOUD_NAME) for edge in edges]
        return edges, links, [edge.feature_bytes() for edge in edges]

    def offload(self, carry, rows: np.ndarray) -> TransferResult:
        return _transfer(carry, *self._uplinks(), rows)

    def transfer_estimate_s(self) -> float:
        _, links, sizes = self._uplinks()
        return max(map(NetworkLink.transfer_time, links, sizes), default=0.0)


class CloudTierSection(TierSection):
    """The cloud tier: final aggregation + cloud NN section (always exits).

    ``process`` consumes staged rows of the tier below, ``(n, sources, ...)``.
    """

    tier_name = "cloud"

    def __init__(self, deployment: HierarchyDeployment, exit_index: int) -> None:
        self.deployment = deployment
        self.exit_index = exit_index
        self.exit_name = "cloud"

    def process(self, payload, plans) -> SectionResult:
        sources = np.asarray(payload)
        batch = len(sources)
        logits, seconds = self._cloud_forward(sources, plans)
        return SectionResult(
            logits=[logits],
            carry=None,
            service_s=seconds,
            intake_s=0.0,
            compute_s=seconds / max(batch, 1),
            intake_bytes=0.0,
        )

    def _cloud_forward(self, sources: np.ndarray, plans):
        cloud = self.deployment.cloud
        aggregated = plans.cloud_aggregator(sources)
        _, logits = plans.cloud(aggregated)
        batch = len(sources)
        seconds = cloud._account(cloud.operations_per_sample * batch, samples=batch)
        return logits.copy(), seconds

    def offload(self, carry, rows: np.ndarray) -> TransferResult:
        raise RuntimeError("the cloud tier is final; nothing offloads past it")

    def transfer_estimate_s(self) -> float:
        raise RuntimeError("the cloud tier is final; nothing offloads past it")


class CascadeTierSection(TierSection):
    """The whole cascade as one tier: the single-box server's section.

    ``process`` runs the compiled forward (:meth:`CompiledDDNN.forward
    <repro.compile.CompiledDDNN.forward>`) on raw ``(n, D, C, H, W)``
    views and returns every exit's logits, which the fabric applies in
    order, so a batch leaves the tier whole.  There is no hierarchy under
    it: no links, no bytes, no path latency, and no modelled compute (a
    fabric prices its batches with a
    :class:`~repro.serving.loadgen.ServiceModel`).
    """

    tier_name = "server"

    def __init__(self, model: DDNN) -> None:
        self._exits = list(enumerate(model.exit_names))
        self.exit_index, self.exit_name = self._exits[0]

    @property
    def exits(self) -> List[Tuple[int, str]]:
        return self._exits

    def process(self, payload, plans) -> SectionResult:
        views = np.asarray(payload)
        return SectionResult(
            logits=[logits.copy() for logits in plans.forward(views).exit_logits],
            carry=None,
            service_s=0.0,
            intake_s=0.0,
            compute_s=0.0,
            intake_bytes=0.0,
        )

    def offload(self, carry, rows: np.ndarray) -> TransferResult:
        raise RuntimeError("the cascade tier answers every row; nothing offloads past it")

    def transfer_estimate_s(self) -> float:
        raise RuntimeError("the cascade tier answers every row; nothing offloads past it")


def build_tier_sections(
    deployment: HierarchyDeployment,
    fault_plan: Optional[FaultPlan] = None,
    plan=None,
) -> List[TierSection]:
    """Decompose a deployment into its cascade tiers, in exit order.

    ``plan`` is an optional :class:`~repro.hierarchy.plan.PartitionPlan`
    that places the section boundary: a tier whose exit the plan disables
    gets ``exit_index=None`` (its traffic offloads wholesale).  Exit
    *indices* always follow the model's exit numbering — the cascade's
    criteria are indexed by the model's exits regardless of which tiers
    currently evaluate them — so a boundary move never renumbers the exits
    queued requests will be judged against.  Without a plan the boundary
    follows the model's structure (the historical behaviour).  A
    ``fault_plan`` naming a device index the deployment lacks is a
    :class:`ValueError`.
    """
    if fault_plan is not None:
        fault_plan._check_nodes(len(deployment.devices))
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
    return sections
