"""First-class, mutable description of the DDNN-to-hierarchy mapping.

Historically the mapping was frozen at construction:
:func:`~repro.hierarchy.partition.partition_ddnn` wired nodes and links in
one shot, and the serving fabric baked worker counts into ``__init__``.
A :class:`PartitionPlan` turns that construction-time wiring into data that
every layer consumes — and that can *change while the system is live*:

* the **section boundary** per tier: which non-final tiers evaluate their
  exit.  Disabling the local exit moves the boundary up (devices become
  pure feature extractors and all traffic offloads); disabling the edge
  exit routes everything that leaves the devices straight to the cloud.
  The tier *chain* (devices → [edge] → cloud) is fixed by the trained
  model — queued payloads stay valid across a re-partition — but where
  answers are produced is plan data;
* **node specs** (per-tier ops/s) and **link specs**
  (:class:`~repro.hierarchy.partition.LinkSpec` per link class);
* **worker counts** per tier, optional per-tier :class:`AutoscalePolicy`
  watermarks, and a **replica count** for load-balanced duplicate stacks.

:meth:`PartitionPlan.materialize` builds the simulator deployment exactly
like ``partition_ddnn`` always did (that function is now a thin shim over
it, byte-identical), and
:meth:`~repro.serving.fabric.DistributedServingFabric.apply_plan` swaps a
live fabric onto a new plan with a drain-and-handoff protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from ..core.ddnn import DDNN
from ..datasets.mvmc import _int_at_least
from .partition import (
    CLOUD_NAME,
    DEFAULT_EDGE_LINK,
    DEFAULT_LOCAL_LINK,
    DEFAULT_UPLINK,
    LOCAL_AGGREGATOR_NAME,
    HierarchyDeployment,
    LinkSpec,
)

__all__ = ["AutoscalePolicy", "PartitionPlan"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Watermark-driven worker scaling for one tier.

    The autoscaler grows a tier by ``step`` workers as soon as its queue
    depth reaches ``high_watermark`` (scale-up never waits — backlog is
    evidence *now*), and shrinks it by ``step`` once the depth has been at
    or below ``low_watermark`` for ``cooldown_s`` seconds since the last
    size change (scale-down is damped so a lull between bursts does not
    flap the pool).  ``window_s`` sizes the arrival-rate tracker window
    used for telemetry and the optional rate floor: with
    ``target_rps_per_worker > 0`` the pool never shrinks below the worker
    count needed to sustain the currently observed arrival rate.
    """

    min_workers: int = 1
    max_workers: int = 4
    high_watermark: int = 4
    low_watermark: int = 0
    cooldown_s: float = 0.25
    step: int = 1
    window_s: float = 1.0
    target_rps_per_worker: float = 0.0

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})"
            )
        if self.high_watermark < 1:
            raise ValueError(f"high_watermark must be >= 1, got {self.high_watermark}")
        if self.low_watermark < 0:
            raise ValueError(f"low_watermark must be >= 0, got {self.low_watermark}")
        if self.low_watermark >= self.high_watermark:
            raise ValueError(
                f"low_watermark ({self.low_watermark}) must be below "
                f"high_watermark ({self.high_watermark})"
            )
        if self.cooldown_s < 0.0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.window_s <= 0.0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")
        if self.target_rps_per_worker < 0.0:
            raise ValueError(
                f"target_rps_per_worker must be >= 0, got {self.target_rps_per_worker}"
            )


@dataclass
class PartitionPlan:
    """Declarative, mutable deployment description for one trained DDNN.

    ``local_exit`` / ``edge_exit`` place the section boundary: ``None``
    follows the model's structure (an exit is evaluated wherever the model
    has one — the historical behaviour), ``False`` disables that tier's
    exit so its traffic offloads wholesale, and ``True`` requires the model
    to actually carry the exit.  The cloud always answers — it is the
    cascade's final exit.
    """

    model: DDNN
    local_exit: Optional[bool] = None
    edge_exit: Optional[bool] = None
    local_link: LinkSpec = DEFAULT_LOCAL_LINK
    uplink: LinkSpec = DEFAULT_UPLINK
    edge_link: LinkSpec = DEFAULT_EDGE_LINK
    device_ops_per_second: float = 5e7
    edge_ops_per_second: float = 5e9
    cloud_ops_per_second: float = 5e10
    workers_per_tier: Union[int, Sequence[int]] = 1
    replicas: int = 1
    autoscale: Union[
        None, AutoscalePolicy, Sequence[Optional[AutoscalePolicy]]
    ] = None
    #: End-to-end latency objective per request, in seconds.  Fabrics built
    #: from the plan stamp every request with an absolute
    #: :class:`~repro.serving.resilience.Deadline` at ingress; ``None``
    #: serves without deadlines (the historical behaviour).
    slo_s: Optional[float] = None
    #: Optional :class:`~repro.serving.resilience.HedgePolicy` for
    #: speculative offload re-sends across replica stacks.  Requires
    #: ``replicas > 1`` (hedges go to *sibling* replicas) and only takes
    #: effect through :meth:`~repro.serving.balancer.LoadBalancer.from_plan`,
    #: which wires the replicas onto one shared event loop.
    hedge: Optional[object] = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def num_tiers(self) -> int:
        return 2 + (1 if self.model.has_edge else 0)

    def resolved_local_exit(self) -> bool:
        if self.local_exit is None:
            return self.model.has_local_exit
        return bool(self.local_exit)

    def resolved_edge_exit(self) -> bool:
        if self.edge_exit is None:
            return self.model.has_edge
        return bool(self.edge_exit)

    def validate(self) -> None:
        if self.local_exit and not self.model.has_local_exit:
            raise ValueError(
                "plan enables the local exit but the model has no local aggregator"
            )
        if self.edge_exit and not self.model.has_edge:
            raise ValueError("plan enables the edge exit but the model has no edge tier")
        _int_at_least(self.replicas, "replicas")
        if self.slo_s is not None and not self.slo_s > 0.0:
            raise ValueError(f"slo_s must be > 0 or None, got {self.slo_s}")
        if self.hedge is not None:
            from ..serving.resilience import HedgePolicy  # deferred: avoids cycle

            if not isinstance(self.hedge, HedgePolicy):
                raise TypeError(
                    f"hedge must be a HedgePolicy or None, got {type(self.hedge).__name__}"
                )
            if self.replicas < 2:
                raise ValueError(
                    "hedge needs replicas >= 2 (hedged offloads go to sibling replicas)"
                )
        for count in self.worker_counts():
            if count < 1:
                raise ValueError(f"worker counts must be >= 1, got {count}")
        self.autoscale_policies()  # validates length

    def with_changes(self, **changes) -> "PartitionPlan":
        """A copy of this plan with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Worker plane
    # ------------------------------------------------------------------ #
    def worker_counts(self) -> Tuple[int, ...]:
        """Per-tier worker counts, broadcasting a single int."""
        if isinstance(self.workers_per_tier, int):
            return (self.workers_per_tier,) * self.num_tiers
        counts = tuple(int(count) for count in self.workers_per_tier)
        if len(counts) != self.num_tiers:
            raise ValueError(
                f"workers_per_tier must have {self.num_tiers} entries, got {len(counts)}"
            )
        return counts

    def autoscale_policies(self) -> Tuple[Optional[AutoscalePolicy], ...]:
        """Per-tier autoscale policies, broadcasting a single policy."""
        if self.autoscale is None:
            return (None,) * self.num_tiers
        if isinstance(self.autoscale, AutoscalePolicy):
            return (self.autoscale,) * self.num_tiers
        policies = tuple(self.autoscale)
        if len(policies) != self.num_tiers:
            raise ValueError(
                f"autoscale must have {self.num_tiers} entries, got {len(policies)}"
            )
        return policies

    @property
    def autoscaled(self) -> bool:
        return any(policy is not None for policy in self.autoscale_policies())

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def materialize(self) -> HierarchyDeployment:
        """Create the simulator nodes and links this plan describes.

        The model is *shared*, not copied; calling this repeatedly builds
        independent node/link stacks over the same trained parameters
        (which is how replica groups are stamped out).  Byte-identical to
        the historical :func:`~repro.hierarchy.partition.partition_ddnn`
        wiring for a default-boundary plan.
        """
        from .network import NetworkFabric
        from .node import (
            AggregatorNode,
            CloudComputeNode,
            EdgeComputeNode,
            EndDeviceNode,
        )

        model = self.model
        fabric = NetworkFabric()

        devices = [
            EndDeviceNode(
                f"device-{index}", branch, ops_per_second=self.device_ops_per_second
            )
            for index, branch in enumerate(model.device_branches)
        ]

        local_aggregator = None
        if model.has_local_exit:
            local_aggregator = AggregatorNode(LOCAL_AGGREGATOR_NAME)
            for device in devices:
                self.local_link.connect(fabric, device.name, LOCAL_AGGREGATOR_NAME)

        edges: List[EdgeComputeNode] = []
        if model.has_edge:
            for edge_index, (edge_model, group) in enumerate(
                zip(model.edge_models, model.edge_device_groups)
            ):
                edge = EdgeComputeNode(
                    f"edge-{edge_index}",
                    edge_model,
                    device_indices=group,
                    ops_per_second=self.edge_ops_per_second,
                )
                edges.append(edge)
                for device_index in group:
                    self.edge_link.connect(fabric, devices[device_index].name, edge.name)
                self.uplink.connect(fabric, edge.name, CLOUD_NAME)
        else:
            for device in devices:
                self.uplink.connect(fabric, device.name, CLOUD_NAME)

        cloud = CloudComputeNode(
            CLOUD_NAME, model.cloud, ops_per_second=self.cloud_ops_per_second
        )

        return HierarchyDeployment(
            model=model,
            devices=devices,
            local_aggregator=local_aggregator,
            edges=edges,
            cloud=cloud,
            fabric=fabric,
        )

    def retune_links(self, deployment: HierarchyDeployment) -> None:
        """Apply this plan's link specs to an existing deployment in place.

        Used by the live re-partition path: byte/latency accounting history
        stays with the links, only their bandwidth/latency parameters move
        to the new plan's values.
        """
        edge_names = {edge.name for edge in deployment.edges}
        for link in deployment.fabric.links():
            if link.destination == LOCAL_AGGREGATOR_NAME:
                spec = self.local_link
            elif link.destination in edge_names:
                spec = self.edge_link
            else:
                spec = self.uplink
            spec.retune(link)

    def retune_nodes(self, deployment: HierarchyDeployment) -> None:
        """Apply this plan's per-tier ops/s specs to existing nodes in place."""
        for device in deployment.devices:
            device.ops_per_second = float(self.device_ops_per_second)
        for edge in deployment.edges:
            edge.ops_per_second = float(self.edge_ops_per_second)
        deployment.cloud.ops_per_second = float(self.cloud_ops_per_second)
