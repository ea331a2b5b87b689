"""Mapping a trained DDNN onto simulated hierarchy nodes.

The partitioning follows the paper directly: each device branch is placed on
its own end-device node, the local aggregator runs on a gateway physically
close to the devices, the optional edge models run on edge nodes, and the
cloud aggregator plus cloud model run on the cloud node.  Links mirror the
physical topology: a fast local link from devices to the gateway, a
constrained uplink from devices (or edges) towards the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.ddnn import DDNN
from .network import NetworkFabric, _check_link
from .node import AggregatorNode, CloudComputeNode, EdgeComputeNode, EndDeviceNode

__all__ = ["LinkSpec", "HierarchyDeployment", "partition_ddnn"]

LOCAL_AGGREGATOR_NAME = "local-aggregator"
CLOUD_NAME = "cloud"


@dataclass(frozen=True)
class LinkSpec:
    """Bandwidth / latency pair used when wiring the fabric (bandwidth
    finite and > 0, latency finite and >= 0)."""

    bandwidth_bytes_per_s: float
    latency_s: float

    def __post_init__(self) -> None:
        _check_link(self.bandwidth_bytes_per_s, self.latency_s)

    def connect(self, fabric: NetworkFabric, source: str, destination: str):
        """Create and register a link with this spec's parameters."""
        return fabric.connect(
            source,
            destination,
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s,
            latency_s=self.latency_s,
        )

    def retune(self, link) -> None:
        """Point an existing link at this spec's parameters (stats stay)."""
        link.bandwidth_bytes_per_s = self.bandwidth_bytes_per_s
        link.latency_s = self.latency_s


#: Device -> gateway: a short-range local link.
DEFAULT_LOCAL_LINK = LinkSpec(bandwidth_bytes_per_s=1_000_000.0, latency_s=0.002)
#: Device or edge -> cloud: a constrained wide-area uplink.
DEFAULT_UPLINK = LinkSpec(bandwidth_bytes_per_s=250_000.0, latency_s=0.05)
#: Device -> edge: a metropolitan link, faster than the cloud uplink.
DEFAULT_EDGE_LINK = LinkSpec(bandwidth_bytes_per_s=500_000.0, latency_s=0.01)


@dataclass(eq=False)
class HierarchyDeployment:
    """All simulator objects for one partitioned DDNN.

    Compared and hashed by identity: a deployment is single-threaded state
    (its nodes' and links' counters), so the simulated serving workers over
    it share one compiled ``"float64"`` plan bundle, which it keeps
    (:meth:`_bundle`) and makes again when the model's weights change.
    Simulated fabrics over one deployment therefore must not be driven from
    different threads — they would write the same arenas; run concurrent
    serving on the fabric's ``backend="thread"``, or build one deployment
    per thread.
    """

    model: DDNN
    devices: List[EndDeviceNode]
    local_aggregator: Optional[AggregatorNode]
    edges: List[EdgeComputeNode]
    cloud: CloudComputeNode
    fabric: NetworkFabric

    def __post_init__(self) -> None:
        self._nodes_by_name: Dict[str, object] = {}
        for device in self.devices:
            self._nodes_by_name[device.name] = device
        for edge in self.edges:
            self._nodes_by_name[edge.name] = edge
        if self.local_aggregator is not None:
            self._nodes_by_name[self.local_aggregator.name] = self.local_aggregator
        self._nodes_by_name[self.cloud.name] = self.cloud
        #: The simulated workers' shared bundle (see :meth:`_bundle`).
        self._shared_bundle = None

    @property
    def device_names(self) -> List[str]:
        return [device.name for device in self.devices]

    def node_by_name(self, name: str):
        """Look up any node by its name (dict-backed, built once)."""
        try:
            return self._nodes_by_name[name]
        except KeyError:
            known = ", ".join(sorted(self._nodes_by_name))
            raise KeyError(f"no node named '{name}' (known nodes: {known})") from None

    def _bundle(self):
        """The simulated workers' bundle: the model's ``"float64"`` plan over
        arenas of its own, made again once the weights change."""
        from ..compile.cache import compiled_plan_for

        bundle = self._shared_bundle
        if bundle is None or bundle.weights_version != self.model._weights_version:
            bundle = self._shared_bundle = compiled_plan_for(self.model).with_own_buffers()
        return bundle

    def reset(self) -> None:
        """Clear all traffic and compute statistics."""
        self.fabric.reset()
        for device in self.devices:
            device.reset_stats()
        for edge in self.edges:
            edge.reset_stats()
        if self.local_aggregator is not None:
            self.local_aggregator.reset_stats()
        self.cloud.reset_stats()


def partition_ddnn(
    model: DDNN,
    local_link: LinkSpec = DEFAULT_LOCAL_LINK,
    uplink: LinkSpec = DEFAULT_UPLINK,
    edge_link: LinkSpec = DEFAULT_EDGE_LINK,
    device_ops_per_second: float = 5e7,
    edge_ops_per_second: float = 5e9,
    cloud_ops_per_second: float = 5e10,
) -> HierarchyDeployment:
    """Create nodes and links for a trained DDNN.

    Thin shim over :meth:`~repro.hierarchy.plan.PartitionPlan.materialize`
    with a default (model-shaped) section boundary — kept so every existing
    call site and paper table reproduces byte-identically.  The model is
    *shared*, not copied: the simulator nodes hold references to the DDNN's
    sections, so the deployment always reflects the trained parameters.
    """
    from .plan import PartitionPlan

    plan = PartitionPlan(
        model=model,
        local_link=local_link,
        uplink=uplink,
        edge_link=edge_link,
        device_ops_per_second=device_ops_per_second,
        edge_ops_per_second=edge_ops_per_second,
        cloud_ops_per_second=cloud_ops_per_second,
    )
    return plan.materialize()
