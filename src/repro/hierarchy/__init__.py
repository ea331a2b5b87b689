"""``repro.hierarchy`` — distributed computing hierarchy simulator.

The simulator substitutes for the physical deployment used by the paper
(end devices, edge gateways and cloud servers connected by a
bandwidth-constrained wireless network).  It provides:

* compute nodes (:class:`EndDeviceNode`, :class:`EdgeComputeNode`,
  :class:`CloudComputeNode`, :class:`AggregatorNode`) holding the DDNN
  sections mapped onto them and accounting the work the tier sections'
  compiled forwards charge them;
* a :class:`NetworkFabric` of links with byte and latency accounting;
* :func:`partition_ddnn` to map a trained DDNN onto nodes and links, now a
  thin shim over :class:`PartitionPlan` — a first-class mutable description
  of the mapping (section boundary per tier, node/link specs, worker
  counts, autoscale watermarks, replicas) that
  :meth:`~repro.serving.fabric.DistributedServingFabric.apply_plan` can
  swap onto a live fabric;
* :class:`HierarchyRuntime` which executes the paper's staged inference
  procedure over the simulated deployment;
* fault injection (:class:`FaultPlan`, the devices that are down for a
  whole run, and the timed :class:`ChaosSchedule` the serving fabric
  consults).
"""

from .faults import (
    ChaosSchedule,
    FaultPlan,
    LinkFlap,
    LinkLoss,
    LinkOutage,
    WorkerCrash,
)
from .network import LinkStats, Message, NetworkFabric, NetworkLink
from .node import (
    AggregatorNode,
    CloudComputeNode,
    ComputeNode,
    EdgeComputeNode,
    EndDeviceNode,
    NodeStats,
)
from .partition import (
    CLOUD_NAME,
    DEFAULT_EDGE_LINK,
    DEFAULT_LOCAL_LINK,
    DEFAULT_UPLINK,
    LOCAL_AGGREGATOR_NAME,
    HierarchyDeployment,
    LinkSpec,
    partition_ddnn,
)
from .plan import AutoscalePolicy, PartitionPlan
from .runtime import HierarchyRuntime
from .sections import (
    CloudTierSection,
    DeviceTierSection,
    EdgeTierSection,
    SectionResult,
    TierSection,
    TransferResult,
    build_tier_sections,
)

__all__ = [
    "Message",
    "NetworkLink",
    "NetworkFabric",
    "LinkStats",
    "ComputeNode",
    "EndDeviceNode",
    "EdgeComputeNode",
    "CloudComputeNode",
    "AggregatorNode",
    "NodeStats",
    "LinkSpec",
    "HierarchyDeployment",
    "partition_ddnn",
    "PartitionPlan",
    "AutoscalePolicy",
    "LOCAL_AGGREGATOR_NAME",
    "CLOUD_NAME",
    "DEFAULT_LOCAL_LINK",
    "DEFAULT_UPLINK",
    "DEFAULT_EDGE_LINK",
    "HierarchyRuntime",
    "TierSection",
    "DeviceTierSection",
    "EdgeTierSection",
    "CloudTierSection",
    "SectionResult",
    "TransferResult",
    "build_tier_sections",
    "FaultPlan",
    "ChaosSchedule",
    "LinkOutage",
    "LinkFlap",
    "LinkLoss",
    "WorkerCrash",
]
