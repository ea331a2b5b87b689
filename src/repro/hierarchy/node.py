"""Compute nodes of the distributed hierarchy (end devices, edge, cloud).

Each node holds the NN section mapped onto it (a reference into the trained
:class:`~repro.core.ddnn.DDNN`, read for its shapes and per-sample cost) plus
a simple compute-speed model used to estimate per-sample processing latency,
and counts the work and bytes charged to it.  Nodes do not compute: a tier's
forward runs on a compiled plan bundle
(:class:`~repro.hierarchy.sections.TierSection`), which charges the node
through :meth:`ComputeNode._account`.  The byte-level communication is handled
by :class:`~repro.hierarchy.network.NetworkFabric`; nodes only expose the
sizes of the payloads they emit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from ..core.communication import BITS_PER_BYTE, FLOAT_BYTES
from ..core.ddnn import CloudModel, DeviceBranch, EdgeModel

__all__ = ["NodeStats", "ComputeNode", "EndDeviceNode", "AggregatorNode", "EdgeComputeNode", "CloudComputeNode"]


@dataclass
class NodeStats:
    """Work performed by a node since the last reset."""

    samples_processed: int = 0
    compute_seconds: float = 0.0
    bytes_sent: float = 0.0

    def reset(self) -> None:
        self.samples_processed = 0
        self.compute_seconds = 0.0
        self.bytes_sent = 0.0


class ComputeNode:
    """Base class: a named node with a crude compute-latency model.

    Parameters
    ----------
    name:
        Unique node name, also used as the network address.
    ops_per_second:
        Sustained multiply-accumulate throughput used to convert a section's
        parameter count into per-sample compute latency.  End devices default
        to a value four orders of magnitude below the cloud, reflecting
        microcontroller-class hardware.
    """

    def __init__(self, name: str, ops_per_second: float = 1e9) -> None:
        if ops_per_second <= 0:
            raise ValueError("ops_per_second must be positive")
        self.name = name
        self.ops_per_second = ops_per_second
        self.stats = NodeStats()
        # Stats counters are read-modify-write; concurrent worker threads
        # (the serving fabric's thread backend) share the node objects, so
        # accounting is serialized to keep the totals exact.
        self._stats_lock = threading.Lock()

    def _account(self, operations: float, samples: int = 1) -> float:
        seconds = operations / self.ops_per_second
        with self._stats_lock:
            self.stats.samples_processed += samples
            self.stats.compute_seconds += seconds
        return seconds

    def record_bytes_sent(self, size: float) -> None:
        """Add to the node's bytes-sent counter (thread-safe)."""
        with self._stats_lock:
            self.stats.bytes_sent += size

    def reset_stats(self) -> None:
        with self._stats_lock:
            self.stats.reset()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class EndDeviceNode(ComputeNode):
    """An end device holding one :class:`~repro.core.ddnn.DeviceBranch`.

    Per sample it produces two payloads:

    * a class-score summary of ``4 * |C|`` bytes sent to the local aggregator
      for every sample, and
    * a binarized feature map of ``f * o / 8`` bytes sent up the hierarchy
      only when requested (local exit not confident).
    """

    def __init__(
        self,
        name: str,
        branch: DeviceBranch,
        ops_per_second: float = 5e7,
    ) -> None:
        super().__init__(name, ops_per_second)
        self.branch = branch
        #: Operations one sample costs on this node (one per weight), read
        #: off the section once instead of walking its parameters per batch.
        self.operations_per_sample = branch.operations_per_sample

    # -- payload sizes -------------------------------------------------- #
    def summary_bytes(self) -> float:
        """Size of the per-sample class-score message (first term of Eq. 1)."""
        return FLOAT_BYTES * self.branch.num_classes

    def feature_bytes(self) -> float:
        """Size of the binarized feature-map message (second term of Eq. 1)."""
        elements = self.branch.output_channels * self.branch.output_size ** 2
        return elements / BITS_PER_BYTE

    def raw_input_bytes(self) -> float:
        """Size of the raw sensor input (cloud-offloading baseline payload)."""
        return float(self.branch.in_channels * self.branch.input_size ** 2)


class AggregatorNode(ComputeNode):
    """The local aggregator, a lightweight gateway: the device tier charges
    it for fusing the per-device class scores into the local exit.  That
    work is negligible, so it keeps the base class's high default
    throughput.
    """


class EdgeComputeNode(ComputeNode):
    """An edge (fog) node holding an :class:`~repro.core.ddnn.EdgeModel`."""

    def __init__(
        self,
        name: str,
        model: EdgeModel,
        device_indices: Sequence[int],
        ops_per_second: float = 5e9,
    ) -> None:
        super().__init__(name, ops_per_second)
        self.model = model
        self.operations_per_sample = model.operations_per_sample
        self.device_indices = list(device_indices)

    def feature_bytes(self) -> float:
        """Size of the binarized feature map this edge forwards to the cloud."""
        elements = self.model.output_channels * self.model.output_size ** 2
        return elements / BITS_PER_BYTE


class CloudComputeNode(ComputeNode):
    """The cloud node holding the cloud NN section."""

    def __init__(
        self,
        name: str,
        model: CloudModel,
        ops_per_second: float = 5e10,
    ) -> None:
        super().__init__(name, ops_per_second)
        self.model = model
        self.operations_per_sample = model.operations_per_sample
