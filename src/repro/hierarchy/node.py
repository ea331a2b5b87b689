"""Compute nodes of the distributed hierarchy (end devices, edge, cloud).

Each node owns the NN section mapped onto it (a reference into the trained
:class:`~repro.core.ddnn.DDNN`) plus a simple compute-speed model used to
estimate per-sample processing latency.  The byte-level communication is
handled by :class:`~repro.hierarchy.network.NetworkFabric`; nodes only expose
the sizes of the payloads they emit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.aggregation import Aggregator
from ..core.communication import BITS_PER_BYTE, FLOAT_BYTES
from ..core.ddnn import CloudModel, DeviceBranch, EdgeModel
from ..nn.tensor import Tensor, no_grad

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
        self.failed = False
        # Stats counters are read-modify-write; concurrent worker threads
        # (the serving fabric's thread backend) share the node objects, so
        # accounting is serialized to keep the totals exact.
        self._stats_lock = threading.Lock()

    def fail(self) -> None:
        """Mark this node as failed; it stops producing output."""
        self.failed = True

    def restore(self) -> None:
        """Clear the failure flag."""
        self.failed = False

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
        status = "failed" if self.failed else "ok"
        return f"{type(self).__name__}(name={self.name!r}, status={status})"


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

    # -- compute --------------------------------------------------------- #
    def process(self, view: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
        """Run the device's NN section on one view (or a batch of views).

        Returns ``(feature_map, class_scores, compute_seconds)``.  A failed
        device returns zero scores and a zero feature map: it transmits
        nothing useful, which is how the fault-tolerance experiment models a
        dead camera.
        """
        view = np.asarray(view, dtype=np.float64)
        if view.ndim == 3:
            view = view[None, ...]
        batch = len(view)
        if self.failed:
            features = np.zeros(
                (batch, self.branch.output_channels, self.branch.output_size, self.branch.output_size)
            )
            scores = np.zeros((batch, self.branch.num_classes))
            return features, scores, 0.0
        with no_grad():
            feature_map, scores = self.branch(Tensor(view))
        operations = self.operations_per_sample * batch
        seconds = self._account(operations, samples=batch)
        return feature_map.data, scores.data, seconds


class AggregatorNode(ComputeNode):
    """A (local or upper-tier) aggregator plus exit classifier host.

    The local aggregator is a lightweight gateway process: it fuses the
    per-device class-score vectors and applies the entropy-threshold rule.
    Aggregation work is negligible, so the default throughput is high.
    """

    def __init__(self, name: str, aggregator: Aggregator, ops_per_second: float = 1e9) -> None:
        super().__init__(name, ops_per_second)
        self.aggregator = aggregator

    def aggregate(self, device_outputs: Sequence[np.ndarray]) -> Tuple[np.ndarray, float]:
        """Fuse device outputs; returns ``(fused_array, compute_seconds)``."""
        arrays = [np.asarray(output, dtype=np.float64) for output in device_outputs]
        with no_grad():
            fused_data = self.aggregator([Tensor(array) for array in arrays]).data
        operations = sum(array.size for array in arrays)
        seconds = self._account(operations, samples=len(arrays[0]))
        return fused_data, seconds


class EdgeComputeNode(ComputeNode):
    """An edge (fog) node holding an :class:`~repro.core.ddnn.EdgeModel`."""

    def __init__(
        self,
        name: str,
        aggregator: Aggregator,
        model: EdgeModel,
        device_indices: Sequence[int],
        ops_per_second: float = 5e9,
    ) -> None:
        super().__init__(name, ops_per_second)
        self.aggregator = aggregator
        self.model = model
        self.operations_per_sample = model.operations_per_sample
        self.device_indices = list(device_indices)

    def feature_bytes(self) -> float:
        """Size of the binarized feature map this edge forwards to the cloud."""
        elements = self.model.output_channels * self.model.output_size ** 2
        return elements / BITS_PER_BYTE

    def process(self, device_features: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, float]:
        """Aggregate its devices' features and run the edge NN section."""
        arrays = [np.asarray(f, dtype=np.float64) for f in device_features]
        with no_grad():
            aggregated = self.aggregator([Tensor(array) for array in arrays])
            feature_map, logits = self.model(aggregated)
        batch = len(arrays[0])
        operations = self.operations_per_sample * batch
        seconds = self._account(operations, samples=batch)
        return feature_map.data, logits.data, seconds


class CloudComputeNode(ComputeNode):
    """The cloud node holding the final aggregator and the cloud NN section."""

    def __init__(
        self,
        name: str,
        aggregator: Aggregator,
        model: CloudModel,
        ops_per_second: float = 5e10,
    ) -> None:
        super().__init__(name, ops_per_second)
        self.aggregator = aggregator
        self.model = model
        self.operations_per_sample = model.operations_per_sample

    def process(self, source_features: Sequence[np.ndarray]) -> Tuple[np.ndarray, float]:
        """Aggregate incoming feature maps and produce the cloud exit logits."""
        arrays = [np.asarray(f, dtype=np.float64) for f in source_features]
        with no_grad():
            aggregated = self.aggregator([Tensor(array) for array in arrays])
            _, logits = self.model(aggregated)
        batch = len(arrays[0])
        operations = self.operations_per_sample * batch
        seconds = self._account(operations, samples=batch)
        return logits.data, seconds
