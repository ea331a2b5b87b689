"""The distributed deep neural network (DDNN) model.

This module implements the paper's evaluation architecture (Figure 4) and its
generalisations to the six hierarchy configurations of Figure 2:

* each **end device** runs one or more fused binary ConvP blocks followed by
  an FC block that emits a per-device class-score vector;
* a **local aggregator** fuses the per-device score vectors into the local
  exit's logits;
* the per-device ConvP feature maps are forwarded (conceptually, over the
  network) to the **edge** and/or the **cloud**, aggregated there, processed
  by further ConvP/FC blocks, and classified at that tier's exit.

The model itself is hierarchy-agnostic: it computes every exit's logits in a
single forward pass for training (joint multi-exit loss) and exposes the
per-device intermediate outputs so the staged inference engine and the
hierarchy simulator can reproduce the distributed behaviour faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.blocks import ConvPBlock, FCBlock, block_memory_bytes
from ..nn.layers import Module, Sequential
from ..nn.tensor import Tensor
from .aggregation import Aggregator, make_aggregator
from .config import DDNNConfig, DDNNTopology

__all__ = ["DeviceBranch", "EdgeModel", "CloudModel", "DDNNOutput", "DDNN", "build_ddnn"]

ViewsLike = Union[np.ndarray, Sequence[Tensor]]


class DeviceBranch(Module):
    """The NN section mapped onto a single end device.

    It consists of ``device_conv_blocks`` ConvP blocks followed by an FC
    block producing a vector with one entry per class (the "exit output"
    sent to the local aggregator).  The final ConvP activation map is the
    intermediate output forwarded to the next tier when the local exit is
    not confident.
    """

    def __init__(
        self,
        in_channels: int,
        filters: int,
        input_size: int,
        num_classes: int,
        conv_blocks: int = 1,
        binary: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.filters = filters
        self.input_size = input_size
        self.num_classes = num_classes

        blocks: List[Module] = []
        channels = in_channels
        size = input_size
        for _ in range(conv_blocks):
            block = ConvPBlock(channels, filters, binary=binary, rng=rng)
            blocks.append(block)
            size = block.output_spatial_size(size)
            channels = filters
        self.features = Sequential(*blocks)
        self.output_size = size
        self.output_channels = channels
        self.classifier = FCBlock(
            channels * size * size, num_classes, binary=binary, final=True, rng=rng
        )
        #: Operations one sample costs (one per weight): the constant the
        #: hierarchy's compute-latency model multiplies by the batch size.
        self.operations_per_sample = self.num_parameters()

    def forward(self, inputs: Tensor) -> Tuple[Tensor, Tensor]:
        """Return ``(feature_map, class_scores)`` for a batch of views."""
        feature_map = self.features(inputs)
        scores = self.classifier(feature_map.flatten(start_dim=1))
        return feature_map, scores

    def memory_bytes(self) -> float:
        """Deployment footprint of this device's NN section in bytes."""
        return block_memory_bytes(self)


class _UpperTier(Module):
    """Shared implementation of the edge and cloud NN sections.

    A stack of ConvP blocks over the aggregated feature map, followed by an
    optional hidden FC block and a final FC block producing exit logits.
    """

    def __init__(
        self,
        in_channels: int,
        input_size: int,
        filters: int,
        conv_blocks: int,
        num_classes: int,
        hidden_units: int = 0,
        binary: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        blocks: List[Module] = []
        channels = in_channels
        size = input_size
        for _ in range(conv_blocks):
            if size < 2:
                break
            block = ConvPBlock(channels, filters, binary=binary, rng=rng)
            blocks.append(block)
            size = block.output_spatial_size(size)
            channels = filters
        self.features = Sequential(*blocks)
        self.output_channels = channels
        self.output_size = size
        flattened = channels * size * size
        if hidden_units > 0:
            self.hidden = FCBlock(flattened, hidden_units, binary=binary, rng=rng)
            classifier_in = hidden_units
        else:
            self.hidden = None
            classifier_in = flattened
        self.classifier = FCBlock(classifier_in, num_classes, binary=binary, final=True, rng=rng)
        #: Operations one sample costs (one per weight), as on a device branch.
        self.operations_per_sample = self.num_parameters()

    def forward(self, inputs: Tensor) -> Tuple[Tensor, Tensor]:
        """Return ``(feature_map, logits)`` for an aggregated input map."""
        feature_map = self.features(inputs)
        hidden = feature_map.flatten(start_dim=1)
        if self.hidden is not None:
            hidden = self.hidden(hidden)
        logits = self.classifier(hidden)
        return feature_map, logits


class EdgeModel(_UpperTier):
    """The NN section mapped onto an edge (fog) node."""


class CloudModel(_UpperTier):
    """The NN section mapped onto the cloud."""


@dataclass
class DDNNOutput:
    """All intermediate and exit outputs of one DDNN forward pass.

    Attributes
    ----------
    exit_logits:
        Logits at each exit, ordered local -> edge -> cloud (whichever exist).
    exit_names:
        Parallel list of exit names.
    device_scores:
        Per-device class-score tensors (inputs to the local aggregator).
    device_features:
        Per-device ConvP feature maps (payloads sent up the hierarchy).
    edge_features:
        Per-edge feature maps (present only for edge topologies).
    """

    exit_logits: List[Tensor]
    exit_names: List[str]
    device_scores: List[Tensor] = field(default_factory=list)
    device_features: List[Tensor] = field(default_factory=list)
    edge_features: List[Tensor] = field(default_factory=list)

    @property
    def final_logits(self) -> Tensor:
        """Logits of the last (always-classifying) exit."""
        return self.exit_logits[-1]


class DDNN(Module):
    """A jointly trained DNN partitioned over devices, optional edges and cloud.

    The constructor takes a :class:`~repro.core.config.DDNNConfig`; use
    :func:`build_ddnn` for a convenient entry point.  The forward pass accepts
    a multi-view batch of shape ``(N, num_devices, C, H, W)`` (or a list of
    per-device tensors) and returns a :class:`DDNNOutput` containing every
    exit's logits, which is what the joint training loss consumes.
    """

    def __init__(self, config: DDNNConfig) -> None:
        super().__init__()
        self.config = config
        topology = config.topology
        rng = np.random.default_rng(config.seed)

        # ---------------- device tier ---------------- #
        self._device_branches: List[DeviceBranch] = []
        for device_index in range(config.num_devices):
            branch = DeviceBranch(
                config.input_channels,
                config.device_filters,
                config.input_size,
                config.num_classes,
                conv_blocks=config.device_conv_blocks,
                binary=config.binary_devices,
                rng=rng,
            )
            setattr(self, f"device{device_index}", branch)
            self._device_branches.append(branch)
        device_map_size = self._device_branches[0].output_size
        device_channels = self._device_branches[0].output_channels

        # ---------------- local exit ---------------- #
        self.has_local_exit = topology.has_local_exit
        if self.has_local_exit:
            self.local_aggregator = make_aggregator(
                config.local_aggregation,
                config.num_devices,
                feature_dim=config.num_classes,
                project_concat=True,
                rng=rng,
            )
        else:
            self.local_aggregator = None

        # ---------------- edge tier ---------------- #
        self.has_edge = topology.has_edge
        self.num_edges = topology.num_edges if topology.has_edge else 0
        self._edge_models: List[EdgeModel] = []
        self._edge_aggregators: List[Aggregator] = []
        self._edge_device_groups: List[List[int]] = []
        if self.has_edge:
            groups = _partition_devices(config.num_devices, self.num_edges)
            self._edge_device_groups = groups
            for edge_index, group in enumerate(groups):
                aggregator = make_aggregator(
                    config.edge_aggregation,
                    len(group),
                    feature_dim=device_channels,
                    project_concat=False,
                    rng=rng,
                )
                edge_in_channels = aggregator.output_channels(device_channels)
                edge = EdgeModel(
                    edge_in_channels,
                    device_map_size,
                    config.edge_filters,
                    config.edge_conv_blocks,
                    config.num_classes,
                    hidden_units=0,
                    binary=config.binary_edge,
                    rng=rng,
                )
                setattr(self, f"edge_aggregator{edge_index}", aggregator)
                setattr(self, f"edge{edge_index}", edge)
                self._edge_aggregators.append(aggregator)
                self._edge_models.append(edge)
            # Exit logits of multiple edges are fused with max pooling (same
            # class-score semantics as the local exit).
            self.edge_exit_aggregator = make_aggregator("MP", self.num_edges)
            cloud_input_channels_per_source = self._edge_models[0].output_channels
            cloud_sources = self.num_edges
            cloud_input_size = self._edge_models[0].output_size
        else:
            cloud_input_channels_per_source = device_channels
            cloud_sources = config.num_devices
            cloud_input_size = device_map_size

        # ---------------- cloud tier ---------------- #
        self.cloud_aggregator = make_aggregator(
            config.cloud_aggregation,
            cloud_sources,
            feature_dim=cloud_input_channels_per_source,
            project_concat=False,
            rng=rng,
        )
        cloud_in_channels = self.cloud_aggregator.output_channels(cloud_input_channels_per_source)
        self.cloud = CloudModel(
            cloud_in_channels,
            cloud_input_size,
            config.cloud_filters,
            config.cloud_conv_blocks,
            config.num_classes,
            hidden_units=config.cloud_hidden_units,
            binary=config.binary_cloud,
            rng=rng,
        )

        self.exit_names: List[str] = []
        if self.has_local_exit:
            self.exit_names.append("local")
        if self.has_edge:
            self.exit_names.append("edge")
        self.exit_names.append("cloud")
        #: Bumped by :meth:`_weights_changed`; compiled plans and the bundles
        #: made from them carry the version they snapshot.
        self._weights_version = 0
        #: dtype name -> compiled plan (see :func:`repro.compile.cache.compiled_plan_for`).
        self._compiled_plans: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    @property
    def device_branches(self) -> List[DeviceBranch]:
        """The per-device NN sections, in device order."""
        return self._device_branches

    @property
    def edge_models(self) -> List[EdgeModel]:
        """The per-edge NN sections (empty for topologies without an edge)."""
        return self._edge_models

    @property
    def edge_device_groups(self) -> List[List[int]]:
        """Device indices attached to each edge node."""
        return self._edge_device_groups

    @property
    def num_exits(self) -> int:
        return len(self.exit_names)

    # ------------------------------------------------------------------ #
    def _split_views(self, views: ViewsLike) -> List[Tensor]:
        if isinstance(views, (list, tuple)):
            tensors = [v if isinstance(v, Tensor) else Tensor(v) for v in views]
        else:
            array = np.asarray(views, dtype=np.float64)
            if array.ndim != 5:
                raise ValueError(
                    f"expected views of shape (N, D, C, H, W), got {array.shape}"
                )
            tensors = [Tensor(array[:, index]) for index in range(array.shape[1])]
        if len(tensors) != self.config.num_devices:
            raise ValueError(
                f"model has {self.config.num_devices} devices but received "
                f"{len(tensors)} view streams"
            )
        return tensors

    def first_exit_logits(self, views: ViewsLike) -> Tensor:
        """The first exit's logits, computing no more of the model than they
        need: the device branches and the local aggregator when the model has
        a local exit (the whole forward otherwise).  Bit-identical to
        ``forward(views).exit_logits[0]``."""
        if not self.has_local_exit:
            return self.forward(views).exit_logits[0]
        return self.local_aggregator(
            [
                branch(device_input)[1]
                for branch, device_input in zip(
                    self._device_branches, self._split_views(views)
                )
            ]
        )

    def forward(self, views: ViewsLike) -> DDNNOutput:
        """Compute every exit's logits for a multi-view batch."""
        device_inputs = self._split_views(views)

        device_features: List[Tensor] = []
        device_scores: List[Tensor] = []
        for branch, device_input in zip(self._device_branches, device_inputs):
            feature_map, scores = branch(device_input)
            device_features.append(feature_map)
            device_scores.append(scores)

        exit_logits: List[Tensor] = []
        exit_names: List[str] = []

        if self.has_local_exit:
            local_logits = self.local_aggregator(device_scores)
            exit_logits.append(local_logits)
            exit_names.append("local")

        edge_features: List[Tensor] = []
        if self.has_edge:
            edge_scores: List[Tensor] = []
            for aggregator, edge, group in zip(
                self._edge_aggregators, self._edge_models, self._edge_device_groups
            ):
                aggregated = aggregator([device_features[i] for i in group])
                feature_map, logits = edge(aggregated)
                edge_features.append(feature_map)
                edge_scores.append(logits)
            if len(edge_scores) == 1:
                edge_logits = edge_scores[0]
            else:
                edge_logits = self.edge_exit_aggregator(edge_scores)
            exit_logits.append(edge_logits)
            exit_names.append("edge")
            cloud_sources = edge_features
        else:
            cloud_sources = device_features

        aggregated = self.cloud_aggregator(cloud_sources)
        _, cloud_logits = self.cloud(aggregated)
        exit_logits.append(cloud_logits)
        exit_names.append("cloud")

        return DDNNOutput(
            exit_logits=exit_logits,
            exit_names=exit_names,
            device_scores=device_scores,
            device_features=device_features,
            edge_features=edge_features,
        )

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """:meth:`Module.load_state_dict`, then :meth:`_weights_changed`."""
        super().load_state_dict(state)
        self._weights_changed()

    def _weights_changed(self) -> None:
        """After the weights changed in place (an epoch, a load): drop the
        compiled plans, which snapshot the old weights, and bump the weights
        version, so every bundle and memo made from a plan (a deployment's,
        a serving worker's, the experiment harness's oracles) can tell old
        from new."""
        # Version first: a plan compiled into the new table must never carry
        # the old version.
        self._weights_version += 1
        self._compiled_plans = {}

    # ------------------------------------------------------------------ #
    def device_memory_bytes(self) -> List[float]:
        """Per-device deployment footprint in bytes (paper claims < 2 KB)."""
        return [branch.memory_bytes() for branch in self._device_branches]

    def summary(self) -> Dict[str, object]:
        """A small dictionary describing the instantiated architecture."""
        return {
            "topology": self.config.topology.name,
            "scheme": self.config.scheme,
            "num_devices": self.config.num_devices,
            "num_edges": self.num_edges,
            "device_filters": self.config.device_filters,
            "cloud_filters": self.config.cloud_filters,
            "exits": list(self.exit_names),
            "parameters": self.num_parameters(),
            "device_memory_bytes": self.device_memory_bytes(),
        }


def _partition_devices(num_devices: int, num_edges: int) -> List[List[int]]:
    """Assign devices to edges contiguously and as evenly as possible."""
    if num_edges < 1:
        raise ValueError("num_edges must be at least 1")
    if num_edges > num_devices:
        raise ValueError("cannot have more edges than devices")
    groups: List[List[int]] = [[] for _ in range(num_edges)]
    for device_index in range(num_devices):
        groups[device_index * num_edges // num_devices].append(device_index)
    return groups


def build_ddnn(config: Optional[DDNNConfig] = None, **overrides) -> DDNN:
    """Build a DDNN from a config, applying keyword overrides.

    Examples
    --------
    >>> model = build_ddnn(num_devices=4, device_filters=2, local_aggregation="MP")
    """
    if config is None:
        config = DDNNConfig(**overrides)
    elif overrides:
        values = {**config.__dict__, **overrides}
        config = DDNNConfig(**values)
    return DDNN(config)
