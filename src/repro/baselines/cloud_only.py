"""Cloud-only baseline: offload raw sensor data and run the whole DNN remotely.

This is configuration (a) of the paper's Figure 2 and the communication
baseline of Section IV-H: every device transmits its raw 32x32 RGB view
(3072 bytes) to the cloud, where a conventional (non-distributed) DNN fuses
the views and classifies.  The DDNN reproduction implements it with the same
building blocks as the DDNN itself so accuracy comparisons are apples to
apples: per-device ConvP feature extractors, concatenation fusion and a cloud
stack — but trained and evaluated with a single (cloud) exit and with the
communication cost of raw-input offloading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.communication import raw_offload_bytes
from ..core.config import DDNNConfig, DDNNTopology, TrainingConfig
from ..core.ddnn import DDNN, build_ddnn
from ..core.training import DDNNTrainer
from ..datasets.mvmc import MVMCDataset
from ..nn.metrics import accuracy
from ..nn.tensor import no_grad

__all__ = ["CloudOnlyBaseline"]


@dataclass
class CloudOnlyResult:
    """Accuracy and communication of the cloud-only baseline."""

    accuracy: float
    bytes_per_device_per_sample: float


class CloudOnlyBaseline:
    """A standard DNN in the cloud fed with raw offloaded sensor input."""

    def __init__(
        self,
        num_devices: int = 6,
        num_classes: int = 3,
        input_channels: int = 3,
        input_size: int = 32,
        device_filters: int = 4,
        cloud_filters: int = 16,
        cloud_conv_blocks: int = 2,
        cloud_hidden_units: int = 64,
        seed: int = 0,
    ) -> None:
        config = DDNNConfig(
            num_devices=num_devices,
            num_classes=num_classes,
            input_channels=input_channels,
            input_size=input_size,
            device_filters=device_filters,
            cloud_filters=cloud_filters,
            cloud_conv_blocks=cloud_conv_blocks,
            cloud_hidden_units=cloud_hidden_units,
            cloud_aggregation="CC",
            topology=DDNNTopology.from_name("cloud_only"),
            seed=seed,
        )
        self.model: DDNN = build_ddnn(config)
        self.config = config

    def fit(self, train_set: MVMCDataset, config: Optional[TrainingConfig] = None) -> "CloudOnlyBaseline":
        """Train the cloud DNN end-to-end (single exit)."""
        trainer = DDNNTrainer(self.model, config)
        trainer.fit(train_set)
        return self

    def predict(self, dataset: MVMCDataset, batch_size: int = 64) -> np.ndarray:
        """Predictions of the cloud exit for every sample."""
        self.model.eval()
        predictions = []
        with no_grad():
            for start in range(0, len(dataset), batch_size):
                output = self.model(dataset.images[start : start + batch_size])
                predictions.append(output.final_logits.data.argmax(axis=1))
        return np.concatenate(predictions)

    def evaluate(self, dataset: MVMCDataset) -> CloudOnlyResult:
        """Accuracy plus the per-device raw-offload communication cost."""
        predictions = self.predict(dataset)
        return CloudOnlyResult(
            accuracy=accuracy(predictions, dataset.labels),
            bytes_per_device_per_sample=self.bytes_per_device_per_sample(),
        )

    def bytes_per_device_per_sample(self) -> float:
        """Raw input size each device ships to the cloud for every sample."""
        return raw_offload_bytes(self.config.input_channels, self.config.input_size)

