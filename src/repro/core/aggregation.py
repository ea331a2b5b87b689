"""Aggregation schemes for combining output from multiple end devices.

The paper (Section III-B) defines three ways to fuse the per-device vectors
(or feature maps) before an exit point:

* **Max pooling (MP)** — component-wise maximum over devices.
* **Average pooling (AP)** — component-wise mean over devices.
* **Concatenation (CC)** — concatenate the device outputs; because this
  expands the dimensionality, a linear layer (for vectors) or the first
  convolution of the next stage (for feature maps) maps it back.

All aggregators operate on a list of same-shaped tensors, one per device, and
support both 2-D ``(N, F)`` vectors (local exit) and 4-D ``(N, C, H, W)``
feature maps (cloud/edge input).  They are :class:`~repro.nn.layers.Module`
instances so any projection parameters they own are trained jointly with the
rest of the DDNN.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn.layers import Linear, Module
from ..nn.tensor import Tensor, concatenate, maximum

__all__ = [
    "Aggregator",
    "MaxPoolAggregator",
    "AveragePoolAggregator",
    "ConcatAggregator",
    "make_aggregator",
    "AGGREGATION_SCHEMES",
]

#: Canonical two-letter scheme codes used in the paper's Table I.
AGGREGATION_SCHEMES = ("MP", "AP", "CC")


class Aggregator(Module):
    """Base class for device-output aggregation schemes."""

    #: Two-letter code used in scheme strings such as ``"MP-CC"``.
    code: str = ""

    def __init__(self, num_devices: int) -> None:
        super().__init__()
        if num_devices < 1:
            raise ValueError("an aggregator needs at least one device input")
        self.num_devices = num_devices

    def forward(self, device_outputs: Sequence[Tensor]) -> Tensor:
        raise NotImplementedError

    def _check_inputs(self, device_outputs: Sequence[Tensor]) -> List[Tensor]:
        outputs = list(device_outputs)
        if len(outputs) != self.num_devices:
            raise ValueError(
                f"{type(self).__name__} configured for {self.num_devices} devices "
                f"but received {len(outputs)} inputs"
            )
        shapes = {tuple(t.shape) for t in outputs}
        if len(shapes) != 1:
            raise ValueError(f"device outputs must share a shape, got {sorted(shapes)}")
        return outputs

    def output_channels(self, input_channels: int) -> int:
        """Number of channels/features produced for a given per-device width."""
        return input_channels


class MaxPoolAggregator(Aggregator):
    """Component-wise maximum over device outputs (scheme ``MP``)."""

    code = "MP"

    def forward(self, device_outputs: Sequence[Tensor]) -> Tensor:
        outputs = self._check_inputs(device_outputs)
        if len(outputs) == 1:
            return outputs[0]
        return maximum(outputs)


class AveragePoolAggregator(Aggregator):
    """Component-wise mean over device outputs (scheme ``AP``)."""

    code = "AP"

    def forward(self, device_outputs: Sequence[Tensor]) -> Tensor:
        outputs = self._check_inputs(device_outputs)
        if len(outputs) == 1:
            return outputs[0]
        total: Optional[Tensor] = None
        for output in outputs:
            total = output if total is None else total + output
        return total * (1.0 / len(outputs))


class ConcatAggregator(Aggregator):
    """Concatenation over device outputs (scheme ``CC``).

    Parameters
    ----------
    num_devices:
        Number of device inputs.
    feature_dim:
        Per-device feature dimension.  Required when ``project=True`` so the
        projection layer can be sized.
    project:
        If ``True`` (used at the local exit on class-probability vectors), a
        linear layer maps the concatenated vector back to ``feature_dim``
        dimensions, exactly as described in the paper.  If ``False`` (used at
        the cloud on conv feature maps), the concatenation is returned as-is
        and the following convolution absorbs the expanded channel count.
    """

    code = "CC"

    def __init__(
        self,
        num_devices: int,
        feature_dim: Optional[int] = None,
        project: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_devices)
        self.project = project
        self.feature_dim = feature_dim
        if project:
            if feature_dim is None:
                raise ValueError("feature_dim is required when project=True")
            self.projection = Linear(num_devices * feature_dim, feature_dim, rng=rng)
        else:
            self.projection = None

    def forward(self, device_outputs: Sequence[Tensor]) -> Tensor:
        outputs = self._check_inputs(device_outputs)
        combined = concatenate(outputs, axis=1)
        if self.projection is not None:
            if combined.ndim != 2:
                raise ValueError(
                    "projection is only supported for 2-D (N, F) device outputs; "
                    f"got a tensor with {combined.ndim} dimensions"
                )
            combined = self.projection(combined)
        return combined

    def output_channels(self, input_channels: int) -> int:
        if self.project:
            return self.feature_dim if self.feature_dim is not None else input_channels
        return input_channels * self.num_devices


def make_aggregator(
    scheme: str,
    num_devices: int,
    feature_dim: Optional[int] = None,
    project_concat: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Aggregator:
    """Build an aggregator from its two-letter scheme code (``MP``/``AP``/``CC``)."""
    scheme = scheme.upper()
    if scheme == "MP":
        return MaxPoolAggregator(num_devices)
    if scheme == "AP":
        return AveragePoolAggregator(num_devices)
    if scheme == "CC":
        return ConcatAggregator(
            num_devices, feature_dim=feature_dim, project=project_concat, rng=rng
        )
    raise ValueError(f"unknown aggregation scheme '{scheme}'; expected one of {AGGREGATION_SCHEMES}")
