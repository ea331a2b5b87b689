"""Binary neural-network layers (BNN / BinaryConnect style).

The DDNN paper runs the device-resident sections of the network with binary
weights and binary activations so that they fit in a few kilobytes of memory.
This module provides:

* :func:`binarize` — deterministic sign binarisation with a straight-through
  estimator (STE) so the layers remain trainable end-to-end,
* :class:`BinaryLinear` and :class:`BinaryConv2d` — layers whose real-valued
  latent weights are binarised to ``{-1, +1}`` in the forward pass,
* :class:`BinaryActivation` — the sign nonlinearity used by the fused eBNN
  blocks,
* memory accounting helpers used to validate the paper's "< 2 KB per end
  device" claim.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .layers import Module, Parameter
from .tensor import Tensor

__all__ = [
    "binarize",
    "BinaryActivation",
    "BinaryLinear",
    "BinaryConv2d",
    "binary_memory_bytes",
]


def binarize(tensor: Tensor, clip_value: float = 1.0) -> Tensor:
    """Binarise a tensor to ``{-1, +1}`` with a straight-through estimator."""
    return tensor.sign_ste(clip_value=clip_value)


class BinaryActivation(Module):
    """Sign activation with straight-through gradient (the eBNN nonlinearity)."""

    def __init__(self, clip_value: float = 1.0) -> None:
        super().__init__()
        self.clip_value = clip_value

    def forward(self, inputs: Tensor) -> Tensor:
        return binarize(inputs, clip_value=self.clip_value)


class BinaryLinear(Module):
    """Fully connected layer with binary ``{-1, +1}`` weights.

    Real-valued latent weights are kept for the optimiser; the forward pass
    binarises them, and gradients flow back through the straight-through
    estimator.  A real-valued bias is retained (its storage cost is small and
    it is absorbed by batch normalisation in the fused blocks).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        weight = init.glorot_uniform(
            (out_features, in_features), fan_in=in_features, fan_out=out_features, rng=rng
        )
        self.weight = Parameter(weight, name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, inputs: Tensor) -> Tensor:
        binary_weight = binarize(self.weight)
        output = inputs.matmul(binary_weight.transpose())
        if self.bias is not None:
            output = output + self.bias
        return output

    def memory_bytes(self) -> float:
        """Deployment size of the binarised layer in bytes (1 bit / weight)."""
        return binary_memory_bytes(self.weight.size, bias_count=0 if self.bias is None else self.bias.size)


class BinaryConv2d(Module):
    """2-D convolution with binary ``{-1, +1}`` weights."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        F._check_window("BinaryConv2d", kernel_size, stride, padding)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        weight = init.he_normal(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in=fan_in, rng=rng
        )
        self.weight = Parameter(weight, name="weight")
        self.bias = Parameter(np.zeros(out_channels), name="bias") if bias else None

    def forward(self, inputs: Tensor) -> Tensor:
        binary_weight = binarize(self.weight)
        return F.conv2d(inputs, binary_weight, self.bias, stride=self.stride, padding=self.padding)

    def memory_bytes(self) -> float:
        """Deployment size of the binarised layer in bytes (1 bit / weight)."""
        return binary_memory_bytes(self.weight.size, bias_count=0 if self.bias is None else self.bias.size)


def binary_memory_bytes(binary_weight_count: int, bias_count: int = 0, float_bytes: int = 4) -> float:
    """Bytes needed to store a binarised layer on an end device.

    Binary weights cost one bit each; any real-valued parameters (biases,
    batch-norm scale/shift) cost ``float_bytes`` each.
    """
    return binary_weight_count / 8.0 + bias_count * float_bytes
