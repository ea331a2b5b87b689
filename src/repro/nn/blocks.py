"""Fused binary blocks used by the DDNN evaluation architecture (paper Fig. 3).

Two block types are defined, exactly as in the paper and in the eBNN work it
builds on:

* **FC block** — a (binary) fully connected layer with ``n`` nodes, batch
  normalisation and binary activation.
* **ConvP block** — a (binary) convolution with ``f`` filters (3x3 kernel,
  stride 1, padding 1), a 3x3 max pooling with stride 2 and padding 1, batch
  normalisation and binary activation.

Both blocks also come in float variants (used for the cloud section in the
mixed-precision extension experiment) selected by ``binary=False``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .binary import BinaryActivation, BinaryConv2d, BinaryLinear, binary_memory_bytes
from .layers import BatchNorm1d, BatchNorm2d, Conv2d, Linear, MaxPool2d, Module, ReLU
from .tensor import Tensor

__all__ = ["FCBlock", "ConvPBlock", "block_memory_bytes"]


def _normalize_and_activate(block: Module, output: Tensor) -> Tensor:
    """A block's BatchNorm and activation; a binary block's BatchNorm and
    sign run as one autograd node."""
    if isinstance(block.activation, BinaryActivation):
        return block.batch_norm(output, sign_clip=block.activation.clip_value)
    return block.activation(block.batch_norm(output))


class FCBlock(Module):
    """Fused binary fully-connected block: linear -> batch norm -> binary activation.

    Parameters
    ----------
    in_features, out_features:
        Layer dimensions.
    binary:
        Use binary weights and binary activation (default) or a float linear
        layer with ReLU, for the mixed-precision cloud variant.
    final:
        If ``True`` the block produces raw (float) pre-activation outputs,
        which is what exit layers need to feed a softmax classifier.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        binary: bool = True,
        final: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.binary = binary
        self.final = final
        if binary:
            self.linear = BinaryLinear(in_features, out_features, rng=rng)
        else:
            self.linear = Linear(in_features, out_features, rng=rng)
        self.batch_norm = BatchNorm1d(out_features)
        self.activation = BinaryActivation() if binary else ReLU()

    def forward(self, inputs: Tensor) -> Tensor:
        output = self.linear(inputs)
        if self.final:
            return self.batch_norm(output)
        return _normalize_and_activate(self, output)

    def memory_bytes(self) -> float:
        """Deployment footprint of the block in bytes."""
        return block_memory_bytes(self)


class ConvPBlock(Module):
    """Fused binary convolution-pool block (paper Fig. 3).

    Convolution: 3x3 kernel, stride 1, padding 1 with ``out_channels`` filters.
    Pooling: 3x3 max pool, stride 2, padding 1 (halves the spatial size).
    Followed by batch normalisation and binary activation.
    """

    CONV_KERNEL = 3
    CONV_STRIDE = 1
    CONV_PADDING = 1
    POOL_KERNEL = 3
    POOL_STRIDE = 2
    POOL_PADDING = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        binary: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.binary = binary
        if binary:
            self.conv = BinaryConv2d(
                in_channels,
                out_channels,
                kernel_size=self.CONV_KERNEL,
                stride=self.CONV_STRIDE,
                padding=self.CONV_PADDING,
                rng=rng,
            )
        else:
            self.conv = Conv2d(
                in_channels,
                out_channels,
                kernel_size=self.CONV_KERNEL,
                stride=self.CONV_STRIDE,
                padding=self.CONV_PADDING,
                rng=rng,
            )
        self.pool = MaxPool2d(self.POOL_KERNEL, stride=self.POOL_STRIDE, padding=self.POOL_PADDING)
        self.batch_norm = BatchNorm2d(out_channels)
        self.activation = BinaryActivation() if binary else ReLU()

    def forward(self, inputs: Tensor) -> Tensor:
        return _normalize_and_activate(self, self.pool(self.conv(inputs)))

    def output_spatial_size(self, input_size: int) -> int:
        """Spatial size after the conv (same-size) and the stride-2 pooling."""
        from .functional import conv_output_size

        after_conv = conv_output_size(input_size, self.CONV_KERNEL, self.CONV_STRIDE, self.CONV_PADDING)
        return conv_output_size(after_conv, self.POOL_KERNEL, self.POOL_STRIDE, self.POOL_PADDING)

    def memory_bytes(self) -> float:
        """Deployment footprint of the block in bytes."""
        return block_memory_bytes(self)


def block_memory_bytes(block: Module, float_bytes: int = 4) -> float:
    """Deployment size of a block in bytes.

    Binary weights are counted at one bit each; all other parameters
    (biases, batch-norm scale/shift) and batch-norm running statistics are
    counted at ``float_bytes`` bytes each.
    """
    total = 0.0
    for module in block.modules():
        if isinstance(module, (BinaryLinear, BinaryConv2d)):
            bias_count = 0 if module.bias is None else module.bias.size
            total += binary_memory_bytes(module.weight.size, bias_count=bias_count, float_bytes=float_bytes)
        elif isinstance(module, (Linear, Conv2d)):
            count = module.weight.size + (0 if module.bias is None else module.bias.size)
            total += count * float_bytes
        elif isinstance(module, (BatchNorm1d, BatchNorm2d)):
            count = module.gamma.size + module.beta.size
            count += module.running_mean.size + module.running_var.size
            total += count * float_bytes
    return total
