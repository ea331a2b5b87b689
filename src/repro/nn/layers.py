"""Neural-network layer library built on the autodiff :class:`~repro.nn.tensor.Tensor`.

The layer API intentionally mirrors the familiar ``Module`` / ``forward``
pattern so that the DDNN model code reads like conventional deep-learning
code while remaining a self-contained NumPy implementation.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor, _unbroadcast

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Identity",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
]


class Parameter(Tensor):
    """A trainable tensor (always requires gradients)."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses implement :meth:`forward`.  Parameters and sub-modules that are
    assigned as attributes are registered automatically and show up in
    :meth:`parameters`, :meth:`named_parameters` and :meth:`state_dict`.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # -- attribute registration ---------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array that is part of the module state."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer in place (keeps state_dict consistent)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    # -- forward -------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- traversal ------------------------------------------------------ #
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buffer in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), buffer
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_buffers(child_prefix)

    # -- train / eval ---------------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- state ------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of parameter and buffer names to arrays."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = np.asarray(buffer).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters and buffers produced by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = []
        for name, param in params.items():
            if name not in state:
                missing.append(name)
                continue
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter '{name}': "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.astype(param.data.dtype).copy()
        if missing:
            raise KeyError(f"state_dict is missing parameters: {missing}")
        for prefix, module in self.named_modules():
            for buffer_name in list(module._buffers):
                full = f"{prefix}.{buffer_name}" if prefix else buffer_name
                if full in state:
                    module._set_buffer(buffer_name, np.asarray(state[full]))

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(param.size for param in self.parameters())


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._layers.append(module)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for layer in self._layers:
            output = layer(output)
        return output

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]


class Identity(Module):
    """Pass-through layer (useful as an optional component placeholder)."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

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
        output = inputs.matmul(self.weight.transpose())
        if self.bias is not None:
            output = output + self.bias
        return output


class Conv2d(Module):
    """2-D convolution layer over ``(N, C, H, W)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        F._check_window("Conv2d", kernel_size, stride, padding)
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
        return F.conv2d(inputs, self.weight, self.bias, stride=self.stride, padding=self.padding)


class MaxPool2d(Module):
    """2-D max pooling."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        F._check_window("MaxPool2d", kernel_size, self.stride, padding, pool=True)

    def forward(self, inputs: Tensor) -> Tensor:
        return F.max_pool2d(inputs, self.kernel_size, self.stride, self.padding)


class AvgPool2d(Module):
    """2-D average pooling."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        F._check_window("AvgPool2d", kernel_size, self.stride, padding)

    def forward(self, inputs: Tensor) -> Tensor:
        return F.avg_pool2d(inputs, self.kernel_size, self.stride, self.padding)


class _BatchNorm(Module):
    """Shared implementation for 1-D and 2-D batch normalisation."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), name="gamma")
        self.beta = Parameter(np.zeros(num_features), name="beta")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _normalize(
        self,
        inputs: Tensor,
        reduce_axes: Tuple[int, ...],
        shape: Tuple[int, ...],
        sign_clip: Optional[float],
    ) -> Tensor:
        """``gamma * (x - mean) / sqrt(var + eps) + beta`` -- and, with
        ``sign_clip``, the sign STE behind it (:meth:`Tensor.sign_ste`) -- as
        one autograd node.

        Forward and backward issue the numpy ops of the graph that composing
        ``Tensor`` ops would record (``x.mean()``, ``x - mean``, ``** 0.5``,
        ``/``, ``*``, ``+``, then ``sign_ste``), on the same operands, and
        accumulate every gradient in that graph's order: each reduction is
        the graph's ``_unbroadcast``, the squares' two gradient terms are
        added one after the other, and the input receives its two terms (the
        centred path, then the mean's) as two accumulations.  So every value
        is bit-identical to the composed graph's; the node only skips its
        bookkeeping: the per-node copies and broadcasts, and one array per
        intermediate kept alive for the backward.
        """
        x = inputs.data
        gamma = self.gamma.data.reshape(shape)
        beta = self.beta.data.reshape(shape)
        training = self.training
        if training:
            mean = x.mean(axis=reduce_axes)
            var = x.var(axis=reduce_axes)
            self._set_buffer(
                "running_mean", (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self._set_buffer(
                "running_var", (1 - self.momentum) * self.running_var + self.momentum * var
            )
            inverse = 1.0 / math.prod(x.shape[axis] for axis in reduce_axes)
            centered = x + -(x.sum(axis=reduce_axes, keepdims=True) * inverse)
            squares = centered * centered
            shifted = squares.sum(axis=reduce_axes, keepdims=True) * inverse + self.eps
            std = shifted ** 0.5
        else:
            centered = x + -self.running_mean.reshape(shape)
            std = np.sqrt(self.running_var.reshape(shape) + self.eps)
        normalized = centered / std
        out = normalized * gamma
        out += beta
        if sign_clip is not None:
            mask = np.abs(out) <= sign_clip
            # np.where(out >= 0, 1.0, -1.0), without its slow scalar operands.
            out = (out >= 0).astype(np.float64)
            out *= 2.0
            out -= 1.0

        def backward(grad: np.ndarray) -> None:
            if sign_clip is not None:
                grad = grad * mask
            if self.beta.requires_grad:
                self.beta._accumulate_grad(_unbroadcast(grad, shape).reshape(self.beta.shape))
            if self.gamma.requires_grad:
                self.gamma._accumulate_grad(
                    _unbroadcast(grad * normalized, shape).reshape(self.gamma.shape)
                )
            if not inputs.requires_grad:
                return
            scaled = grad * gamma
            grad_centered = scaled / std
            if not training:
                inputs._accumulate_grad(grad_centered)
                return
            # -scaled * centered / std ** 2, in place.
            np.negative(scaled, out=scaled)
            scaled *= centered
            scaled /= std ** 2
            grad_squares = _unbroadcast(scaled, shape) * 0.5 * shifted ** (0.5 - 1) * inverse
            # centered * centered: one term per operand.
            term = np.multiply(grad_squares, centered, out=scaled)
            grad_centered += term
            grad_centered += term
            inputs._accumulate_grad(grad_centered)
            grad_mean = -_unbroadcast(grad_centered, shape) * inverse
            inputs._accumulate_grad(np.broadcast_to(grad_mean, x.shape))

        return Tensor._make_from_op(out, (inputs, self.gamma, self.beta), backward)


class BatchNorm1d(_BatchNorm):
    """Batch normalisation over ``(N, F)`` inputs."""

    def forward(self, inputs: Tensor, sign_clip: Optional[float] = None) -> Tensor:
        """Normalise; with ``sign_clip``, binarise the result too (the sign
        STE of :class:`~repro.nn.binary.BinaryActivation`, in the same node)."""
        if inputs.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, F) input, got shape {inputs.shape}")
        return self._normalize(inputs, (0,), (1, self.num_features), sign_clip)


class BatchNorm2d(_BatchNorm):
    """Batch normalisation over ``(N, C, H, W)`` inputs (per channel)."""

    def forward(self, inputs: Tensor, sign_clip: Optional[float] = None) -> Tensor:
        """Normalise; with ``sign_clip``, binarise the result too (the sign
        STE of :class:`~repro.nn.binary.BinaryActivation`, in the same node)."""
        if inputs.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W) input, got shape {inputs.shape}")
        return self._normalize(inputs, (0, 2, 3), (1, self.num_features, 1, 1), sign_clip)


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()


class Sigmoid(Module):
    """Logistic sigmoid."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.sigmoid()


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.tanh()


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.flatten(start_dim=1)
