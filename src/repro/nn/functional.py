"""Structured neural-network operations built on :class:`repro.nn.tensor.Tensor`.

This module implements the convolution, pooling and classification primitives
used by the DDNN reproduction.  Convolutions use an im2col formulation which
is the standard way to obtain reasonable performance from a pure-NumPy
implementation while keeping the backward pass straightforward.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = [
    "sliding_windows",
    "im2col",
    "col2im",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "log_softmax",
    "softmax",
    "softmax_cross_entropy",
    "conv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def sliding_windows(
    padded: np.ndarray, kernel_h: int, kernel_w: int, stride: int
) -> np.ndarray:
    """Zero-copy strided view of all kernel positions over a padded input.

    Returns a read-only view of shape ``(N, C, out_h, out_w, kernel_h,
    kernel_w)`` where ``windows[n, c, oy, ox]`` is the receptive field of
    output position ``(oy, ox)`` (any number of leading axes: the windows
    slide over the last two).  Shared by the eager conv/pool ops and the
    compiled inference plans (:mod:`repro.compile`); the strided view
    replaces the former Python loop over kernel positions.
    """
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel_h, kernel_w), axis=(-2, -1)
    )
    return windows[..., ::stride, ::stride, :, :]


def im2col(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, int, int]:
    """Rearrange image patches into columns.

    Parameters
    ----------
    images:
        Input of shape ``(N, C, H, W)``.
    kernel_h, kernel_w, stride, padding:
        Convolution geometry.

    Returns
    -------
    columns:
        Array of shape ``(N, C * kernel_h * kernel_w, out_h * out_w)``.
    out_h, out_w:
        Spatial output dimensions.
    """
    batch, channels, height, width = images.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)

    padded = np.pad(
        images,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )
    windows = sliding_windows(padded, kernel_h, kernel_w, stride)
    # (N, C, out_h, out_w, kh, kw) -> (N, C, kh, kw, out_h, out_w); the
    # reshape materialises the copy in one vectorised pass.
    cols = windows.transpose(0, 1, 4, 5, 2, 3)
    columns = cols.reshape(batch, channels * kernel_h * kernel_w, out_h * out_w)
    return columns, out_h, out_w


def col2im(
    columns: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col` (scatter-add of overlapping patches).

    Unlike the forward gathers (which became loop-free strided-view copies,
    see :func:`sliding_windows`), the scatter deliberately keeps a
    ``kernel_h * kernel_w`` loop: windows overlap in the output, and each
    iteration is one fully vectorised strided ``+=`` over a collision-free
    block.  A loop-free per-position-planes-then-sum formulation was
    measured 2-10x slower here with a ``k^2``-fold transient allocation.
    """
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)

    cols = columns.reshape(batch, channels, kernel_h, kernel_w, out_h, out_w)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=columns.dtype,
    )
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def conv2d(
    inputs: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution.

    Parameters
    ----------
    inputs:
        Tensor of shape ``(N, C_in, H, W)``.
    weight:
        Tensor of shape ``(C_out, C_in, kH, kW)``.
    bias:
        Optional tensor of shape ``(C_out,)``.
    """
    batch, _, _, _ = inputs.shape
    out_channels, in_channels, kernel_h, kernel_w = weight.shape
    if inputs.shape[1] != in_channels:
        raise ValueError(
            f"conv2d channel mismatch: input has {inputs.shape[1]} channels, "
            f"weight expects {in_channels}"
        )

    columns, out_h, out_w = im2col(inputs.data, kernel_h, kernel_w, stride, padding)
    weight_matrix = weight.data.reshape(out_channels, -1)
    # (N, C_out, out_h * out_w); matmul broadcasts over the batch dimension
    # and dispatches to BLAS, which is substantially faster than einsum here.
    out = np.matmul(weight_matrix, columns)
    if bias is not None:
        out = out + bias.data.reshape(1, out_channels, 1)
    out = out.reshape(batch, out_channels, out_h, out_w)

    input_shape = inputs.shape
    parents = [inputs, weight] if bias is None else [inputs, weight, bias]

    def backward(grad: np.ndarray) -> None:
        grad_out = np.asarray(grad).reshape(batch, out_channels, out_h * out_w)
        if weight.requires_grad:
            grad_weight = np.matmul(grad_out, columns.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate_grad(grad_weight.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate_grad(grad_out.sum(axis=(0, 2)))
        if inputs.requires_grad:
            grad_columns = np.matmul(weight_matrix.T, grad_out)
            grad_input = col2im(grad_columns, input_shape, kernel_h, kernel_w, stride, padding)
            inputs._accumulate_grad(grad_input)

    return Tensor._make_from_op(out, parents, backward)


def max_pool2d(
    inputs: Tensor,
    kernel_size: int,
    stride: Optional[int] = None,
    padding: int = 0,
) -> Tensor:
    """2-D max pooling over ``(N, C, H, W)`` inputs.

    Padded positions are filled with ``-inf`` so they never win the maximum.
    """
    stride = stride if stride is not None else kernel_size
    batch, channels, height, width = inputs.shape
    out_h = conv_output_size(height, kernel_size, stride, padding)
    out_w = conv_output_size(width, kernel_size, stride, padding)

    padded = np.pad(
        inputs.data,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
        constant_values=-np.inf,
    )
    # (N, C, out_h, out_w, k, k) strided view -> flatten the window axis
    # (row-major (ky, kx), matching argmax's divmod decode below).
    windows = sliding_windows(padded, kernel_size, kernel_size, stride).reshape(
        batch, channels, out_h, out_w, kernel_size * kernel_size
    )

    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]

    padded_shape = padded.shape

    def backward(grad: np.ndarray) -> None:
        if not inputs.requires_grad:
            return
        grad_arr = np.asarray(grad)
        grad_padded = np.zeros(padded_shape, dtype=grad_arr.dtype)
        ky, kx = np.divmod(argmax, kernel_size)
        n_idx, c_idx, oy_idx, ox_idx = np.indices(argmax.shape)
        h_idx = oy_idx * stride + ky
        w_idx = ox_idx * stride + kx
        np.add.at(grad_padded, (n_idx, c_idx, h_idx, w_idx), grad_arr)
        if padding:
            grad_input = grad_padded[:, :, padding:-padding, padding:-padding]
        else:
            grad_input = grad_padded
        inputs._accumulate_grad(grad_input)

    return Tensor._make_from_op(out, (inputs,), backward)


def avg_pool2d(
    inputs: Tensor,
    kernel_size: int,
    stride: Optional[int] = None,
    padding: int = 0,
) -> Tensor:
    """2-D average pooling over ``(N, C, H, W)`` inputs.

    Padded positions count toward the divisor (``count_include_pad`` style),
    matching the simple pooling used in the eBNN blocks.
    """
    stride = stride if stride is not None else kernel_size
    batch, channels, height, width = inputs.shape
    out_h = conv_output_size(height, kernel_size, stride, padding)
    out_w = conv_output_size(width, kernel_size, stride, padding)

    columns, _, _ = im2col(
        inputs.data.reshape(batch * channels, 1, height, width),
        kernel_size,
        kernel_size,
        stride,
        padding,
    )
    # columns: (N*C, k*k, out_h*out_w)
    out = columns.mean(axis=1).reshape(batch, channels, out_h, out_w)
    window = kernel_size * kernel_size

    def backward(grad: np.ndarray) -> None:
        if not inputs.requires_grad:
            return
        grad_arr = np.asarray(grad).reshape(batch * channels, 1, out_h * out_w)
        grad_columns = np.broadcast_to(grad_arr / window, (batch * channels, window, out_h * out_w))
        grad_input = col2im(
            np.ascontiguousarray(grad_columns),
            (batch * channels, 1, height, width),
            kernel_size,
            kernel_size,
            stride,
            padding,
        )
        inputs._accumulate_grad(grad_input.reshape(batch, channels, height, width))

    return Tensor._make_from_op(out, (inputs,), backward)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    shifted_max = logits.data.max(axis=axis, keepdims=True)
    shifted = logits - Tensor(shifted_max)
    log_sum = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_sum


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax probabilities along ``axis``."""
    return log_softmax(logits, axis=axis).exp()


def softmax_cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    class_weights: Optional[np.ndarray] = None,
    normalize_by_classes: bool = False,
) -> Tensor:
    """Softmax cross-entropy loss, averaged over the batch.

    Parameters
    ----------
    logits:
        Tensor of shape ``(N, num_classes)``.
    targets:
        Integer class labels of shape ``(N,)``.
    class_weights:
        Optional per-class weights applied to each sample's loss.
    normalize_by_classes:
        If ``True``, additionally divide by ``num_classes`` — the ``1/|C|``
        factor that appears in the paper's loss formulation.  It only scales
        the objective and does not change the optimum.
    """
    targets = np.asarray(targets, dtype=np.int64)
    batch, num_classes = logits.shape
    if targets.shape != (batch,):
        raise ValueError(f"targets must have shape ({batch},), got {targets.shape}")

    one_hot = np.zeros((batch, num_classes), dtype=logits.data.dtype)
    one_hot[np.arange(batch), targets] = 1.0
    if class_weights is not None:
        sample_weights = np.asarray(class_weights, dtype=logits.data.dtype)[targets]
        one_hot = one_hot * sample_weights[:, None]

    log_probs = log_softmax(logits, axis=-1)
    negative_ll = -(Tensor(one_hot) * log_probs).sum(axis=-1)
    loss = negative_ll.mean()
    if normalize_by_classes:
        loss = loss * (1.0 / num_classes)
    return loss
