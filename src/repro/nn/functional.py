"""Structured neural-network operations built on :class:`repro.nn.tensor.Tensor`.

This module implements the convolution, pooling and classification primitives
used by the DDNN reproduction.  Joint training (Sec. III-C) runs the Fig. 3
block's convolution and max-pool forward and backward in every step, so the
two are written for memory traffic; every value they produce is what the
plain formulations (``np.pad`` + strided-window copies, ``argmax``,
``np.add.at``) compute, bit for bit:

* **Convolution** is im2col + one GEMM per sample and direction, over
  the batch in tiles sized so that a tile's zero-padded images and columns
  fit one cache budget (``_IM2COL_BLOCK_BYTES``, shared with the compiled
  plans).  A tile's columns are built in this thread's scratch block (no
  ``np.pad``, no fresh multi-megabyte array), which is dead once the tile's
  GEMMs return.  The backward gathers each tile's columns again instead of
  keeping a copy alive in the graph, and scatters the tile's input gradient
  back (:func:`col2im`'s ``(ky, kx)`` loop, over only the pixels each
  offset read) in scratch too.  The GEMMs keep one operand layout:
  ``W @ cols``, ``grad @ cols.T`` (summed over the whole batch once every
  tile is done), and ``W.T @ grad``.
* **Max pooling** de-interleaves the input, ``-inf``-padded, into
  ``stride**2`` phase planes, so that every kernel offset is a unit-stride
  slice, and takes one pass per offset: ``np.maximum`` for the value (it
  carries a NaN) and a ``uint8`` arg-max that moves only on a strictly
  greater value, which is ``argmax``'s first-in-row-major tie-break.  Only
  that arg-max is kept for the backward: one ``np.bincount``, which
  accumulates in the same order as ``np.add.at``.

Scratch views never reach a caller or a :class:`Tensor`:
``Tensor._accumulate_grad`` copies a gradient on first write.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

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


def _check_window(
    owner: str, kernel_size: int, stride: int, padding: int, pool: bool = False
) -> None:
    """Reject a window geometry no output can come from, naming the argument.

    Max pooling also caps ``padding`` at ``kernel_size // 2`` (PyTorch's
    rule): beyond it a window can lie wholly in the ``-inf`` border.
    """
    if kernel_size < 1:
        raise ValueError(f"{owner}: kernel_size must be at least 1, got {kernel_size}")
    if stride < 1:
        raise ValueError(f"{owner}: stride must be at least 1, got {stride}")
    if padding < 0:
        raise ValueError(f"{owner}: padding must be non-negative, got {padding}")
    if pool and padding > kernel_size // 2:
        raise ValueError(
            f"{owner}: padding must be at most kernel_size // 2 = {kernel_size // 2}, "
            f"got {padding}"
        )


def _output_shape(
    owner: str,
    inputs: Tensor,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    pool: bool = False,
) -> Tuple[int, int]:
    """``(out_h, out_w)`` of a window over a 4-D input, after :func:`_check_window`."""
    if inputs.ndim != 4:
        raise ValueError(f"{owner}: inputs must be 4-D (N, C, H, W), got shape {inputs.shape}")
    _check_window(owner, min(kernel_h, kernel_w), stride, padding, pool)
    height, width = inputs.shape[-2:]
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"{owner}: a {kernel_h}x{kernel_w} window with stride {stride} and padding "
            f"{padding} leaves no output of a {height}x{width} input"
        )
    return out_h, out_w


_thread = threading.local()

#: Cache-block budget (bytes) for one pass over a slice of the batch: a
#: training convolution's tile of padded images and im2col columns
#: (:func:`_tile_samples`), and a compiled plan's pass with every buffer it
#: touches plus its im2col/shift-add scratch
#: (:class:`~repro.compile.plan.CompiledPlan`).
_IM2COL_BLOCK_BYTES = 1 << 20


def _scratch(*requests: Tuple[Tuple[int, ...], np.dtype]) -> List[np.ndarray]:
    """Uninitialised views of this thread's scratch block, one per
    ``(shape, dtype)`` request, laid end to end on 64-byte boundaries.

    The same rule as ``compile.ops.Arena.scratch``: a view is dead when the
    op that asked for it returns, because the thread's next request hands
    out the same bytes.  The block only grows, to the largest request (a
    conv backward's one tile of columns plus its batch's input and
    per-sample weight gradients, or a max-pool's phase planes), so a
    training loop stops page-faulting fresh arrays after its first step.
    """
    spans, total = [], 0
    for shape, dtype in requests:
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        spans.append((total, nbytes))
        total += -(-nbytes // 64) * 64
    block = getattr(_thread, "block", None)
    if block is None or block.nbytes < total:
        block = _thread.block = np.empty(total, dtype=np.uint8)
    return [
        block[start : start + nbytes].view(dtype).reshape(shape)
        for (start, nbytes), (shape, dtype) in zip(spans, requests)
    ]


def _inside(start: int, stride: int, size: int, count: int) -> Tuple[int, int, Optional[slice]]:
    """The ``i < count`` with ``0 <= start + i * stride < size``.

    Returns ``[first, last)`` and the slice of the source axis they read
    (``None`` when there are none).
    """
    first = min(count, max(0, -(start // stride)))
    last = min(count, max(first, -((start - size) // stride)))
    if last == first:
        return first, last, None
    begin = start + first * stride
    return first, last, slice(begin, begin + (last - first - 1) * stride + 1, stride)


def _columns_layout(
    images_shape: Tuple[int, ...], kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[Tuple[int, int, int], int, int]:
    """Shape of the im2col columns, where they start in a block (after the
    zero-padded image) and the block's size in elements (see
    :func:`_columns_views`)."""
    batch, channels, height, width = images_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    columns = (batch, channels * kernel_h * kernel_w, out_h * out_w)
    start = batch * channels * (height + 2 * padding) * (width + 2 * padding)
    return columns, start, start + int(np.prod(columns))


def _columns_views(
    block: np.ndarray,
    images_shape: Tuple[int, ...],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Views of the flat ``block`` for the im2col columns of a batch of
    ``images_shape`` (see :func:`im2col`): the zero-padded image first (its
    border zeroed here), then the columns.  Returns ``(interior, windows,
    columns)``; :func:`_gather_columns` fills them for one batch of that
    shape, and can fill them again for the next: nothing writes the border.

    The columns are one copy of the padded image's window view (faster than
    a slice copy per kernel offset with zeroed borders, whose border columns
    are one element per image row).  Where the window view reshapes to the
    columns without a copy (a 1x1 kernel, a single output row, a kernel as
    wide as the padded image, ...) the columns stay that strided view of the
    padded image, as ``np.reshape`` leaves them, and ``windows`` is ``None``:
    the GEMMs then see that operand layout, and round as they always did.
    """
    batch, channels, height, width = images_shape
    columns_shape, start, end = _columns_layout(images_shape, kernel_h, kernel_w, stride, padding)
    padded = block[:start].reshape(batch, channels, height + 2 * padding, width + 2 * padding)
    if padding:
        padded.fill(0)
    interior = padded[:, :, padding : padding + height, padding : padding + width]
    # (N, C, out_h, out_w, kh, kw) -> (N, C, kh, kw, out_h, out_w)
    windows = sliding_windows(padded, kernel_h, kernel_w, stride).transpose(0, 1, 4, 5, 2, 3)
    try:
        return interior, None, windows.reshape(columns_shape, copy=False)
    except ValueError:
        return interior, windows, block[start:end].reshape(columns_shape)


def _gather_columns(
    views: Tuple[np.ndarray, Optional[np.ndarray], np.ndarray], images: np.ndarray
) -> np.ndarray:
    """The im2col columns of ``images``, in the :func:`_columns_views` of
    their shape."""
    interior, windows, columns = views
    np.copyto(interior, images)
    if windows is not None:
        np.copyto(columns.reshape(windows.shape), windows)
    return columns


def _scatter_columns(
    columns: np.ndarray, image: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> None:
    """``image`` = the sum of every kernel offset's columns put back where
    they were gathered from, starting at zero and adding in ``(ky, kx)``
    order; what an offset read from the zero border is dropped."""
    batch, channels, height, width = image.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    blocks = columns.reshape(batch, channels, kernel_h, kernel_w, out_h, out_w)
    image.fill(0)
    for ky in range(kernel_h):
        y0, y1, rows = _inside(ky - padding, stride, height, out_h)
        for kx in range(kernel_w):
            x0, x1, cols = _inside(kx - padding, stride, width, out_w)
            if rows is not None and cols is not None:
                image[:, :, rows, cols] += blocks[:, :, ky, kx, y0:y1, x0:x1]


def sliding_windows(
    padded: np.ndarray, kernel_h: int, kernel_w: int, stride: int
) -> np.ndarray:
    """Zero-copy strided view of all kernel positions over a padded input.

    Returns a read-only view of shape ``(N, C, out_h, out_w, kernel_h,
    kernel_w)`` where ``windows[n, c, oy, ox]`` is the receptive field of
    output position ``(oy, ox)`` (any number of leading axes: the windows
    slide over the last two).  Used by the compiled inference plans
    (:mod:`repro.compile`).
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
        Convolution geometry; the image is zero-padded by ``padding``.

    Returns
    -------
    columns:
        New array of shape ``(N, C * kernel_h * kernel_w, out_h * out_w)``.
    out_h, out_w:
        Spatial output dimensions.
    """
    _, _, size = _columns_layout(images.shape, kernel_h, kernel_w, stride, padding)
    block = np.empty(size, dtype=images.dtype)
    views = _columns_views(block, images.shape, kernel_h, kernel_w, stride, padding)
    columns = _gather_columns(views, images)
    out_h = conv_output_size(images.shape[2], kernel_h, stride, padding)
    out_w = conv_output_size(images.shape[3], kernel_w, stride, padding)
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

    Windows overlap in the output, so the scatter is a ``kernel_h *
    kernel_w`` loop, each iteration one vectorised strided ``+=`` of that
    kernel offset's block over the part of the image it read (its zero
    border reads are dropped, never written).  Every pixel sums its
    contributions from zero in ``(ky, kx)`` order.  Returns a new array of
    ``input_shape``.
    """
    image = np.empty(input_shape, dtype=columns.dtype)
    _scatter_columns(columns, image, kernel_h, kernel_w, stride, padding)
    return image


def _tile_samples(
    images_shape: Tuple[int, ...],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    itemsize: int,
) -> int:
    """Samples per conv tile: as many as fit their zero-padded image and
    im2col columns in ``_IM2COL_BLOCK_BYTES`` (at least one)."""
    _, _, per_sample = _columns_layout((1, *images_shape[1:]), kernel_h, kernel_w, stride, padding)
    return max(1, min(images_shape[0], _IM2COL_BLOCK_BYTES // (per_sample * itemsize)))


def _tiles(block: np.ndarray, images_shape: Tuple[int, ...], tile: int, geometry: Tuple[int, ...]):
    """``(samples, views, spare)`` for each tile of a batch, in order:
    the tile's slice of the batch, its :func:`_columns_views` in ``block``
    (built once for the full tiles, once more for a part-filled last one)
    and a column-shaped view of ``block`` past the padded images."""
    batch = images_shape[0]
    views = None
    for first in range(0, batch, tile):
        samples = slice(first, min(first + tile, batch))
        if views is None or samples.stop - first < tile:
            shape = (samples.stop - first, *images_shape[1:])
            views = _columns_views(block, shape, *geometry)
            columns_shape, start, end = _columns_layout(shape, *geometry)
            spare = block[start:end].reshape(columns_shape)
        yield samples, views, spare


def conv2d(
    inputs: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution.

    Forward and backward walk the batch in tiles of :func:`_tile_samples`
    samples, each gathering its columns into this thread's scratch block, so
    a tile's columns stay in cache for its GEMMs.  The GEMMs are the
    per-sample ones an untiled batched ``np.matmul`` issues, and the
    per-sample weight gradients are summed once over the whole batch, so no
    value depends on the tile size.

    Parameters
    ----------
    inputs:
        Tensor of shape ``(N, C_in, H, W)``.  Its array is read again by the
        backward (which gathers each tile's columns again), so it must not be
        modified in place in between -- the same holds for ``weight``.
    weight:
        Tensor of shape ``(C_out, C_in, kH, kW)``.
    bias:
        Optional tensor of shape ``(C_out,)``.
    """
    if weight.ndim != 4:
        raise ValueError(f"conv2d: weight must be 4-D (C_out, C_in, kH, kW), got shape {weight.shape}")
    out_channels, in_channels, kernel_h, kernel_w = weight.shape
    out_h, out_w = _output_shape("conv2d", inputs, kernel_h, kernel_w, stride, padding)
    if inputs.shape[1] != in_channels:
        raise ValueError(
            f"conv2d channel mismatch: input has {inputs.shape[1]} channels, "
            f"weight expects {in_channels}"
        )

    source = inputs.data
    batch = source.shape[0]
    geometry = (kernel_h, kernel_w, stride, padding)
    tile = _tile_samples(source.shape, *geometry, source.dtype.itemsize)
    _, _, size = _columns_layout((tile, *source.shape[1:]), *geometry)
    weight_matrix = weight.data.reshape(out_channels, -1)
    (block,) = _scratch(((size,), source.dtype))
    # (N, C_out, out_h * out_w): matmul broadcasts W over the tile's samples
    # and dispatches one BLAS GEMM per sample.
    out_dtype = np.result_type(weight_matrix, source)
    out = np.empty((batch, out_channels, out_h * out_w), dtype=out_dtype)
    for samples, views, _ in _tiles(block, source.shape, tile, geometry):
        np.matmul(weight_matrix, _gather_columns(views, source[samples]), out=out[samples])
    if bias is not None:
        out += bias.data.reshape(1, out_channels, 1)
    out = out.reshape(batch, out_channels, out_h, out_w)

    parents = [inputs, weight] if bias is None else [inputs, weight, bias]

    def backward(grad: np.ndarray) -> None:
        grad_out = np.asarray(grad).reshape(batch, out_channels, out_h * out_w)
        block, image, per_sample = _scratch(
            ((size,), source.dtype),
            (source.shape, source.dtype),
            ((batch, *weight_matrix.shape), grad_out.dtype),
        )
        for samples, views, spare in _tiles(block, source.shape, tile, geometry):
            if weight.requires_grad:
                columns = _gather_columns(views, source[samples])
                np.matmul(grad_out[samples], columns.transpose(0, 2, 1), out=per_sample[samples])
            if inputs.requires_grad:
                # The tile's columns are dead: their place takes its column
                # gradient.
                np.matmul(weight_matrix.T, grad_out[samples], out=spare)
                _scatter_columns(spare, image[samples], *geometry)
        if weight.requires_grad:
            weight._accumulate_grad(per_sample.sum(axis=0).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate_grad(grad_out.sum(axis=(0, 2)))
        if inputs.requires_grad:
            inputs._accumulate_grad(image)

    return Tensor._make_from_op(out, parents, backward)


def max_pool2d(
    inputs: Tensor,
    kernel_size: int,
    stride: Optional[int] = None,
    padding: int = 0,
) -> Tensor:
    """2-D max pooling over ``(N, C, H, W)`` inputs.

    Padded positions are filled with ``-inf`` so they never win the maximum;
    ``padding`` is at most ``kernel_size // 2``, so every window holds an
    input value.  A window holding a NaN pools to NaN, and its first NaN
    takes the gradient.
    """
    stride = stride if stride is not None else kernel_size
    out_h, out_w = _output_shape(
        "max_pool2d", inputs, kernel_size, kernel_size, stride, padding, pool=True
    )
    source = inputs.data
    batch, channels, height, width = source.shape
    positions = kernel_size * kernel_size
    arg_dtype = np.dtype(np.uint8 if positions <= 256 else np.intp)

    # Phase plane (ry, rx) holds padded rows ry, ry + stride, ... and
    # columns rx, rx + stride, ...: offset (ky, kx) of every window is then
    # one unit-stride slice of plane (ky % stride, kx % stride).  The passes
    # run on a grid as wide as a plane row, so that a slice is one
    # contiguous run per (n, c) -- its last ``reach`` columns are rubbish
    # (read across the row end, into the next plane or the block's tail),
    # and are dropped at the end.
    phases = min(stride, kernel_size)
    reach = (kernel_size - 1) // stride
    plane_h, plane_w = reach + out_h, reach + out_w
    plane_size = batch * channels * plane_h * plane_w
    tail = reach * plane_w + reach
    grid = (batch * channels, out_h * plane_w)
    planes, out_grid, arg_grid, better, step = _scratch(
        ((phases, phases, plane_size + tail), source.dtype),
        (grid, source.dtype),
        (grid, arg_dtype),
        (grid, bool),
        (grid, arg_dtype),
    )
    planes.fill(-np.inf)
    for ry in range(phases):
        y0, y1, rows = _inside(ry - padding, stride, height, plane_h)
        for rx in range(phases):
            x0, x1, cols = _inside(rx - padding, stride, width, plane_w)
            if rows is not None and cols is not None:
                plane = planes[ry, rx, :plane_size].reshape(batch, channels, plane_h, plane_w)
                plane[:, :, y0:y1, x0:x1] = source[:, :, rows, cols]
    slices = []
    for ky in range(kernel_size):
        qy, ry = divmod(ky, stride)
        for kx in range(kernel_size):
            qx, rx = divmod(kx, stride)
            begin = qy * plane_w + qx
            run = planes[ry, rx, begin : begin + plane_size].reshape(batch * channels, -1)
            slices.append(run[:, : grid[1]])

    def valid(on_grid: np.ndarray) -> np.ndarray:
        return on_grid.reshape(batch, channels, out_h, plane_w)[..., :out_w]

    np.copyto(out_grid, slices[0])
    arg_grid.fill(0)
    for position in range(1, positions):
        np.greater(slices[position], out_grid, out=better)
        # On a tie (0.0 vs -0.0) np.maximum returns its second operand:
        # the earlier value stays, as argmax's pick did.
        np.maximum(slices[position], out_grid, out=out_grid)
        # Positions only grow, so "position where better, else unchanged"
        # is a maximum against ``better * position``.
        np.multiply(better, arg_dtype.type(position), out=step)
        np.maximum(arg_grid, step, out=arg_grid)
    out = valid(out_grid).copy()
    argmax = valid(arg_grid).copy()
    if np.isnan(out).any():
        # ``>`` never picks a NaN; argmax picks a window's first one.
        for position in reversed(range(positions)):
            np.putmask(argmax, np.isnan(valid(slices[position])), position)

    padded_h, padded_w = height + 2 * padding, width + 2 * padding

    def backward(grad: np.ndarray) -> None:
        if not inputs.requires_grad:
            return
        grad_arr = np.asarray(grad)
        # Flat index into the padded image of each output's arg-max.
        origin = (
            (np.arange(batch * channels) * (padded_h * padded_w)).reshape(batch, channels, 1, 1)
            + (np.arange(out_h) * (stride * padded_w)).reshape(out_h, 1)
            + np.arange(out_w) * stride
        )
        offsets = (np.arange(kernel_size) * padded_w).reshape(-1, 1) + np.arange(kernel_size)
        flat = origin + offsets.ravel()[argmax]
        # bincount adds in index order, like np.add.at over (n, c, oy, ox).
        grad_padded = np.bincount(
            flat.ravel(), weights=grad_arr.ravel(), minlength=batch * channels * padded_h * padded_w
        ).astype(grad_arr.dtype, copy=False)
        grad_padded = grad_padded.reshape(batch, channels, padded_h, padded_w)
        inputs._accumulate_grad(
            grad_padded[:, :, padding : padding + height, padding : padding + width]
        )

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
    out_h, out_w = _output_shape("avg_pool2d", inputs, kernel_size, kernel_size, stride, padding)
    batch, channels, height, width = inputs.shape

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
        Integer class labels in ``[0, num_classes)`` of shape ``(N,)``;
        anything else (``datasets.NOT_PRESENT_LABEL`` included) raises
        ``ValueError``.
    class_weights:
        Optional per-class weights applied to each sample's loss.
    normalize_by_classes:
        If ``True``, additionally divide by ``num_classes`` — the ``1/|C|``
        factor that appears in the paper's loss formulation.  It only scales
        the objective and does not change the optimum.
    """
    labels = np.asarray(targets)
    batch, num_classes = logits.shape
    if labels.shape != (batch,):
        raise ValueError(f"targets must have shape ({batch},), got {labels.shape}")
    with np.errstate(invalid="ignore"):  # NaN casts to garbage, caught below
        targets = labels.astype(np.int64)
    if batch and (
        not np.array_equal(targets, labels) or targets.min() < 0 or targets.max() >= num_classes
    ):
        raise ValueError(
            f"targets must be integer class labels in [0, {num_classes}), "
            f"got values in [{labels.min()}, {labels.max()}]"
        )

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
