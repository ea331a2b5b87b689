"""The training kernels of ``repro.nn.functional`` against plain formulations.

``_reference`` below holds ``im2col`` / ``col2im`` / ``conv2d`` /
``max_pool2d`` as they were written before the kernels were tuned for memory
traffic: ``np.pad`` + a strided-window copy, ``argmax`` +
``take_along_axis``, ``np.add.at``.  They live here only, as the
specification the tuned kernels must meet bit for bit -- forward values and
every gradient, on tie-heavy inputs (the binary net's integer conv outputs
tie constantly, so the arg-max tie-break is load-bearing), with forwards and
backwards interleaved, and from two threads at once.  The hypothesis cases
are small enough for one conv tile; the fixed cases at the ``ci`` model's
real shapes (``REAL_CONVS``) run the conv in several tiles, the last one
part-filled.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.nn.functional as F
from repro.nn.tensor import Tensor


# --------------------------------------------------------------------------- #
# The reference formulations
# --------------------------------------------------------------------------- #
def _windows(padded, kernel_h, kernel_w, stride):
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel_h, kernel_w), axis=(-2, -1))
    return windows[..., ::stride, ::stride, :, :]


def _ref_im2col(images, kernel_h, kernel_w, stride, padding):
    batch, channels, height, width = images.shape
    out_h = F.conv_output_size(height, kernel_h, stride, padding)
    out_w = F.conv_output_size(width, kernel_w, stride, padding)
    padded = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")
    cols = _windows(padded, kernel_h, kernel_w, stride).transpose(0, 1, 4, 5, 2, 3)
    return cols.reshape(batch, channels * kernel_h * kernel_w, out_h * out_w), out_h, out_w


def _ref_col2im(columns, input_shape, kernel_h, kernel_w, stride, padding):
    batch, channels, height, width = input_shape
    out_h = F.conv_output_size(height, kernel_h, stride, padding)
    out_w = F.conv_output_size(width, kernel_w, stride, padding)
    cols = columns.reshape(batch, channels, kernel_h, kernel_w, out_h, out_w)
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding), dtype=columns.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def _ref_conv2d(inputs, weight, bias=None, stride=1, padding=0):
    batch = inputs.shape[0]
    out_channels, _, kernel_h, kernel_w = weight.shape
    columns, out_h, out_w = _ref_im2col(inputs.data, kernel_h, kernel_w, stride, padding)
    weight_matrix = weight.data.reshape(out_channels, -1)
    out = np.matmul(weight_matrix, columns)
    if bias is not None:
        out = out + bias.data.reshape(1, out_channels, 1)
    out = out.reshape(batch, out_channels, out_h, out_w)
    input_shape = inputs.shape
    parents = [inputs, weight] if bias is None else [inputs, weight, bias]

    def backward(grad):
        grad_out = np.asarray(grad).reshape(batch, out_channels, out_h * out_w)
        if weight.requires_grad:
            grad_weight = np.matmul(grad_out, columns.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate_grad(grad_weight.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate_grad(grad_out.sum(axis=(0, 2)))
        if inputs.requires_grad:
            grad_columns = np.matmul(weight_matrix.T, grad_out)
            inputs._accumulate_grad(
                _ref_col2im(grad_columns, input_shape, kernel_h, kernel_w, stride, padding)
            )

    return Tensor._make_from_op(out, parents, backward)


def _ref_max_pool2d(inputs, kernel_size, stride: Optional[int] = None, padding=0):
    stride = stride if stride is not None else kernel_size
    batch, channels, height, width = inputs.shape
    out_h = F.conv_output_size(height, kernel_size, stride, padding)
    out_w = F.conv_output_size(width, kernel_size, stride, padding)
    padded = np.pad(
        inputs.data,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
        constant_values=-np.inf,
    )
    windows = _windows(padded, kernel_size, kernel_size, stride).reshape(
        batch, channels, out_h, out_w, kernel_size * kernel_size
    )
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
    padded_shape = padded.shape

    def backward(grad):
        if not inputs.requires_grad:
            return
        grad_arr = np.asarray(grad)
        grad_padded = np.zeros(padded_shape, dtype=grad_arr.dtype)
        ky, kx = np.divmod(argmax, kernel_size)
        n_idx, c_idx, oy_idx, ox_idx = np.indices(argmax.shape)
        np.add.at(grad_padded, (n_idx, c_idx, oy_idx * stride + ky, ox_idx * stride + kx), grad_arr)
        if padding:
            grad_padded = grad_padded[:, :, padding:-padding, padding:-padding]
        inputs._accumulate_grad(grad_padded)

    return Tensor._make_from_op(out, (inputs,), backward)


TUNED = SimpleNamespace(conv2d=F.conv2d, max_pool2d=F.max_pool2d)
REFERENCE = SimpleNamespace(conv2d=_ref_conv2d, max_pool2d=_ref_max_pool2d)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
SETTINGS = settings(max_examples=60, deadline=None)

#: Small integers tie constantly; floats (signed zeros included) do not.
_ELEMENTS = st.one_of(
    st.just(st.integers(-2, 2).map(float)),
    st.just(st.floats(-4.0, 4.0, allow_nan=False, width=64)),
)


@st.composite
def _case(draw):
    kernel = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, kernel // 2))
    batch, channels, out_channels = (draw(st.integers(1, 3)) for _ in range(3))
    height, width = (draw(st.integers(max(1, kernel - 2 * padding), 9)) for _ in range(2))
    elements = draw(_ELEMENTS)

    def array(shape):
        return draw(hnp.arrays(np.float64, shape, elements=elements))

    return SimpleNamespace(
        kernel=kernel,
        stride=stride,
        padding=padding,
        images=array((batch, channels, height, width)),
        weight=array((out_channels, channels, kernel, kernel)),
        bias=array((out_channels,)),
        # Upstream gradients are floats of mixed magnitude, so a change in
        # the order gradients are summed in shows in the bits.
        seed=draw(st.integers(0, 2**16)),
    )


def _upstream(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)


def _conv_then_pool(ops, case):
    """Forward + backward of conv -> max-pool (the Fig. 3 block's order,
    pool padding ``kernel // 2``); every output and gradient."""
    x = Tensor(case.images, requires_grad=True)
    w = Tensor(case.weight, requires_grad=True)
    b = Tensor(case.bias, requires_grad=True)
    conv = ops.conv2d(x, w, b, stride=case.stride, padding=case.padding)
    pooled = ops.max_pool2d(conv, case.kernel, stride=case.stride, padding=case.kernel // 2)
    pooled.backward(_upstream(pooled.shape, case.seed))
    return [conv.data, pooled.data, x.grad, w.grad, b.grad]


def _assert_all_equal(mine, theirs):
    assert len(mine) == len(theirs)
    for index, (a, b) in enumerate(zip(mine, theirs)):
        np.testing.assert_array_equal(a, b, err_msg=f"array {index}")


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@SETTINGS
@given(_case())
def test_im2col_and_col2im_equal_the_reference(case):
    k, s, p = case.kernel, case.stride, case.padding
    columns, out_h, out_w = F.im2col(case.images, k, k, s, p)
    expected, ref_h, ref_w = _ref_im2col(case.images, k, k, s, p)
    assert (out_h, out_w) == (ref_h, ref_w)
    np.testing.assert_array_equal(columns, expected)
    gradient = _upstream(columns.shape, case.seed)
    np.testing.assert_array_equal(
        F.col2im(gradient, case.images.shape, k, k, s, p),
        _ref_col2im(gradient, case.images.shape, k, k, s, p),
    )


@SETTINGS
@given(_case())
def test_conv2d_forward_and_gradients_equal_the_reference(case):
    _assert_all_equal(_conv_then_pool(TUNED, case), _conv_then_pool(REFERENCE, case))


@SETTINGS
@given(_case())
def test_max_pool2d_forward_and_gradient_equal_the_reference(case):
    def pool(ops):
        x = Tensor(case.images, requires_grad=True)
        out = ops.max_pool2d(x, case.kernel, stride=case.stride, padding=case.padding)
        out.backward(_upstream(out.shape, case.seed))
        return [out.data, x.grad]

    _assert_all_equal(pool(TUNED), pool(REFERENCE))


@settings(max_examples=20, deadline=None)
@given(_case())
def test_backwards_in_reverse_order_of_the_forwards(case):
    """Forward A, forward B, backward B, backward A through one shared
    weight: no backward may read what the other forward left in scratch."""
    inputs = [case.images, np.flip(case.images, axis=-1) - 1.0]

    def run(ops):
        w = Tensor(case.weight, requires_grad=True)
        chains = []
        for images in inputs:
            x = Tensor(images, requires_grad=True)
            conv = ops.conv2d(x, w, stride=case.stride, padding=case.padding)
            pooled = ops.max_pool2d(conv, case.kernel, stride=case.stride, padding=case.kernel // 2)
            chains.append((x, conv, pooled))
        results = []
        for index, (x, conv, pooled) in reversed(list(enumerate(chains))):
            pooled.backward(_upstream(pooled.shape, case.seed + index))
            results += [conv.data, pooled.data, x.grad]
        return results + [w.grad]

    _assert_all_equal(run(TUNED), run(REFERENCE))


#: The Fig. 3 convs of the ``ci`` model (3x3, stride 1, padding 1) as
#: ``((C_in, H, W), C_out)``: a device's over the camera image, then the
#: cloud's two over the devices' concatenated sign maps.
REAL_CONVS = [((3, 32, 32), 4), ((24, 16, 16), 8), ((8, 8, 8), 8)]
#: ``train-fit``'s last batch is 8 (200 = 6 x 32 + 8).
REAL_BATCHES = [1, 5, 8, 32]


def _real_case(batch, sample_shape, out_channels, seed):
    """A Fig. 3 conv at a real shape: float images into the device conv,
    ±1 sign maps into the cloud's (as in the model), ±1 weights."""
    rng = np.random.default_rng(seed)
    shape = (batch, *sample_shape)
    if sample_shape[0] == 3:
        images = rng.standard_normal(shape)
    else:
        images = rng.choice([-1.0, 1.0], size=shape)
    return SimpleNamespace(
        kernel=3,
        stride=1,
        padding=1,
        images=images,
        weight=rng.choice([-1.0, 1.0], size=(out_channels, sample_shape[0], 3, 3)),
        bias=rng.standard_normal(out_channels),
        seed=seed,
    )


@pytest.mark.parametrize("sample_shape, out_channels", REAL_CONVS)
def test_every_real_conv_shape_ends_in_a_ragged_tile(sample_shape, out_channels):
    tiles = [F._tile_samples((batch, *sample_shape), 3, 3, 1, 1, 8) for batch in REAL_BATCHES]
    assert any(
        tile < batch and batch % tile for tile, batch in zip(tiles, REAL_BATCHES)
    ), tiles


@pytest.mark.parametrize("batch", REAL_BATCHES)
@pytest.mark.parametrize("sample_shape, out_channels", REAL_CONVS)
def test_real_conv_shapes_equal_the_reference(batch, sample_shape, out_channels):
    case = _real_case(batch, sample_shape, out_channels, seed=batch)
    _assert_all_equal(_conv_then_pool(TUNED, case), _conv_then_pool(REFERENCE, case))


def test_two_threads_match_serial_results():
    """Two small cases and one at a real shape (several conv tiles, the
    last part-filled), each in its own thread, replay their serial run."""
    rng = np.random.default_rng(0)
    cases = [
        SimpleNamespace(
            kernel=3,
            stride=stride,
            padding=1,
            images=rng.integers(-2, 3, size=(4, 3, 12, 12)).astype(float),
            weight=rng.choice([-1.0, 1.0], size=(4, 3, 3, 3)),
            bias=np.zeros(4),
            seed=stride,
        )
        for stride in (1, 2)
    ]
    cases.append(_real_case(5, *REAL_CONVS[1], seed=3))
    serial = [_conv_then_pool(TUNED, case) for case in cases]
    barrier = threading.Barrier(len(cases))
    results = [[] for _ in cases]

    def work(index):
        barrier.wait()
        for _ in range(25):
            results[index].append(_conv_then_pool(TUNED, cases[index]))

    threads = [threading.Thread(target=work, args=(index,)) for index in range(len(cases))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index, expected in enumerate(serial):
        assert len(results[index]) == 25
        for run in results[index]:
            _assert_all_equal(run, expected)


@pytest.mark.parametrize("row", range(5))
@pytest.mark.parametrize("col", range(5))
def test_a_nan_at_any_window_offset_pools_to_nan(row, col):
    """3x3/2 pooling with padding 1, as the Fig. 3 block: every window that
    holds the NaN is NaN, the others are not, and the gradient goes where
    argmax (first NaN in row-major order) sends it."""
    images = np.random.default_rng(row * 5 + col).integers(-2, 3, size=(1, 2, 5, 5)).astype(float)
    images[0, 1, row, col] = np.nan
    results = []
    for ops in (TUNED, REFERENCE):
        x = Tensor(images, requires_grad=True)
        out = ops.max_pool2d(x, 3, stride=2, padding=1)
        out.backward(_upstream(out.shape, 7))
        results.append([out.data, x.grad])
    _assert_all_equal(*results)
    out = results[0][0]
    covering = [(oy, ox) for oy in range(3) for ox in range(3) if abs(2 * oy - row) <= 1 and abs(2 * ox - col) <= 1]
    assert covering
    assert all(np.isnan(out[0, 1, oy, ox]) for oy, ox in covering)
    assert np.isnan(out).sum() == len(covering)
