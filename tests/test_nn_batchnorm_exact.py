"""BatchNorm (and BatchNorm + sign STE) as one node against the composed graph.

``_ref_normalize`` below is ``_BatchNorm._normalize`` as it was written
before it became one autograd node: a graph of ``Tensor`` ops (mean,
subtract, square, mean, ``** 0.5``, divide, scale, shift), with
``Tensor.sign_ste`` as a node of its own behind it.  It lives here only, as
the specification the fused node must meet bit for bit: the output, the
running statistics, and the input, gamma and beta gradients, for 1-d and
2-d BatchNorm in train and eval mode, on tie-heavy and mixed-magnitude
inputs, with the STE's clip landing exactly on an output's magnitude.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pytest

from repro.nn.layers import BatchNorm1d, BatchNorm2d
from repro.nn.tensor import Tensor


# --------------------------------------------------------------------------- #
# The reference formulation
# --------------------------------------------------------------------------- #
def _ref_normalize(layer, inputs: Tensor, reduce_axes: Tuple[int, ...], shape: Tuple[int, ...]) -> Tensor:
    if layer.training:
        mean = inputs.data.mean(axis=reduce_axes)
        var = inputs.data.var(axis=reduce_axes)
        layer._set_buffer(
            "running_mean",
            (1 - layer.momentum) * layer.running_mean + layer.momentum * mean,
        )
        layer._set_buffer(
            "running_var",
            (1 - layer.momentum) * layer.running_var + layer.momentum * var,
        )
        mean_t = inputs.mean(axis=reduce_axes, keepdims=True)
        centered = inputs - mean_t
        var_t = (centered * centered).mean(axis=reduce_axes, keepdims=True)
        normalized = centered / ((var_t + layer.eps) ** 0.5)
    else:
        mean = layer.running_mean.reshape(shape)
        var = layer.running_var.reshape(shape)
        normalized = (inputs - Tensor(mean)) / Tensor(np.sqrt(var + layer.eps))
    gamma = layer.gamma.reshape(*shape)
    beta = layer.beta.reshape(*shape)
    return normalized * gamma + beta


def _reference(layer, inputs: Tensor, sign_clip: Optional[float]) -> Tensor:
    if inputs.ndim == 2:
        out = _ref_normalize(layer, inputs, (0,), (1, layer.num_features))
    else:
        out = _ref_normalize(layer, inputs, (0, 2, 3), (1, layer.num_features, 1, 1))
    return out if sign_clip is None else out.sign_ste(clip_value=sign_clip)


def _fused(layer, inputs: Tensor, sign_clip: Optional[float]) -> Tensor:
    return layer(inputs, sign_clip=sign_clip)


# --------------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------------- #
#: (layer class, input shape): the ``ci`` model's BatchNorms (behind a
#: device conv, the cloud's two convs and an exit's FC layer), then odd
#: shapes and batches of one.
SHAPES = [
    (BatchNorm2d, (32, 4, 16, 16)),
    (BatchNorm2d, (8, 8, 8, 8)),
    (BatchNorm2d, (5, 8, 4, 4)),
    (BatchNorm2d, (3, 2, 3, 5)),
    (BatchNorm2d, (1, 3, 2, 2)),
    (BatchNorm1d, (32, 3)),
    (BatchNorm1d, (5, 7)),
    (BatchNorm1d, (1, 4)),
]


def _shape_id(case) -> str:
    cls, shape = case
    return f"{cls.__name__[-2:]}-" + "x".join(map(str, shape))


def _values(kind: str, shape, rng) -> np.ndarray:
    """``ties``: small integers (pool outputs of a ±1 conv tie constantly);
    ``mixed``: floats whose magnitudes span six decades."""
    if kind == "ties":
        return rng.integers(-3, 4, size=shape).astype(float)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)


def _layer(cls, shape, rng, training: bool):
    layer = cls(shape[1], momentum=0.3)
    layer.gamma.data = rng.standard_normal(shape[1])
    layer.beta.data = rng.standard_normal(shape[1])
    layer._set_buffer("running_mean", rng.standard_normal(shape[1]))
    layer._set_buffer("running_var", rng.random(shape[1]) + 0.1)
    return layer.train(training)


def _run(forward, cls, shape, kind: str, training: bool, sign_clip, shared_input=False):
    """Two steps through one layer (gamma/beta gradients accumulate across
    them); every output, statistic and gradient, in a fixed order."""
    rng = np.random.default_rng([cls is BatchNorm2d, *shape, kind == "ties", training])
    layer = _layer(cls, shape, rng, training)
    results = []
    for _ in range(2):
        images = _values(kind, shape, rng)
        upstream = _values("mixed", shape, rng)
        x = Tensor(images, requires_grad=True)
        out = forward(layer, x, sign_clip)
        loss = (out * Tensor(upstream)).sum()
        if shared_input:
            # The input feeds a second op as well: its gradient then sums
            # three terms, in the graph's order.
            loss = loss + (x * Tensor(_values("mixed", shape, rng))).sum()
        loss.backward()
        results += [out.data, layer.running_mean, layer.running_var, x.grad]
    return results + [layer.gamma.grad, layer.beta.grad]


def _assert_all_equal(mine, theirs):
    assert len(mine) == len(theirs)
    for index, (a, b) in enumerate(zip(mine, theirs)):
        np.testing.assert_array_equal(a, b, err_msg=f"array {index}")


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("sign_clip", [None, 1.0])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("kind", ["ties", "mixed"])
@pytest.mark.parametrize("case", SHAPES, ids=_shape_id)
def test_fused_batch_norm_equals_the_composed_graph(case, kind, training, sign_clip):
    cls, shape = case
    _assert_all_equal(
        _run(_fused, cls, shape, kind, training, sign_clip),
        _run(_reference, cls, shape, kind, training, sign_clip),
    )


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("cls, shape", [SHAPES[2], SHAPES[6]], ids=["2d", "1d"])
def test_an_input_with_a_second_consumer(cls, shape, training):
    _assert_all_equal(
        _run(_fused, cls, shape, "mixed", training, 1.0, shared_input=True),
        _run(_reference, cls, shape, "mixed", training, 1.0, shared_input=True),
    )


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("kind", ["ties", "mixed"])
@pytest.mark.parametrize("cls, shape", [SHAPES[1], SHAPES[5]], ids=["2d", "1d"])
def test_the_ste_passes_the_gradient_where_the_magnitude_equals_the_clip(
    cls, shape, kind, training
):
    """The clip is set to the magnitude of outputs the layer produces (on
    tie-heavy inputs, several at once), so ``|x| <= clip`` is decided at
    equality: those entries keep their gradient, and the rest of the mask
    agrees with the composed graph's."""
    pre_sign = _run(_reference, cls, shape, kind, training, None)[0]
    clip = float(np.abs(pre_sign).ravel()[pre_sign.size // 2])

    fused = _run(_fused, cls, shape, kind, training, clip)
    _assert_all_equal(fused, _run(_reference, cls, shape, kind, training, clip))
    # The first step draws what the probe's did: its output is the sign of
    # ``pre_sign``.
    np.testing.assert_array_equal(fused[0], np.where(pre_sign >= 0, 1.0, -1.0))
    if not training:
        # In eval mode the input gradient is upstream * mask * gamma / std:
        # nonzero exactly where the mask passed, at-clip entries included.
        np.testing.assert_array_equal(fused[3] != 0, np.abs(pre_sign) <= clip)
