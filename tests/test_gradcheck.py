"""Numerical gradient checks for the differentiable operations.

Every structured operation used by the DDNN (convolution, pooling, batch
norm via its primitives, softmax cross-entropy, the aggregators) is verified
against central finite differences.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.functional as F
from repro.nn import Tensor
from repro.nn.layers import BatchNorm1d, BatchNorm2d, Linear
from repro.nn.losses import softmax_cross_entropy


def numerical_gradient(tensor: Tensor, scalar_fn, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of ``scalar_fn`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data)
    iterator = np.nditer(tensor.data, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = tensor.data[index]
        tensor.data[index] = original + eps
        upper = scalar_fn()
        tensor.data[index] = original - eps
        lower = scalar_fn()
        tensor.data[index] = original
        grad[index] = (upper - lower) / (2 * eps)
        iterator.iternext()
    return grad


def assert_gradients_match(tensor: Tensor, scalar_fn, atol: float = 1e-5) -> None:
    expected = numerical_gradient(tensor, scalar_fn)
    np.testing.assert_allclose(tensor.grad, expected, atol=atol)


@pytest.fixture()
def generator():
    return np.random.default_rng(2024)


class TestConvolutionGradients:
    def test_conv2d_weight_bias_input(self, generator):
        x = Tensor(generator.standard_normal((2, 3, 6, 6)), requires_grad=True)
        w = Tensor(generator.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = Tensor(generator.standard_normal(4), requires_grad=True)

        def loss_value() -> float:
            return float((F.conv2d(x, w, b, stride=1, padding=1).data ** 2).sum())

        out = F.conv2d(x, w, b, stride=1, padding=1)
        (out * out).sum().backward()
        assert_gradients_match(w, loss_value)
        assert_gradients_match(b, loss_value)
        assert_gradients_match(x, loss_value)

    def test_conv2d_stride_two_no_padding(self, generator):
        x = Tensor(generator.standard_normal((1, 2, 8, 8)), requires_grad=True)
        w = Tensor(generator.standard_normal((3, 2, 3, 3)), requires_grad=True)

        def loss_value() -> float:
            return float(F.conv2d(x, w, stride=2, padding=0).data.sum())

        F.conv2d(x, w, stride=2, padding=0).sum().backward()
        assert_gradients_match(w, loss_value)
        assert_gradients_match(x, loss_value)


class TestPoolingGradients:
    def test_max_pool_gradient(self, generator):
        x = Tensor(generator.standard_normal((2, 2, 6, 6)), requires_grad=True)
        scale = generator.standard_normal((2, 2, 3, 3))

        def loss_value() -> float:
            return float((F.max_pool2d(x, 3, stride=2, padding=1).data * scale).sum())

        (F.max_pool2d(x, 3, stride=2, padding=1) * Tensor(scale)).sum().backward()
        assert_gradients_match(x, loss_value)


class TestClassificationGradients:
    def test_softmax_cross_entropy_gradient(self, generator):
        logits = Tensor(generator.standard_normal((5, 4)), requires_grad=True)
        targets = generator.integers(0, 4, size=5)

        def loss_value() -> float:
            return float(F.softmax_cross_entropy(Tensor(logits.data), targets).data)

        F.softmax_cross_entropy(logits, targets).backward()
        assert_gradients_match(logits, loss_value)

    def test_cross_entropy_gradient_matches_softmax_minus_onehot(self, generator):
        logits = Tensor(generator.standard_normal((3, 3)), requires_grad=True)
        targets = np.array([0, 2, 1])
        softmax_cross_entropy(logits, targets).backward()
        probabilities = F.log_softmax(Tensor(logits.data)).exp().data
        one_hot = np.eye(3)[targets]
        np.testing.assert_allclose(logits.grad, (probabilities - one_hot) / 3, atol=1e-8)

    def test_log_softmax_gradient(self, generator):
        logits = Tensor(generator.standard_normal((4, 5)), requires_grad=True)
        weights = generator.standard_normal((4, 5))

        def loss_value() -> float:
            return float((F.log_softmax(Tensor(logits.data)).data * weights).sum())

        (F.log_softmax(logits) * Tensor(weights)).sum().backward()
        assert_gradients_match(logits, loss_value)


class TestLayerGradients:
    def test_linear_gradient(self, generator):
        layer = Linear(4, 3, rng=generator)
        x = Tensor(generator.standard_normal((5, 4)), requires_grad=True)

        def loss_value() -> float:
            return float((layer(Tensor(x.data)).data ** 2).sum())

        out = layer(x)
        (out * out).sum().backward()
        assert_gradients_match(x, loss_value)
        assert_gradients_match(layer.weight, loss_value)
        assert_gradients_match(layer.bias, loss_value)

    def test_batchnorm1d_gradient(self, generator):
        layer = BatchNorm1d(4)
        layer.train()
        x = Tensor(generator.standard_normal((6, 4)), requires_grad=True)

        def loss_value() -> float:
            fresh = BatchNorm1d(4)
            fresh.gamma.data = layer.gamma.data.copy()
            fresh.beta.data = layer.beta.data.copy()
            return float((fresh(Tensor(x.data)).data ** 2).sum())

        out = layer(x)
        (out * out).sum().backward()
        assert_gradients_match(x, loss_value, atol=1e-4)

    def test_batchnorm2d_gamma_beta_gradient(self, generator):
        layer = BatchNorm2d(3)
        x_data = generator.standard_normal((4, 3, 5, 5))

        def loss_value() -> float:
            fresh = BatchNorm2d(3)
            fresh.gamma.data = layer.gamma.data.copy()
            fresh.beta.data = layer.beta.data.copy()
            return float((fresh(Tensor(x_data)).data ** 2).sum())

        out = layer(Tensor(x_data))
        (out * out).sum().backward()
        assert_gradients_match(layer.gamma, loss_value, atol=1e-4)
        assert_gradients_match(layer.beta, loss_value, atol=1e-4)


class TestElementwiseGradChecks:
    @pytest.mark.parametrize(
        "operation",
        [
            lambda t: (t.exp()).sum(),
            lambda t: ((t + 3.0).log()).sum(),
            lambda t: (t ** 2).mean(),
            lambda t: (t.relu()).sum(),
        ],
    )
    def test_unary_operations(self, generator, operation):
        x = Tensor(generator.uniform(0.1, 2.0, size=(3, 4)), requires_grad=True)

        def loss_value() -> float:
            return float(operation(Tensor(x.data)).data)

        operation(x).backward()
        assert_gradients_match(x, loss_value)
