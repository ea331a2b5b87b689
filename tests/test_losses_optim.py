"""Tests for loss functions and optimisers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, Linear, Parameter, Tensor, joint_exit_loss, softmax_cross_entropy
from repro.nn import functional as F


class TestSoftmaxCrossEntropyLoss:
    def test_is_the_functional_implementation(self):
        assert softmax_cross_entropy is F.softmax_cross_entropy


class TestJointExitLoss:
    def test_equal_weights_sum_exit_losses(self):
        logits_a = Tensor(np.zeros((2, 3)))
        logits_b = Tensor(np.zeros((2, 3)))
        targets = np.array([0, 1])
        loss = joint_exit_loss([logits_a, logits_b], targets)
        assert loss.item() == pytest.approx(2 * np.log(3))

    def test_custom_weights(self):
        logits = Tensor(np.zeros((2, 3)))
        targets = np.array([0, 1])
        loss = joint_exit_loss([logits, logits], targets, exit_weights=[2.0, 0.5])
        assert loss.item() == pytest.approx(2.5 * np.log(3))

    def test_gradients_flow_to_all_exits(self):
        logits_a = Tensor(np.random.default_rng(0).standard_normal((3, 3)), requires_grad=True)
        logits_b = Tensor(np.random.default_rng(1).standard_normal((3, 3)), requires_grad=True)
        joint_exit_loss([logits_a, logits_b], np.array([0, 1, 2])).backward()
        assert logits_a.grad is not None
        assert logits_b.grad is not None

    def test_zero_weight_silences_an_exit(self):
        logits_a = Tensor(np.random.default_rng(0).standard_normal((3, 3)), requires_grad=True)
        logits_b = Tensor(np.random.default_rng(1).standard_normal((3, 3)), requires_grad=True)
        joint_exit_loss([logits_a, logits_b], np.array([0, 1, 2]), exit_weights=[1.0, 0.0]).backward()
        np.testing.assert_allclose(logits_b.grad, np.zeros((3, 3)))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            joint_exit_loss([], np.array([0]))
        with pytest.raises(ValueError):
            joint_exit_loss([Tensor(np.zeros((1, 2)))], np.array([0]), exit_weights=[1.0, 2.0])


class TestOptimizers:
    def test_adam_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_adam_converges_on_regression(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 3))
        true_w = np.array([[1.0, -2.0, 0.5]])
        y = x @ true_w.T
        layer = Linear(3, 1, rng=rng)
        optimizer = Adam(layer.parameters(), lr=0.05)
        for _ in range(200):
            out = layer(Tensor(x))
            loss = ((out - Tensor(y)) ** 2).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)

    def test_adam_skips_parameters_without_gradients(self):
        used = Parameter(np.array([1.0]))
        unused = Parameter(np.array([2.0]))
        optimizer = Adam([used, unused], lr=0.1)
        (used * used).sum().backward()
        optimizer.step()
        assert unused.data[0] == 2.0
        assert used.data[0] != 1.0

    def test_zero_grad_resets_gradients(self):
        weight = Parameter(np.array([1.0]))
        optimizer = Adam([weight], lr=0.1)
        (weight * 2).sum().backward()
        optimizer.zero_grad()
        assert weight.grad is None
