"""Unit tests for the autodiff Tensor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, is_grad_enabled, maximum, no_grad


class TestTensorBasics:
    def test_wraps_array_as_float64(self):
        tensor = Tensor([[1, 2], [3, 4]])
        assert tensor.data.dtype == np.float64
        assert tensor.shape == (2, 2)
        assert tensor.ndim == 2
        assert tensor.size == 4
        assert len(tensor) == 2

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_returns_scalar(self):
        assert Tensor([[3.5]]).item() == pytest.approx(3.5)

    def test_zero_grad_clears_gradient(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        (tensor * 2).sum().backward()
        assert tensor.grad is not None
        tensor.zero_grad()
        assert tensor.grad is None


class TestArithmetic:
    def test_add_and_radd(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = 1.0 + a + np.array([1.0, 1.0])
        np.testing.assert_allclose(out.data, [3.0, 4.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_subtraction_and_negation(self):
        a = Tensor([3.0], requires_grad=True)
        out = 5.0 - a
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_multiplication_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)

    def test_division_gradient(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [1 / 3])
        np.testing.assert_allclose(b.grad, [-6 / 9])

    def test_power_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a ** 3).sum().backward()
        np.testing.assert_allclose(a.grad, 3 * a.data ** 2)

    def test_power_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_broadcast_gradient_unbroadcasts(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 2)
        assert b.grad.shape == (2,)
        np.testing.assert_allclose(b.grad, [3.0, 3.0])

    def test_matmul_gradients(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        b = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, [[4.0], [6.0]])


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.backward(np.ones((2, 1)))
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_gradient_scales(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 4), 1 / 8))

    def test_reshape_and_transpose_roundtrip_gradient(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        out = a.reshape(3, 2).transpose()
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_flatten(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.flatten().shape == (2, 12)
        assert a.flatten(start_dim=0).shape == (24,)

    def test_getitem_gradient(self):
        a = Tensor(np.arange(5, dtype=float), requires_grad=True)
        a[1:4].sum().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 1, 1, 0])


class TestElementwiseMath:
    def test_exp_log_roundtrip(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a.exp().log()
        np.testing.assert_allclose(out.data, a.data)

    def test_relu_masks_negative(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        out = a.relu()
        np.testing.assert_allclose(out.data, [0.0, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])

    def test_sign_ste_forward_and_backward(self):
        a = Tensor([-0.5, 0.0, 0.5, 3.0], requires_grad=True)
        out = a.sign_ste()
        np.testing.assert_allclose(out.data, [-1.0, 1.0, 1.0, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0, 1.0, 0.0])


class TestBackwardSemantics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_needs_grad_for_non_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            a.backward()

    def test_gradients_accumulate_across_uses(self):
        a = Tensor([1.0], requires_grad=True)
        out = a * 2 + a * 3
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [5.0])

    def test_no_grad_context_disables_tracking(self):
        a = Tensor([1.0], requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            out = a * 2
        assert is_grad_enabled()
        assert not out.requires_grad
        assert out._backward is None


class TestCombinators:
    def test_concatenate_and_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)

    def test_concatenate_empty_raises(self):
        with pytest.raises(ValueError):
            concatenate([])

    def test_maximum_elementwise_and_gradient_routing(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        out = maximum([a, b])
        np.testing.assert_allclose(out.data, [3.0, 5.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_maximum_ties_split_gradient(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        maximum([a, b]).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [0.5])

    def test_maximum_empty_raises(self):
        with pytest.raises(ValueError):
            maximum([])
