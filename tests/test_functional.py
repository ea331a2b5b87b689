"""Unit tests for conv/pool/softmax functional operations."""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.functional as F
from repro.datasets import NOT_PRESENT_LABEL
from repro.nn import Tensor
from repro.nn.binary import BinaryConv2d
from repro.nn.layers import Conv2d, MaxPool2d


class TestIm2Col:
    def test_roundtrip_with_col2im_counts_overlaps(self):
        images = np.arange(2 * 1 * 4 * 4, dtype=float).reshape(2, 1, 4, 4)
        columns, out_h, out_w = F.im2col(images, 3, 3, stride=1, padding=1)
        assert columns.shape == (2, 9, out_h * out_w)
        reconstructed = F.col2im(columns, images.shape, 3, 3, stride=1, padding=1)
        # Each pixel is reconstructed once per window that covers it.
        counts = F.col2im(
            np.ones_like(columns), images.shape, 3, 3, stride=1, padding=1
        )
        np.testing.assert_allclose(reconstructed, images * counts)

    def test_output_size_formula(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 3, 2, 1) == 16
        assert F.conv_output_size(16, 3, 2, 1) == 8
        assert F.conv_output_size(5, 3, 1, 0) == 3


class TestConv2d:
    def test_identity_kernel_preserves_input(self):
        images = np.random.default_rng(0).standard_normal((2, 1, 5, 5))
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        out = F.conv2d(Tensor(images), Tensor(kernel), stride=1, padding=1)
        np.testing.assert_allclose(out.data, images)

    def test_matches_manual_convolution(self):
        rng = np.random.default_rng(1)
        images = rng.standard_normal((1, 2, 4, 4))
        kernel = rng.standard_normal((3, 2, 3, 3))
        out = F.conv2d(Tensor(images), Tensor(kernel), stride=1, padding=1).data
        padded = np.pad(images, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros((1, 3, 4, 4))
        for oc in range(3):
            for y in range(4):
                for x in range(4):
                    expected[0, oc, y, x] = np.sum(
                        padded[0, :, y : y + 3, x : x + 3] * kernel[oc]
                    )
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_bias_added_per_channel(self):
        images = np.zeros((1, 1, 3, 3))
        kernel = np.zeros((2, 1, 3, 3))
        bias = np.array([1.5, -2.0])
        out = F.conv2d(Tensor(images), Tensor(kernel), Tensor(bias), padding=1).data
        np.testing.assert_allclose(out[0, 0], np.full((3, 3), 1.5))
        np.testing.assert_allclose(out[0, 1], np.full((3, 3), -2.0))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_output_shape_with_stride(self):
        out = F.conv2d(
            Tensor(np.zeros((2, 3, 8, 8))), Tensor(np.zeros((5, 3, 3, 3))), stride=2, padding=1
        )
        assert out.shape == (2, 5, 4, 4)


class TestPooling:
    def test_max_pool_picks_window_maximum(self):
        images = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = F.max_pool2d(Tensor(images), 2, stride=2)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 4.0

    def test_max_pool_paper_geometry_halves_spatial_size(self):
        out = F.max_pool2d(Tensor(np.zeros((2, 4, 32, 32))), 3, stride=2, padding=1)
        assert out.shape == (2, 4, 16, 16)

    def test_max_pool_ignores_padding_values(self):
        images = -np.ones((1, 1, 4, 4))
        out = F.max_pool2d(Tensor(images), 3, stride=2, padding=1)
        assert out.data.max() == -1.0  # padding (-inf) never wins

    def test_avg_pool_matches_mean(self):
        images = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(images), 2, stride=2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_output_shape_with_padding(self):
        out = F.avg_pool2d(Tensor(np.zeros((1, 2, 16, 16))), 3, stride=2, padding=1)
        assert out.shape == (1, 2, 8, 8)


def _zeros(*shape):
    return Tensor(np.zeros(shape))


class TestDegenerateGeometry:
    """Geometry no output can come from fails at the boundary, naming the
    argument, instead of returning ``-inf`` windows or a numpy error."""

    @pytest.mark.parametrize(
        "call, match",
        [
            # Windows wholly in the padding (16 of 25 outputs were -inf).
            (lambda: F.max_pool2d(_zeros(1, 1, 2, 2), 2, stride=1, padding=2), "padding"),
            (lambda: F.max_pool2d(_zeros(1, 1, 4, 4), 2, stride=0), "stride"),
            (lambda: F.max_pool2d(_zeros(1, 1, 4, 4), 3, stride=1, padding=-1), "padding"),
            (lambda: F.max_pool2d(_zeros(1, 1, 2, 2), 3, stride=1), "no output"),
            (lambda: F.max_pool2d(_zeros(1, 4, 4), 2), "4-D"),
            (lambda: F.conv2d(_zeros(1, 1, 4, 4), _zeros(1, 1, 3, 3), stride=0), "stride"),
            (lambda: F.conv2d(_zeros(1, 1, 4, 4), _zeros(1, 1, 3, 3), padding=-1), "padding"),
            (lambda: F.conv2d(_zeros(1, 1, 2, 2), _zeros(1, 1, 3, 3)), "no output"),
            (lambda: F.conv2d(_zeros(1, 4, 4), _zeros(1, 1, 3, 3)), "4-D"),
            (lambda: F.avg_pool2d(_zeros(1, 1, 4, 4), 2, stride=0), "stride"),
            (lambda: MaxPool2d(3, stride=0), "stride"),
            (lambda: MaxPool2d(2, padding=2), "padding"),
            (lambda: Conv2d(1, 1, 3, stride=0), "stride"),
            (lambda: Conv2d(1, 1, 3, padding=-1), "padding"),
            (lambda: BinaryConv2d(1, 1, 3, stride=0), "stride"),
        ],
        ids=[
            "pool-windows-in-padding",
            "pool-stride-0",
            "pool-negative-padding",
            "pool-no-output",
            "pool-3d-input",
            "conv-stride-0",
            "conv-negative-padding",
            "conv-no-output",
            "conv-3d-input",
            "avg-pool-stride-0",
            "MaxPool2d-stride-0",
            "MaxPool2d-padding-over-half-kernel",
            "Conv2d-stride-0",
            "Conv2d-negative-padding",
            "BinaryConv2d-stride-0",
        ],
    )
    def test_raises_value_error_naming_the_argument(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((4, 6)))
        probabilities = F.softmax(logits).data
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(4))
        assert (probabilities >= 0).all()

    def test_softmax_is_shift_invariant(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        a = F.softmax(Tensor(logits)).data
        b = F.softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(a, b)

    def test_log_softmax_matches_log_of_softmax(self):
        logits = Tensor(np.random.default_rng(1).standard_normal((3, 5)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data, np.log(F.softmax(logits).data), atol=1e-10
        )

    def test_softmax_handles_large_logits(self):
        probabilities = F.softmax(Tensor(np.array([[1000.0, 0.0]]))).data
        assert np.isfinite(probabilities).all()
        assert probabilities[0, 0] == pytest.approx(1.0)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = F.softmax_cross_entropy(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(4))

    def test_perfect_prediction_gives_near_zero_loss(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_normalize_by_classes_scales_loss(self):
        logits = Tensor(np.zeros((2, 4)))
        targets = np.array([0, 1])
        base = F.softmax_cross_entropy(logits, targets).item()
        scaled = F.softmax_cross_entropy(logits, targets, normalize_by_classes=True).item()
        assert scaled == pytest.approx(base / 4)

    def test_class_weights_scale_per_sample_loss(self):
        logits = Tensor(np.zeros((2, 2)))
        targets = np.array([0, 1])
        weighted = F.softmax_cross_entropy(
            logits, targets, class_weights=np.array([2.0, 0.0])
        ).item()
        assert weighted == pytest.approx(np.log(2))

    def test_target_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.softmax_cross_entropy(Tensor(np.zeros((3, 2))), np.array([0, 1]))

    @pytest.mark.parametrize(
        "targets",
        [
            [NOT_PRESENT_LABEL],  # used to score exactly like the last class
            [3],
            [1.7],  # used to be truncated to class 1
            [np.nan],
        ],
    )
    def test_invalid_labels_raise(self, targets):
        with pytest.raises(ValueError, match="class labels"):
            F.softmax_cross_entropy(Tensor(np.array([[0.0, 0.0, 5.0]])), np.array(targets))

    def test_integral_float_labels_are_accepted(self):
        logits = Tensor(np.array([[0.0, 0.0, 5.0]]))
        assert F.softmax_cross_entropy(logits, np.array([2.0])).item() == pytest.approx(
            F.softmax_cross_entropy(logits, np.array([2])).item()
        )
