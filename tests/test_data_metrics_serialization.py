"""Tests for the accuracy metric and serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Linear, accuracy, load_module, load_state, save_module, save_state
from repro.nn.layers import BatchNorm1d, Sequential


class TestMetrics:
    def test_accuracy_from_labels_and_logits(self):
        targets = np.array([0, 1, 2])
        assert accuracy(np.array([0, 1, 1]), targets) == pytest.approx(2 / 3)
        logits = np.array([[9, 0, 0], [0, 9, 0], [0, 9, 0]])
        assert accuracy(logits, targets) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))


class TestSerialization:
    def test_state_roundtrip(self, tmp_path):
        state = {"a": np.arange(4.0), "b": np.ones((2, 2))}
        path = tmp_path / "state.npz"
        save_state(state, path)
        loaded = load_state(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], state["a"])

    def test_module_roundtrip_preserves_outputs(self, tmp_path):
        from repro.nn import Tensor

        model = Sequential(Linear(4, 8, rng=np.random.default_rng(0)), BatchNorm1d(8))
        x = np.random.default_rng(1).standard_normal((5, 4))
        model(Tensor(x))  # populate batch-norm running stats
        model.eval()
        expected = model(Tensor(x)).data

        path = tmp_path / "model.npz"
        save_module(model, path)
        restored = Sequential(Linear(4, 8, rng=np.random.default_rng(7)), BatchNorm1d(8))
        load_module(restored, path)
        restored.eval()
        np.testing.assert_allclose(restored(Tensor(x)).data, expected)
