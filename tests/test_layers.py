"""Unit tests for the Module system and standard layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tensor,
)


class _ToyModel(Module):
    def __init__(self):
        super().__init__()
        self.first = Linear(4, 8, rng=np.random.default_rng(0))
        self.second = Linear(8, 2, rng=np.random.default_rng(1))
        self.register_buffer("scale", np.array([2.0]))

    def forward(self, inputs):
        return self.second(self.first(inputs).relu())


class TestModuleSystem:
    def test_parameters_are_registered_recursively(self):
        model = _ToyModel()
        names = dict(model.named_parameters())
        assert set(names) == {"first.weight", "first.bias", "second.weight", "second.bias"}
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_buffers_are_registered(self):
        model = _ToyModel()
        assert dict(model.named_buffers())["scale"][0] == 2.0

    def test_train_eval_propagates(self):
        model = _ToyModel()
        model.eval()
        assert all(not module.training for module in model.modules())
        model.train()
        assert all(module.training for module in model.modules())

    def test_state_dict_roundtrip(self):
        model = _ToyModel()
        other = _ToyModel()
        state = model.state_dict()
        other.load_state_dict(state)
        for (name_a, param_a), (name_b, param_b) in zip(
            model.named_parameters(), other.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(param_a.data, param_b.data)

    def test_forward_not_implemented_on_base_module(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor(np.zeros(1)))


def _normed(seed: int) -> Sequential:
    """Parameters in three layers, and a BatchNorm's buffers between them."""
    rng = np.random.default_rng(seed)
    model = Sequential(Linear(4, 2, rng=rng), BatchNorm1d(2), Linear(2, 3, rng=rng))
    model(Tensor(rng.standard_normal((5, 4))))  # running statistics off their defaults
    return model


class TestLoadStateDictIsAllOrNothing:
    """A rejected load raises before it writes anything: the model keeps
    every parameter and buffer it had."""

    def _assert_rejected(self, state, error, match):
        model = _normed(0)
        before = model.state_dict()
        with pytest.raises(error, match=match):
            model.load_state_dict(state)
        after = model.state_dict()
        assert after.keys() == before.keys()
        for name in before:
            np.testing.assert_array_equal(after[name], before[name], err_msg=name)

    def test_a_missing_entry_writes_nothing(self):
        state = _normed(1).state_dict()
        del state["layer2.bias"]  # the last parameter: every other one is valid
        self._assert_rejected(state, KeyError, r"missing \['layer2.bias'\]")

    def test_a_shape_mismatch_writes_nothing(self):
        state = _normed(1).state_dict()
        state["layer2.bias"] = np.zeros(4)
        self._assert_rejected(state, ValueError, "layer2.bias")

    def test_a_buffer_of_the_wrong_shape_is_rejected(self):
        state = _normed(1).state_dict()
        state["layer1.running_mean"] = np.zeros(7)
        self._assert_rejected(state, ValueError, "layer1.running_mean")

    def test_an_unexpected_entry_is_rejected_by_name(self):
        state = _normed(1).state_dict()
        state["layer3.weight"] = np.zeros((3, 3))
        self._assert_rejected(state, KeyError, r"unexpected \['layer3.weight'\]")

    @pytest.mark.parametrize("name", ["layer0.weight", "layer1.running_var"])
    def test_a_non_finite_value_is_rejected(self, name):
        state = _normed(1).state_dict()
        state[name].flat[0] = np.nan
        self._assert_rejected(state, ValueError, name)


class TestSequential:
    def test_applies_layers_in_order(self):
        model = Sequential(Linear(3, 5, rng=np.random.default_rng(0)), ReLU(), Flatten())
        out = model(Tensor(np.ones((2, 3))))
        assert out.shape == (2, 5)
        assert len(model) == 3
        assert isinstance(model[1], ReLU)
        assert [type(layer).__name__ for layer in model] == ["Linear", "ReLU", "Flatten"]

    def test_registers_child_parameters(self):
        model = Sequential(Linear(3, 5), Linear(5, 2))
        assert model.num_parameters() == 3 * 5 + 5 + 5 * 2 + 2


class TestLinear:
    def test_output_shape_and_bias(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, np.zeros((2, 3)))

    def test_no_bias_option(self):
        layer = Linear(4, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_matches_manual_matmul(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)


class TestConvAndPoolLayers:
    def test_conv2d_layer_shape(self):
        layer = Conv2d(3, 6, kernel_size=3, stride=1, padding=1)
        out = layer(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 6, 8, 8)

    def test_maxpool_layer_defaults_stride_to_kernel(self):
        layer = MaxPool2d(2)
        out = layer(Tensor(np.zeros((1, 1, 8, 8))))
        assert out.shape == (1, 1, 4, 4)


class TestBatchNorm:
    def test_training_mode_normalizes_batch(self):
        layer = BatchNorm1d(3)
        x = np.random.default_rng(0).standard_normal((64, 3)) * 5 + 2
        out = layer(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), np.ones(3), atol=1e-2)

    def test_running_statistics_are_updated(self):
        layer = BatchNorm1d(2, momentum=0.5)
        x = np.ones((4, 2)) * 3.0
        layer(Tensor(x))
        np.testing.assert_allclose(layer.running_mean, [1.5, 1.5])

    def test_eval_mode_uses_running_statistics(self):
        layer = BatchNorm1d(2, momentum=1.0)
        train_batch = np.random.default_rng(0).standard_normal((32, 2)) * 2 + 1
        layer(Tensor(train_batch))
        layer.eval()
        single = layer(Tensor(np.array([[1.0, 1.0]]))).data
        expected = (np.array([[1.0, 1.0]]) - layer.running_mean) / np.sqrt(
            layer.running_var + layer.eps
        )
        np.testing.assert_allclose(single, expected, atol=1e-10)

    def test_batchnorm2d_normalizes_per_channel(self):
        layer = BatchNorm2d(3)
        x = np.random.default_rng(1).standard_normal((8, 3, 4, 4)) * 4 - 1
        out = layer(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-7)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            BatchNorm1d(3)(Tensor(np.zeros((2, 3, 4))))
        with pytest.raises(ValueError):
            BatchNorm2d(3)(Tensor(np.zeros((2, 3))))

    def test_state_dict_includes_running_stats(self):
        layer = BatchNorm1d(2)
        layer(Tensor(np.ones((4, 2))))
        state = layer.state_dict()
        assert "running_mean" in state and "running_var" in state
        fresh = BatchNorm1d(2)
        fresh.load_state_dict(state)
        np.testing.assert_allclose(fresh.running_mean, layer.running_mean)


class TestActivationsAndUtility:
    def test_relu_and_flatten(self):
        x = Tensor(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(ReLU()(x).data, [[0.0, 2.0]])
        assert Flatten()(Tensor(np.zeros((2, 3, 4)))).shape == (2, 12)

    def test_parameter_always_requires_grad(self):
        assert Parameter(np.zeros(3)).requires_grad
