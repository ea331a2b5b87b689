"""Tests for aggregation schemes and the entropy-threshold exit criterion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AveragePoolAggregator,
    ConcatAggregator,
    ExitCriterion,
    MaxPoolAggregator,
    make_aggregator,
    normalized_entropy,
    softmax_probabilities,
)
from repro.nn import Tensor


def _vectors(num_devices=3, batch=4, features=5, seed=0):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.standard_normal((batch, features))) for _ in range(num_devices)]


class TestMaxPoolAggregator:
    def test_componentwise_maximum(self):
        aggregator = MaxPoolAggregator(2)
        a = Tensor(np.array([[1.0, 5.0]]))
        b = Tensor(np.array([[3.0, 2.0]]))
        np.testing.assert_allclose(aggregator([a, b]).data, [[3.0, 5.0]])

    def test_single_device_is_identity(self):
        aggregator = MaxPoolAggregator(1)
        a = Tensor(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(aggregator([a]).data, a.data)

    def test_works_on_feature_maps(self):
        inputs = [Tensor(np.random.default_rng(i).standard_normal((2, 3, 4, 4))) for i in range(3)]
        out = MaxPoolAggregator(3)(inputs)
        assert out.shape == (2, 3, 4, 4)
        np.testing.assert_allclose(out.data, np.maximum.reduce([t.data for t in inputs]))

    def test_wrong_device_count_raises(self):
        with pytest.raises(ValueError):
            MaxPoolAggregator(3)(_vectors(num_devices=2))

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            MaxPoolAggregator(2)([Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3)))])


class TestAveragePoolAggregator:
    def test_componentwise_mean(self):
        aggregator = AveragePoolAggregator(2)
        a = Tensor(np.array([[2.0, 4.0]]))
        b = Tensor(np.array([[4.0, 0.0]]))
        np.testing.assert_allclose(aggregator([a, b]).data, [[3.0, 2.0]])

    def test_matches_numpy_mean(self):
        inputs = _vectors(num_devices=4, seed=3)
        out = AveragePoolAggregator(4)(inputs)
        np.testing.assert_allclose(out.data, np.mean([t.data for t in inputs], axis=0))


class TestConcatAggregator:
    def test_concatenation_expands_feature_dimension(self):
        aggregator = ConcatAggregator(3)
        out = aggregator(_vectors(num_devices=3, features=5))
        assert out.shape == (4, 15)
        assert aggregator.output_channels(5) == 15

    def test_projection_maps_back_to_feature_dim(self):
        aggregator = ConcatAggregator(3, feature_dim=5, project=True, rng=np.random.default_rng(0))
        out = aggregator(_vectors(num_devices=3, features=5))
        assert out.shape == (4, 5)
        assert aggregator.output_channels(5) == 5
        assert len(aggregator.parameters()) == 2  # projection weight + bias

    def test_projection_requires_feature_dim(self):
        with pytest.raises(ValueError):
            ConcatAggregator(3, project=True)

    def test_projection_rejects_feature_maps(self):
        aggregator = ConcatAggregator(2, feature_dim=3, project=True)
        with pytest.raises(ValueError):
            aggregator([Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 3, 4, 4)))])

    def test_channel_concatenation_for_feature_maps(self):
        aggregator = ConcatAggregator(2)
        inputs = [Tensor(np.ones((1, 3, 4, 4))), Tensor(np.zeros((1, 3, 4, 4)))]
        out = aggregator(inputs)
        assert out.shape == (1, 6, 4, 4)


class TestMakeAggregator:
    @pytest.mark.parametrize("scheme,cls", [("MP", MaxPoolAggregator), ("AP", AveragePoolAggregator), ("CC", ConcatAggregator)])
    def test_factory_by_code(self, scheme, cls):
        assert isinstance(make_aggregator(scheme, 3, feature_dim=4), cls)

    def test_lowercase_accepted(self):
        assert isinstance(make_aggregator("mp", 2), MaxPoolAggregator)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            make_aggregator("XX", 2)

    def test_zero_devices_rejected(self):
        with pytest.raises(ValueError):
            MaxPoolAggregator(0)


class TestNormalizedEntropy:
    def test_uniform_distribution_gives_one(self):
        probabilities = np.full((1, 4), 0.25)
        assert normalized_entropy(probabilities)[0] == pytest.approx(1.0)

    def test_one_hot_gives_zero(self):
        probabilities = np.array([[1.0, 0.0, 0.0]])
        assert normalized_entropy(probabilities)[0] == pytest.approx(0.0)

    def test_values_bounded_in_unit_interval(self):
        logits = np.random.default_rng(0).standard_normal((100, 3))
        entropy = normalized_entropy(softmax_probabilities(logits))
        assert (entropy >= 0).all() and (entropy <= 1.0 + 1e-12).all()

    def test_requires_at_least_two_classes(self):
        with pytest.raises(ValueError):
            normalized_entropy(np.array([[1.0]]))

    def test_softmax_probabilities_stable(self):
        probabilities = softmax_probabilities(np.array([[1e6, 0.0]]))
        assert np.isfinite(probabilities).all()


class TestExitCriterion:
    def test_threshold_bounds_validated(self):
        with pytest.raises(ValueError):
            ExitCriterion(-0.1)
        with pytest.raises(ValueError):
            ExitCriterion(1.5)

    def test_threshold_zero_exits_nothing_threshold_one_exits_all(self):
        logits = np.random.default_rng(0).standard_normal((20, 3))
        none = ExitCriterion(0.0).evaluate(logits)
        everything = ExitCriterion(1.0).evaluate(logits)
        assert none.exit_fraction == 0.0
        assert everything.exit_fraction == 1.0

    def test_exit_mask_matches_entropy_rule(self):
        logits = np.random.default_rng(1).standard_normal((50, 3))
        criterion = ExitCriterion(0.6, name="local")
        decision = criterion.evaluate(logits)
        np.testing.assert_array_equal(decision.exit_mask, decision.entropies <= 0.6)
        np.testing.assert_array_equal(
            decision.predictions, decision.probabilities.argmax(axis=1)
        )

    def test_accepts_tensor_input(self):
        decision = ExitCriterion(0.5).evaluate(Tensor(np.zeros((2, 3))))
        assert decision.probabilities.shape == (2, 3)

    def test_repr_contains_name(self):
        assert "local" in repr(ExitCriterion(0.5, name="local"))
