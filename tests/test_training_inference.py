"""Integration-level tests for joint training, staged inference and accuracy measures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DDNNTrainer,
    ExitOracle,
    TrainingConfig,
    build_ddnn,
    search_threshold,
    threshold_for_exit_rate,
)
from repro.nn import load_module, save_module


class TestDDNNTrainer:
    def test_training_reduces_joint_loss(self, tiny_config, tiny_train):
        model = build_ddnn(tiny_config)
        trainer = DDNNTrainer(model, TrainingConfig(epochs=5, batch_size=32, seed=0))
        history = trainer.fit(tiny_train)
        losses = history.losses()
        assert len(losses) == 5
        assert losses[-1] < losses[0]
        assert history.final_loss == losses[-1]

    def test_epoch_stats_record_exit_accuracy(self, tiny_config, tiny_train):
        model = build_ddnn(tiny_config)
        trainer = DDNNTrainer(model, TrainingConfig(epochs=1, batch_size=32))
        stats = trainer.train_epoch(tiny_train)
        assert set(stats.exit_accuracy) == {"local", "cloud"}
        assert all(0.0 <= value <= 1.0 for value in stats.exit_accuracy.values())

    def test_exit_weights_affect_training(self, tiny_config, tiny_train):
        local_only = build_ddnn(tiny_config)
        trainer = DDNNTrainer(
            local_only,
            TrainingConfig(epochs=3, batch_size=32, exit_weights=(1.0, 0.0), seed=0),
        )
        trainer.fit(tiny_train)
        accuracies = trainer.evaluate_exits(tiny_train)
        # With a zero cloud weight the cloud exit stays near chance while the
        # local exit learns.
        assert accuracies["local"] > accuracies["cloud"] - 0.05

    def test_empty_history_raises(self, tiny_config):
        trainer = DDNNTrainer(build_ddnn(tiny_config), TrainingConfig(epochs=1))
        with pytest.raises(ValueError):
            _ = trainer.history.final_loss

    def test_trained_model_beats_chance(self, trained_ddnn, tiny_test):
        accuracies = ExitOracle.capture(trained_ddnn, tiny_test).exit_accuracies()
        assert accuracies["cloud"] > 1.0 / 3.0
        assert accuracies["local"] > 1.0 / 3.0


@pytest.fixture(scope="module")
def oracle(trained_ddnn, tiny_test):
    return ExitOracle.capture(trained_ddnn, tiny_test, compile=False)


class TestStagedInference:
    def test_threshold_one_exits_everything_locally(self, oracle):
        result = oracle.route(1.0)
        assert result.local_exit_fraction == 1.0
        assert set(result.exit_indices.tolist()) == {0}

    def test_threshold_zero_sends_everything_to_cloud(self, oracle):
        result = oracle.route(0.0)
        assert result.local_exit_fraction == 0.0
        np.testing.assert_array_equal(
            result.predictions, result.exit_predictions["cloud"]
        )

    def test_intermediate_threshold_splits_samples(self, oracle):
        result = oracle.route(0.8)
        assert 0.0 <= result.local_exit_fraction <= 1.0
        assert result.exit_fraction("local") + result.exit_fraction("cloud") == pytest.approx(1.0)
        # Predictions come from the exit each sample was assigned to.
        local_rows = result.exit_indices == 0
        np.testing.assert_array_equal(
            result.predictions[local_rows], result.exit_predictions["local"][local_rows]
        )

    def test_exit_rate_monotonically_increases_with_threshold(self, oracle):
        fractions = [oracle.route(t).local_exit_fraction for t in (0.0, 0.3, 0.6, 0.9, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_communication_decreases_with_threshold(self, oracle):
        low = oracle.communication_bytes(oracle.route(0.1))
        assert low >= oracle.communication_bytes(oracle.route(0.95))

    def test_targets_captured_from_dataset(self, oracle, tiny_test):
        result = oracle.route(0.5)
        assert result.targets is not None
        assert 0.0 <= result.accuracy() <= 1.0
        assert result.accuracy() == result.accuracy(tiny_test.labels)

    def test_raw_array_input_requires_explicit_targets(self, trained_ddnn, tiny_test):
        result = ExitOracle.capture(trained_ddnn, tiny_test.images).route(0.8)
        with pytest.raises(ValueError):
            result.accuracy()


class TestThresholdSearch:
    def test_search_returns_best_candidate(self, trained_ddnn, tiny_test):
        outcome = search_threshold(trained_ddnn, tiny_test, grid=(0.0, 0.5, 1.0))
        assert outcome.best in outcome.candidates
        assert outcome.best.overall_accuracy == max(
            candidate.overall_accuracy for candidate in outcome.candidates
        )
        assert 0.0 <= outcome.best_threshold <= 1.0

    def test_threshold_for_exit_rate_targets_fraction(self, trained_ddnn, tiny_test):
        outcome = threshold_for_exit_rate(
            trained_ddnn, tiny_test, target_fraction=1.0, grid=(0.0, 0.5, 1.0)
        )
        assert outcome.best.local_exit_fraction == pytest.approx(1.0)

    def test_invalid_target_fraction(self, trained_ddnn, tiny_test):
        with pytest.raises(ValueError):
            threshold_for_exit_rate(trained_ddnn, tiny_test, target_fraction=1.5)


class TestSerializationOfDDNN:
    def test_save_load_preserves_predictions(self, trained_ddnn, tiny_test, tiny_config, tmp_path):
        path = tmp_path / "ddnn.npz"
        save_module(trained_ddnn, path)
        restored = build_ddnn(tiny_config)
        load_module(restored, path)
        restored.eval()
        original = ExitOracle.capture(trained_ddnn, tiny_test, compile=False).route(0.8)
        reloaded = ExitOracle.capture(restored, tiny_test, compile=False).route(0.8)
        np.testing.assert_array_equal(original.predictions, reloaded.predictions)
