"""Equivalence suite for the forward-once evaluation plane (``ExitOracle``).

The oracle's contract is that it is a pure optimisation: every quantity it
answers from its logit cache — routing, sweeps, accuracy reports, exit-rate
calibration — must equal what the per-threshold
:class:`~repro.core.inference.StagedInferenceEngine` / grid-search code
computed with repeated forwards.  Routing equality is *byte*-equality
(predictions, exit indices and entropies), across broadcast and per-exit
thresholds, degraded (failed-device) datasets and three-exit edge
topologies.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.compile.cache import cached_plan_count, compiled_plan_for, invalidate_plan
from repro.core import (
    DDNNConfig,
    DDNNTopology,
    DDNNTrainer,
    ExitCascade,
    ExitOracle,
    StagedInferenceEngine,
    TrainingConfig,
    build_ddnn,
    evaluate_exit_accuracies,
    search_threshold,
    threshold_for_exit_rate,
)

#: The paper's Table II grid plus the 21-point calibration grid used by the
#: Figure 9 exit-rate search.
TABLE2_GRID = (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
CALIBRATION_GRID = tuple(np.round(np.arange(0.0, 1.0001, 0.05), 4))


def assert_routing_identical(engine_result, oracle_result):
    np.testing.assert_array_equal(engine_result.predictions, oracle_result.predictions)
    np.testing.assert_array_equal(engine_result.exit_indices, oracle_result.exit_indices)
    np.testing.assert_array_equal(engine_result.entropies, oracle_result.entropies)
    assert engine_result.exit_names == oracle_result.exit_names
    for name in engine_result.exit_names:
        np.testing.assert_array_equal(
            engine_result.exit_predictions[name], oracle_result.exit_predictions[name]
        )


class TestRouteByteIdentity:
    @pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
    def test_route_matches_engine_across_both_grids(self, trained_ddnn, tiny_test, compile):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=compile)
        for threshold in set(TABLE2_GRID) | set(CALIBRATION_GRID):
            engine = StagedInferenceEngine(trained_ddnn, float(threshold), compile=compile)
            assert_routing_identical(engine.run(tiny_test), oracle.route(float(threshold)))

    @pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
    def test_route_matches_engine_on_failed_device_sets(self, trained_ddnn, tiny_test, compile):
        for failed in ([0], [1, 3]):
            degraded = tiny_test.with_failed_devices(failed)
            oracle = ExitOracle.capture(trained_ddnn, degraded, compile=compile)
            for threshold in TABLE2_GRID:
                engine = StagedInferenceEngine(trained_ddnn, float(threshold), compile=compile)
                assert_routing_identical(engine.run(degraded), oracle.route(float(threshold)))

    def test_route_matches_engine_per_exit_thresholds(self, trained_ddnn, tiny_test):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        for thresholds in ([0.3, 0.9], [0.9, 0.1], [0.0, 0.0]):
            engine = StagedInferenceEngine(trained_ddnn, thresholds)
            assert_routing_identical(engine.run(tiny_test), oracle.route(thresholds))

    def test_route_matches_engine_on_edge_topology(self, tiny_train, tiny_test):
        config = DDNNConfig(
            num_devices=4,
            device_filters=2,
            cloud_filters=4,
            edge_filters=3,
            cloud_hidden_units=8,
            topology=DDNNTopology.from_name("devices_edge_cloud"),
            seed=5,
        )
        model = build_ddnn(config)
        DDNNTrainer(model, TrainingConfig(epochs=2, batch_size=32, seed=0)).fit(tiny_train)
        oracle = ExitOracle.capture(model, tiny_test, compile=False)
        assert oracle.exit_names == ["local", "edge", "cloud"]
        for thresholds in (0.8, [0.5, 0.7], [0.9, 0.2, 0.4]):
            engine = StagedInferenceEngine(model, thresholds)
            assert_routing_identical(engine.run(tiny_test), oracle.route(thresholds))

    def test_route_results_are_isolated_from_the_cache(self, trained_ddnn, tiny_test):
        """Mutating a returned result must not corrupt later oracle answers."""
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        expected_accuracies = oracle.exit_accuracies()
        first = oracle.route(0.8)
        expected = first.exit_predictions["local"].copy()
        first.exit_predictions["local"][:] = -1
        first.targets[:] = -1
        np.testing.assert_array_equal(
            oracle.route(0.8).exit_predictions["local"], expected
        )
        assert oracle.exit_accuracies() == expected_accuracies

    def test_batch_size_chunks_match_engine_batching(self, trained_ddnn, tiny_test):
        """Capture must chunk like the engine so logits are byte-identical."""
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, batch_size=5, compile=False)
        engine = StagedInferenceEngine(trained_ddnn, 0.8, batch_size=5)
        assert_routing_identical(engine.run(tiny_test), oracle.route(0.8))

    def test_route_rejects_bad_thresholds(self, trained_ddnn, tiny_test):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        for bad in (float("nan"), -0.1, True, 1.5, 80):
            with pytest.raises(ValueError):
                oracle.route(bad)
        with pytest.raises(ValueError):
            oracle.sweep([0.5, 1.5])
        # A final-exit threshold above 1.0 is forced to 1.0, like the engine.
        oracle.route([0.5, 5.0])

    def test_helpers_reject_out_of_range_like_engine(self, trained_ddnn, tiny_test):
        """The oracle rewiring must not widen the engine's validation."""
        with pytest.raises(ValueError):
            search_threshold(trained_ddnn, tiny_test, grid=(0.5, 80.0))


class TestSweepAndReports:
    def test_sweep_equals_per_threshold_engine_loop(self, trained_ddnn, tiny_test):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        table = oracle.sweep(CALIBRATION_GRID)
        assert len(table) == len(CALIBRATION_GRID)
        for point in table.points():
            engine = StagedInferenceEngine(trained_ddnn, point.threshold)
            run = engine.run(tiny_test)
            assert point.local_exit_fraction == run.local_exit_fraction
            assert point.overall_accuracy == run.overall_accuracy(tiny_test.labels)
            assert point.communication_bytes == engine.communication_bytes(run)
            assert oracle.communication_bytes(run) == engine.communication_bytes(run)

    def test_exit_accuracies_match_legacy_loop(self, trained_ddnn, tiny_test):
        """The logit-argmax convention of the historical eager loop holds."""
        from repro.nn.tensor import no_grad

        # The pre-oracle evaluate_exit_accuracies, verbatim.
        trained_ddnn.eval()
        correct = {name: 0 for name in trained_ddnn.exit_names}
        total = 0
        with no_grad():
            for start in range(0, len(tiny_test), 64):
                views = tiny_test.images[start : start + 64]
                targets = tiny_test.labels[start : start + 64]
                output = trained_ddnn(views)
                total += len(targets)
                for name, logits in zip(output.exit_names, output.exit_logits):
                    correct[name] += int(np.sum(logits.data.argmax(axis=1) == targets))
        legacy = {name: correct[name] / total for name in trained_ddnn.exit_names}

        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        assert oracle.exit_accuracies() == legacy
        assert evaluate_exit_accuracies(trained_ddnn, tiny_test) == legacy

    def test_trainer_evaluate_exits_delegates(self, trained_ddnn, tiny_test, tiny_config):
        trainer = DDNNTrainer(trained_ddnn)
        assert trainer.evaluate_exits(tiny_test) == evaluate_exit_accuracies(
            trained_ddnn, tiny_test
        )

    def test_compiled_capture_same_routing_as_eager(self, trained_ddnn, tiny_test):
        """Compiled logits are allclose, routing decisions identical."""
        eager = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        fast = ExitOracle.capture(trained_ddnn, tiny_test, compile=True)
        for threshold in TABLE2_GRID:
            np.testing.assert_array_equal(
                eager.route(threshold).exit_indices, fast.route(threshold).exit_indices
            )
            np.testing.assert_array_equal(
                eager.route(threshold).predictions, fast.route(threshold).predictions
            )
        np.testing.assert_allclose(eager.logits, fast.logits, rtol=1e-5, atol=1e-6)


class TestQuantileCalibration:
    def test_cdf_matches_routed_exit_fractions(self, trained_ddnn, tiny_test):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        fractions = oracle.exit_rate_cdf(CALIBRATION_GRID)
        for threshold, fraction in zip(CALIBRATION_GRID, fractions):
            assert fraction == oracle.route(float(threshold)).local_exit_fraction

    def test_grid_selection_matches_legacy_grid_search(self, trained_ddnn, tiny_test):
        """Oracle-backed search reproduces the engine-per-point grid search."""

        def legacy_threshold_for_exit_rate(model, dataset, target, grid):
            candidates = []
            for threshold in grid:
                engine = StagedInferenceEngine(model, float(threshold))
                run = engine.run(dataset)
                candidates.append(
                    (
                        float(threshold),
                        run.overall_accuracy(dataset.labels),
                        run.local_exit_fraction,
                    )
                )
            best = min(candidates, key=lambda c: (abs(c[2] - target), -c[1]))
            return best[0]

        for target in (0.25, 0.5, 0.75):
            fast = threshold_for_exit_rate(trained_ddnn, tiny_test, target)
            slow = legacy_threshold_for_exit_rate(
                trained_ddnn, tiny_test, target, CALIBRATION_GRID
            )
            assert fast.best_threshold == slow
            assert len(fast.candidates) == len(CALIBRATION_GRID)

    def test_search_threshold_matches_legacy_sweep(self, trained_ddnn, tiny_test):
        result = search_threshold(trained_ddnn, tiny_test, grid=TABLE2_GRID)
        best_engine = None
        for threshold in TABLE2_GRID:
            run = StagedInferenceEngine(trained_ddnn, float(threshold)).run(tiny_test)
            key = (run.overall_accuracy(tiny_test.labels), run.local_exit_fraction)
            if best_engine is None or key > best_engine[0]:
                best_engine = (key, float(threshold))
        assert result.best_threshold == best_engine[1]

    def test_exact_quantile_threshold_hits_closest_achievable_rate(
        self, trained_ddnn, tiny_test
    ):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        # Rates achievable by a *valid* threshold (entropies clip to 1.0).
        valid_thresholds = np.minimum(np.sort(oracle.entropies[0]), 1.0)
        achievable = np.unique(
            np.concatenate(([0.0], oracle.exit_rate_cdf(valid_thresholds)))
        )
        for target in (0.0, 0.3, 0.5, 0.9, 1.0):
            threshold = oracle.quantile_threshold(target)
            assert 0.0 <= threshold <= 1.0
            achieved = float(oracle.exit_rate_cdf(threshold)[0])
            # No achievable exit rate is closer to the target.
            assert abs(achieved - target) == np.min(np.abs(achievable - target))
            # And the routed cascade agrees with the CDF.
            assert oracle.route(threshold).local_exit_fraction == achieved

    def test_quantile_threshold_always_routable_on_uniform_logits(self):
        """Entropies overshoot 1.0 by ulps on uniform softmax; the returned
        threshold must still be valid for route()/sweep()."""
        oracle = ExitOracle(
            np.zeros((2, 6, 3)), ["local", "cloud"], targets=np.zeros(6, dtype=np.int64)
        )
        for target in (0.5, 1.0):
            threshold = oracle.quantile_threshold(target)
            assert 0.0 <= threshold <= 1.0
            oracle.route(threshold)
            oracle.sweep([threshold])

    def test_exact_mode_returns_single_candidate(self, trained_ddnn, tiny_test):
        result = threshold_for_exit_rate(trained_ddnn, tiny_test, 0.5, exact=True)
        assert len(result.candidates) == 1
        assert result.best.threshold == result.best_threshold
        assert 0.0 <= result.best.local_exit_fraction <= 1.0

    def test_target_fraction_validated(self, trained_ddnn, tiny_test):
        with pytest.raises(ValueError):
            threshold_for_exit_rate(trained_ddnn, tiny_test, 1.5)
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        with pytest.raises(ValueError):
            oracle.quantile_threshold(-0.1)


class TestPlanCache:
    def test_cascades_share_one_plan(self, trained_ddnn):
        invalidate_plan()
        first = ExitCascade.for_model(trained_ddnn, 0.8, compile=True)
        second = ExitCascade.for_model(trained_ddnn, 0.5, compile=True)
        plan_a = first.compiled_for(trained_ddnn)
        plan_b = second.compiled_for(trained_ddnn)
        assert plan_a is plan_b
        assert plan_a is compiled_plan_for(trained_ddnn)

    def test_invalidate_one_model(self, trained_ddnn):
        invalidate_plan()
        plan = compiled_plan_for(trained_ddnn)
        invalidate_plan(trained_ddnn)
        assert compiled_plan_for(trained_ddnn) is not plan

    def test_cascade_invalidate_leaves_other_models_cached(self, trained_ddnn, tiny_config):
        """A cascade's no-arg invalidate only evicts models it served."""
        invalidate_plan()
        other = build_ddnn(tiny_config)
        other_plan = compiled_plan_for(other)
        cascade = ExitCascade.for_model(trained_ddnn, 0.8, compile=True)
        own_plan = cascade.compiled_for(trained_ddnn)
        cascade.invalidate_compiled()
        assert compiled_plan_for(other) is other_plan
        assert compiled_plan_for(trained_ddnn) is not own_plan

    def test_cache_evicts_on_model_gc(self, tiny_config):
        invalidate_plan()
        model = build_ddnn(tiny_config)
        compiled_plan_for(model)
        assert cached_plan_count() == 1
        del model
        gc.collect()
        assert cached_plan_count() == 0

    def test_engine_and_oracle_share_the_plan(self, trained_ddnn, tiny_test):
        invalidate_plan()
        ExitOracle.capture(trained_ddnn, tiny_test, compile=True)
        assert cached_plan_count() == 1
        StagedInferenceEngine(trained_ddnn, 0.8, compile=True).run(tiny_test)
        assert cached_plan_count() == 1

    def test_training_evicts_stale_plan(self, tiny_config, tiny_train):
        """fit() mutates weights in place — the cached plan must not survive."""
        invalidate_plan()
        model = build_ddnn(tiny_config)
        trainer = DDNNTrainer(model, TrainingConfig(epochs=1, batch_size=32, seed=0))
        trainer.fit(tiny_train)
        stale = compiled_plan_for(model)
        trainer.fit(tiny_train)
        assert compiled_plan_for(model) is not stale


class TestOracleConstruction:
    def test_synthetic_logits(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 10, 3))
        targets = rng.integers(0, 3, size=10)
        oracle = ExitOracle(logits, ["local", "cloud"], targets=targets)
        result = oracle.route(0.5)
        assert result.predictions.shape == (10,)
        assert set(np.unique(result.exit_indices)) <= {0, 1}
        table = oracle.sweep([0.0, 1.0])
        assert table.local_exit_fraction[0] <= table.local_exit_fraction[1]
        assert table.communication_bytes is None

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ExitOracle(np.zeros((3, 4)), ["local", "cloud"])
        with pytest.raises(ValueError):
            ExitOracle(np.zeros((1, 4, 3)), ["local", "cloud"])

    def test_missing_targets_raise(self):
        oracle = ExitOracle(np.zeros((2, 4, 3)), ["local", "cloud"])
        with pytest.raises(ValueError):
            oracle.exit_accuracies()
        with pytest.raises(ValueError):
            oracle.sweep([0.5])
        with pytest.raises(ValueError):
            oracle.communication_bytes(oracle.route(0.5))
