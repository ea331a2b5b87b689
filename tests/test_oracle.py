"""Equivalence suite for the untimed evaluation plane (``ExitOracle``).

The oracle holds the one untimed implementation of the paper's exit rule
(Sec. III-D).  Two references check it: a per-sample loop local to this file
(softmax, normalized entropy, first exit at or below its threshold, final
exit forced), run as a Hypothesis property over synthetic logits; and the
timed implementation, the serving fabric's per-tier criterion, replayed
offline by :class:`~repro.hierarchy.runtime.HierarchyRuntime` on a trained
model.  Against the fabric, routing equality is *byte*-equality with the
compiled and the eager oracle alike (predictions, exit indices and
entropies) across broadcast and per-exit thresholds and degraded
(failed-device) datasets; ``test_any_batch_shape.py`` holds the same at
every batch shape and on an edge topology.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compile.cache import compiled_plan_for
from repro.core import (
    CommunicationModel,
    DDNNConfig,
    DDNNTopology,
    DDNNTrainer,
    ExitOracle,
    TrainingConfig,
    build_ddnn,
    normalize_thresholds,
    normalized_entropy,
    search_threshold,
    softmax_probabilities,
    threshold_for_exit_rate,
)
from repro.hierarchy import HierarchyRuntime, partition_ddnn

#: The paper's Table II grid plus the 21-point calibration grid used by the
#: Figure 9 exit-rate search.
TABLE2_GRID = (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
CALIBRATION_GRID = tuple(np.round(np.arange(0.0, 1.0001, 0.05), 4))


def fabric_route(model, dataset, thresholds, batch_size=64):
    """The timed rule, replayed offline over the partitioned model."""
    runtime = HierarchyRuntime(partition_ddnn(model), thresholds, batch_size=batch_size)
    return runtime.run(dataset)


def assert_routing_identical(fabric_result, oracle_result):
    np.testing.assert_array_equal(fabric_result.predictions, oracle_result.predictions)
    np.testing.assert_array_equal(fabric_result.exit_indices, oracle_result.exit_indices)
    np.testing.assert_array_equal(fabric_result.entropies, oracle_result.entropies)
    assert fabric_result.exit_names == oracle_result.exit_names
    assert fabric_result.exit_names_per_sample == oracle_result.exit_names_per_sample
    assert fabric_result.local_exit_fraction == oracle_result.local_exit_fraction


def assert_routes_like_both_oracles(model, dataset, thresholds):
    """The compiled and the eager oracle's routing, byte for byte."""
    fabric = fabric_route(model, dataset, thresholds)
    for compile in (True, False):
        oracle = ExitOracle.capture(model, dataset, compile=compile)
        assert_routing_identical(fabric, oracle.route(thresholds))


def reference_route(logits, thresholds):
    """The exit rule one sample at a time: ``(exit index, prediction)`` per sample."""
    num_exits, num_samples, _ = logits.shape
    values = normalize_thresholds(thresholds, num_exits)
    routed = []
    for sample in range(num_samples):
        for index in range(num_exits):
            probabilities = softmax_probabilities(logits[index, sample])
            entropy = normalized_entropy(probabilities)
            if entropy <= values[index] or index == num_exits - 1:
                routed.append((index, int(np.argmax(probabilities))))
                break
    return routed


_logits = st.tuples(
    # Five classes: a uniform row's entropy is 1.0 plus one ulp.
    st.integers(1, 3), st.integers(1, 8), st.integers(2, 5)
).flatmap(
    lambda shape: arrays(
        np.float64,
        shape,
        elements=st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
    )
)


class TestRouteMatchesThePerSampleRule:
    @settings(max_examples=200, deadline=None)
    @given(logits=_logits, uniform=st.lists(st.booleans(), max_size=24), data=st.data())
    def test_route_equals_a_per_sample_loop(self, logits, uniform, data):
        """Random logits, uniform rows (entropy a few ulps above 1.0),
        thresholds exactly at an observed entropy, 1-3 exits, and broadcast
        or per-exit threshold lists."""
        num_exits, num_samples, _ = logits.shape
        rows = [(e, n) for e in range(num_exits) for n in range(num_samples)]
        for (exit_index, sample), flat in zip(rows, uniform):
            if flat:
                logits[exit_index, sample] = logits[exit_index, sample, 0]
        oracle = ExitOracle(logits, [f"exit{index}" for index in range(num_exits)])
        observed = [float(v) for v in oracle.entropies.ravel() if v <= 1.0]
        value = st.floats(0.0, 1.0) | (
            st.sampled_from(observed) if observed else st.just(1.0)
        )
        thresholds = data.draw(
            value
            | st.lists(value, min_size=num_exits - 1, max_size=num_exits)
        )
        routed = oracle.route(thresholds)
        expected = reference_route(logits, thresholds)
        assert routed.exit_indices.tolist() == [index for index, _ in expected]
        assert routed.predictions.tolist() == [prediction for _, prediction in expected]

    def test_uniform_rows_overshoot_one_and_do_not_exit_early(self):
        logits = np.zeros((2, 3, 5))
        oracle = ExitOracle(logits, ["local", "cloud"])
        assert (oracle.entropies[0] > 1.0).all()
        assert reference_route(logits, 1.0) == [(1, 0)] * 3
        assert oracle.route(1.0).exit_indices.tolist() == [1, 1, 1]


class TestRouteByteIdentity:
    @pytest.mark.parametrize("compile", [True, False], ids=["compiled", "eager"])
    def test_route_matches_fabric_across_both_grids(self, trained_ddnn, tiny_test, compile):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=compile)
        for threshold in sorted(set(TABLE2_GRID) | set(CALIBRATION_GRID)):
            fabric = fabric_route(trained_ddnn, tiny_test, float(threshold))
            assert_routing_identical(fabric, oracle.route(float(threshold)))

    @pytest.mark.parametrize("compile", [True, False], ids=["compiled", "eager"])
    def test_route_matches_fabric_on_failed_device_sets(self, trained_ddnn, tiny_test, compile):
        for failed in ([0], [1, 3]):
            degraded = tiny_test.with_failed_devices(failed)
            oracle = ExitOracle.capture(trained_ddnn, degraded, compile=compile)
            for threshold in TABLE2_GRID:
                fabric = fabric_route(trained_ddnn, degraded, float(threshold))
                assert_routing_identical(fabric, oracle.route(float(threshold)))

    def test_route_matches_fabric_per_exit_thresholds(self, trained_ddnn, tiny_test):
        for thresholds in ([0.3, 0.9], [0.9, 0.1], [0.0, 0.0]):
            assert_routes_like_both_oracles(trained_ddnn, tiny_test, thresholds)

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

    def test_route_rejects_bad_thresholds(self, trained_ddnn, tiny_test):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        for bad in (float("nan"), -0.1, True, 1.5, 80):
            with pytest.raises(ValueError):
                oracle.route(bad)
        with pytest.raises(ValueError):
            oracle.sweep([0.5, 1.5])
        # A final-exit threshold above 1.0 is forced to 1.0.
        oracle.route([0.5, 5.0])

    def test_helpers_reject_out_of_range_thresholds(self, trained_ddnn, tiny_test):
        with pytest.raises(ValueError):
            search_threshold(trained_ddnn, tiny_test, grid=(0.5, 80.0))


class TestSweepAndReports:
    def test_sweep_equals_per_threshold_route(self, trained_ddnn, tiny_test):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        communication = CommunicationModel(trained_ddnn.config)
        table = oracle.sweep(CALIBRATION_GRID)
        assert len(table) == len(CALIBRATION_GRID)
        for point in table.points():
            run = oracle.route(point.threshold)
            assert point.local_exit_fraction == run.local_exit_fraction
            assert point.overall_accuracy == run.accuracy(tiny_test.labels)
            assert point.communication_bytes == oracle.communication_bytes(run)
            assert point.communication_bytes == communication.per_device_bytes(
                run.local_exit_fraction
            )

    def test_exit_accuracies_match_legacy_loop(self, trained_ddnn, tiny_test):
        """The logit-argmax convention of the historical eager loop holds."""
        from repro.nn.tensor import no_grad

        # The eager per-exit accuracy loop the oracle replaced, verbatim.
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
        assert DDNNTrainer(trained_ddnn).evaluate_exits(tiny_test, batch_size=64) == legacy

    def test_trainer_evaluate_exits_delegates(self, trained_ddnn, tiny_test, tiny_config):
        trainer = DDNNTrainer(trained_ddnn)
        oracle = ExitOracle.capture(
            trained_ddnn, tiny_test, batch_size=trainer.config.batch_size, compile=False
        )
        assert trainer.evaluate_exits(tiny_test) == oracle.exit_accuracies()

    def test_compiled_capture_same_routing_as_eager(self, trained_ddnn, tiny_test):
        """Bit for bit, so every route of one is a route of the other."""
        eager = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        fast = ExitOracle.capture(trained_ddnn, tiny_test, compile=True)
        np.testing.assert_array_equal(fast.logits, eager.logits)


class TestQuantileCalibration:
    def test_cdf_matches_routed_exit_fractions(self, trained_ddnn, tiny_test):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        fractions = oracle.exit_rate_cdf(CALIBRATION_GRID)
        for threshold, fraction in zip(CALIBRATION_GRID, fractions):
            assert fraction == oracle.route(float(threshold)).local_exit_fraction

    def test_grid_selection_matches_a_fabric_grid_search(self, trained_ddnn, tiny_test):
        """Oracle-backed search picks what a fabric run per grid point picks."""
        candidates = []
        for threshold in CALIBRATION_GRID:
            run = fabric_route(trained_ddnn, tiny_test, float(threshold))
            candidates.append((float(threshold), run.accuracy(), run.local_exit_fraction))

        for target in (0.25, 0.5, 0.75):
            fast = threshold_for_exit_rate(trained_ddnn, tiny_test, target)
            slow = min(candidates, key=lambda c: (abs(c[2] - target), -c[1]))[0]
            assert fast.best_threshold == slow
            assert len(fast.candidates) == len(CALIBRATION_GRID)

    def test_search_threshold_matches_a_fabric_sweep(self, trained_ddnn, tiny_test):
        result = search_threshold(trained_ddnn, tiny_test, grid=TABLE2_GRID)
        best = None
        for threshold in TABLE2_GRID:
            run = fabric_route(trained_ddnn, tiny_test, float(threshold))
            key = (run.accuracy(), run.local_exit_fraction)
            if best is None or key > best[0]:
                best = (key, float(threshold))
        assert result.best_threshold == best[1]

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
    """Compiled plans follow the weights: the model keeps one plan per
    precision, compiled on first use and replaced after a weights change."""

    def test_every_lookup_shares_the_models_plan(self, trained_ddnn):
        plan = compiled_plan_for(trained_ddnn)
        assert compiled_plan_for(trained_ddnn) is plan
        assert plan.weights_version == trained_ddnn._weights_version

    def test_a_weights_change_replaces_only_that_models_plan(self, tiny_config):
        model, other = build_ddnn(tiny_config), build_ddnn(tiny_config)
        plan, other_plan = compiled_plan_for(model), compiled_plan_for(other)
        model._weights_changed()
        fresh = compiled_plan_for(model)
        assert fresh is not plan
        assert fresh.weights_version == plan.weights_version + 1
        assert compiled_plan_for(model) is fresh
        assert compiled_plan_for(other) is other_plan

    def test_a_dropped_models_plan_is_collected(self, tiny_config):
        model = build_ddnn(tiny_config)
        plan = weakref.ref(compiled_plan_for(model))
        del model
        gc.collect()
        assert plan() is None

    def test_the_replay_reuses_the_oracles_plan_and_compiles_nothing(
        self, trained_ddnn, tiny_test, monkeypatch
    ):
        """The replay runs on its deployment's own bundle, made from the
        oracle's plan without compiling again."""
        import repro.compile.ddnn as compiled

        ExitOracle.capture(trained_ddnn, tiny_test)
        plan = compiled_plan_for(trained_ddnn)
        monkeypatch.setattr(compiled, "compile_ddnn", None)  # any compile fails
        runtime = HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8)
        runtime.run(tiny_test)
        bundle = runtime.deployment._bundle()
        assert bundle is not plan
        assert bundle.cloud.head.ops == plan.cloud.head.ops
        assert compiled_plan_for(trained_ddnn) is plan

    def test_training_replaces_the_plan(self, tiny_config, tiny_train):
        """fit() mutates weights in place — the plan must not survive it."""
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


class TestLocalExitFraction:
    """One meaning everywhere: the fraction at the exit named ``local``."""

    def test_cloud_only_model_exits_nothing_locally(self, tiny_test):
        config = DDNNConfig(
            num_devices=4,
            device_filters=2,
            cloud_filters=4,
            cloud_hidden_units=8,
            topology=DDNNTopology.from_name("cloud_only"),
            seed=5,
        )
        model = build_ddnn(config)
        subset = tiny_test.subset(np.arange(24))
        oracle = ExitOracle.capture(model, subset, compile=False)
        assert oracle.exit_names == ["cloud"]
        routed = oracle.route(0.8)
        fabric = fabric_route(model, subset, 0.8)
        assert routed.local_exit_fraction == fabric.local_exit_fraction == 0.0
        assert oracle.sweep([0.8]).local_exit_fraction.tolist() == [0.0]
        assert oracle.exit_rate_cdf([0.8, 1.0]).tolist() == [0.0, 0.0]
        no_local_exit = CommunicationModel(config).per_device_bytes(0.0)
        assert oracle.communication_bytes(routed) == no_local_exit
        assert oracle.sweep([0.8]).communication_bytes.tolist() == [no_local_exit]

    def test_fraction_follows_the_name_not_the_position(self):
        logits = np.zeros((2, 4, 3))
        logits[1, :, 0] = 9.0  # confident second exit
        oracle = ExitOracle(logits, ["edge", "local"])
        assert oracle.route(0.5).local_exit_fraction == 1.0
        assert oracle.route(0.5).exit_fraction("cloud") == 0.0


class TestNonFiniteViews:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
    def test_capture_names_the_first_bad_sample(self, trained_ddnn, tiny_test, value, compile):
        views = tiny_test.images.copy()
        views[5] = value
        views[9, 1, 0, 2, 2] = value
        with pytest.raises(ValueError, match="sample 5 "):
            ExitOracle.capture(trained_ddnn, views, compile=compile)
