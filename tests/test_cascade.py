"""Tests for the shared threshold rules and exit criteria of the cascade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExitOracle, build_ddnn, normalize_thresholds
from repro.core.cascade import build_exit_criteria
from repro.hierarchy import HierarchyRuntime, partition_ddnn
from repro.serving import DDNNServer


class TestNormalizeThresholds:
    def test_single_float_broadcasts_to_all_exits(self):
        assert normalize_thresholds(0.4, 3) == [0.4, 0.4, 1.0]

    def test_single_float_final_exit_still_forced_to_one(self):
        # Even a broadcast value never overrides the always-classify rule.
        assert normalize_thresholds(0.2, 1) == [1.0]
        assert normalize_thresholds(0.2, 2) == [0.2, 1.0]

    def test_n_minus_one_thresholds_get_final_appended(self):
        assert normalize_thresholds([0.3, 0.6], 3) == [0.3, 0.6, 1.0]

    def test_n_thresholds_final_value_is_overridden(self):
        # A caller-supplied final threshold is ignored: the last exit must
        # classify every sample that reaches it.
        assert normalize_thresholds([0.3, 0.6, 0.1], 3) == [0.3, 0.6, 1.0]

    @pytest.mark.parametrize("bad", [[], [0.1], [0.1, 0.2, 0.3, 0.4]])
    def test_wrong_length_raises(self, bad):
        with pytest.raises(ValueError):
            normalize_thresholds(bad, 3)

    def test_zero_exits_rejected(self):
        with pytest.raises(ValueError):
            normalize_thresholds(0.5, 0)

    def test_build_exit_criteria_names_and_values(self):
        criteria = build_exit_criteria([0.25], ["local", "cloud"])
        assert [c.name for c in criteria] == ["local", "cloud"]
        assert [c.threshold for c in criteria] == [0.25, 1.0]

    def test_out_of_range_threshold_rejected(self):
        with pytest.raises(ValueError):
            build_exit_criteria([1.5], ["local", "cloud"])

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True)])
    def test_bool_thresholds_rejected(self, bad):
        """Regression: isinstance(x, (int, float)) accepts bool, silently
        coercing True -> broadcast 1.0 (exit everything) and False -> 0.0."""
        with pytest.raises(ValueError, match="bool"):
            normalize_thresholds(bad, 3)
        with pytest.raises(ValueError, match="bool"):
            normalize_thresholds([bad, 0.5], 3)

    @pytest.mark.parametrize("bad", [float("nan"), np.nan])
    def test_nan_thresholds_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN"):
            normalize_thresholds(bad, 2)
        with pytest.raises(ValueError, match="NaN"):
            normalize_thresholds([0.3, bad], 3)

    @pytest.mark.parametrize("bad", [-0.1, -5.0])
    def test_negative_thresholds_rejected(self, bad):
        with pytest.raises(ValueError, match=">= 0"):
            normalize_thresholds(bad, 2)
        with pytest.raises(ValueError, match=">= 0"):
            normalize_thresholds([bad], 3)

    def test_numpy_scalar_thresholds_still_accepted(self):
        assert normalize_thresholds(np.float32(0.25), 2) == [pytest.approx(0.25), 1.0]
        assert normalize_thresholds(np.float64(0.25), 2) == [0.25, 1.0]
        assert normalize_thresholds(np.int64(0), 2) == [0.0, 1.0]


class TestCascadeSharedByEveryConsumer:
    def test_runtime_and_server_share_one_cascade_implementation(self, trained_ddnn):
        runtime = HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8)
        server = DDNNServer(trained_ddnn, 0.8)
        expected = build_exit_criteria(0.8, trained_ddnn.exit_names)
        for criteria in (runtime.criteria, server.criteria):
            assert [(c.threshold, c.name) for c in criteria] == [
                (c.threshold, c.name) for c in expected
            ]

    @pytest.mark.parametrize("thresholds", [0.8, [0.8], [0.8, 0.3]])
    def test_threshold_normalization_identical_across_consumers(self, trained_ddnn, thresholds):
        runtime = HierarchyRuntime(partition_ddnn(trained_ddnn), thresholds)
        server = DDNNServer(trained_ddnn, thresholds)
        assert [c.threshold for c in server.criteria] == [
            c.threshold for c in runtime.criteria
        ]
        assert runtime.criteria[-1].threshold == 1.0

    @pytest.mark.parametrize("bad", [[0.1, 0.2, 0.3, 0.4], []])
    def test_wrong_length_raises_in_oracle_and_runtime(self, trained_ddnn, tiny_test, bad):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        with pytest.raises(ValueError):
            oracle.route(bad)
        with pytest.raises(ValueError):
            HierarchyRuntime(partition_ddnn(trained_ddnn), bad)

    @pytest.mark.parametrize("bad", [True, float("nan"), -0.2, [True, 0.5], [0.3, float("nan")]])
    def test_invalid_threshold_values_raise_in_all_three_consumers(self, trained_ddnn, tiny_test, bad):
        """bool / NaN / negative thresholds must fail loudly in every cascade
        consumer: the oracle, the hierarchy runtime and the server."""
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        with pytest.raises(ValueError):
            oracle.route(bad)
        with pytest.raises(ValueError):
            HierarchyRuntime(partition_ddnn(trained_ddnn), bad)
        with pytest.raises(ValueError):
            DDNNServer(trained_ddnn, bad)

    def test_criteria_match_the_models_exits(self, trained_ddnn):
        criteria = build_exit_criteria(0.7, trained_ddnn.exit_names)
        assert [c.name for c in criteria] == trained_ddnn.exit_names
        assert len(criteria) == trained_ddnn.num_exits


class TestCascadeWithUntrainedTopologies:
    def test_edge_topology_threshold_counts(self, tiny_train):
        from repro.core import DDNNConfig, DDNNTopology

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
        # Three exits: 2 or 3 thresholds are accepted, others are not.
        assert build_exit_criteria([0.7, 0.8], model.exit_names)[-1].threshold == 1.0
        assert build_exit_criteria([0.7, 0.8, 0.2], model.exit_names)[-1].threshold == 1.0
        with pytest.raises(ValueError):
            build_exit_criteria([0.7], model.exit_names)
