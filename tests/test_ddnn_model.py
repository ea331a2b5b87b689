"""Tests for DDNN configuration and model construction / forward pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DDNNConfig, DDNNTopology, TrainingConfig, build_ddnn
from repro.core.ddnn import DDNN, DeviceBranch, _partition_devices
from repro.nn import Tensor


class TestDDNNTopology:
    def test_from_name_flags(self):
        devices_cloud = DDNNTopology.from_name("devices_cloud")
        assert devices_cloud.has_local_exit and not devices_cloud.has_edge
        cloud_only = DDNNTopology.from_name("cloud_only")
        assert not cloud_only.has_local_exit
        edge = DDNNTopology.from_name("devices_edge_cloud")
        assert edge.has_edge and edge.num_edges == 1
        multi_edge = DDNNTopology.from_name("devices_edges_cloud", num_edges=3)
        assert multi_edge.num_edges == 3

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            DDNNTopology.from_name("device_mesh")


class TestDDNNConfig:
    def test_defaults_match_paper_architecture(self):
        config = DDNNConfig()
        assert config.num_devices == 6
        assert config.num_classes == 3
        assert config.input_size == 32
        assert config.scheme == "MP-CC"
        assert config.device_output_size == 16
        assert config.device_feature_map_elements == 256

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            DDNNConfig(num_devices=0)
        with pytest.raises(ValueError):
            DDNNConfig(num_classes=1)
        with pytest.raises(ValueError):
            DDNNConfig(device_filters=0)
        with pytest.raises(ValueError):
            DDNNConfig(local_aggregation="XX")

    def test_device_output_size_with_two_blocks(self):
        config = DDNNConfig(device_conv_blocks=2)
        assert config.device_output_size == 8

    def test_training_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)


class TestDeviceBranch:
    def test_outputs_feature_map_and_scores(self):
        branch = DeviceBranch(3, 4, 32, 3, rng=np.random.default_rng(0))
        features, scores = branch(Tensor(np.random.default_rng(1).standard_normal((2, 3, 32, 32))))
        assert features.shape == (2, 4, 16, 16)
        assert scores.shape == (2, 3)

    def test_memory_under_2kb_for_paper_settings(self):
        for filters in (1, 2, 4, 8):
            branch = DeviceBranch(3, filters, 32, 3)
            assert branch.memory_bytes() < 2048

    def test_multiple_conv_blocks(self):
        branch = DeviceBranch(3, 4, 32, 3, conv_blocks=2)
        features, _ = branch(Tensor(np.zeros((1, 3, 32, 32))))
        assert features.shape == (1, 4, 8, 8)


class TestBuildDDNN:
    def test_default_build_has_local_and_cloud_exits(self, tiny_config):
        model = build_ddnn(tiny_config)
        assert model.exit_names == ["local", "cloud"]
        assert model.num_exits == 2
        assert len(model.device_branches) == tiny_config.num_devices

    def test_overrides_apply(self, tiny_config):
        model = build_ddnn(tiny_config, local_aggregation="AP", num_devices=3)
        assert model.config.local_aggregation == "AP"
        assert len(model.device_branches) == 3

    def test_forward_output_shapes(self, tiny_config):
        model = build_ddnn(tiny_config)
        views = np.random.default_rng(0).random((5, tiny_config.num_devices, 3, 32, 32))
        output = model(views)
        assert [logits.shape for logits in output.exit_logits] == [(5, 3), (5, 3)]
        assert len(output.device_scores) == tiny_config.num_devices
        assert output.device_features[0].shape == (5, tiny_config.device_filters, 16, 16)
        assert output.final_logits is output.exit_logits[-1]

    def test_forward_accepts_list_of_views(self, tiny_config):
        model = build_ddnn(tiny_config)
        views = [np.zeros((2, 3, 32, 32)) for _ in range(tiny_config.num_devices)]
        output = model(views)
        assert output.exit_logits[0].shape == (2, 3)

    def test_forward_rejects_wrong_device_count(self, tiny_config):
        model = build_ddnn(tiny_config)
        with pytest.raises(ValueError):
            model(np.zeros((2, tiny_config.num_devices + 1, 3, 32, 32)))
        with pytest.raises(ValueError):
            model(np.zeros((2, 3, 32, 32)))

    def test_cloud_only_topology_single_exit(self):
        config = DDNNConfig(
            num_devices=2,
            device_filters=2,
            cloud_filters=4,
            cloud_hidden_units=8,
            topology=DDNNTopology.from_name("cloud_only"),
        )
        model = build_ddnn(config)
        assert model.exit_names == ["cloud"]
        output = model(np.zeros((3, 2, 3, 32, 32)))
        assert len(output.exit_logits) == 1

    def test_edge_topology_three_exits(self):
        config = DDNNConfig(
            num_devices=4,
            device_filters=2,
            cloud_filters=4,
            edge_filters=3,
            cloud_hidden_units=8,
            topology=DDNNTopology.from_name("devices_edge_cloud"),
        )
        model = build_ddnn(config)
        assert model.exit_names == ["local", "edge", "cloud"]
        output = model(np.zeros((2, 4, 3, 32, 32)))
        assert [l.shape for l in output.exit_logits] == [(2, 3)] * 3
        assert len(output.edge_features) == 1
        assert output.edge_features[0].shape == (2, 3, 8, 8)

    def test_multi_edge_topology_partitions_devices(self):
        config = DDNNConfig(
            num_devices=4,
            device_filters=2,
            cloud_filters=4,
            edge_filters=3,
            cloud_hidden_units=8,
            topology=DDNNTopology.from_name("devices_edges_cloud", num_edges=2),
        )
        model = build_ddnn(config)
        assert len(model.edge_models) == 2
        assert model.edge_device_groups == [[0, 1], [2, 3]]
        output = model(np.zeros((2, 4, 3, 32, 32)))
        assert len(output.edge_features) == 2

    @pytest.mark.parametrize("local,cloud", [("MP", "MP"), ("AP", "CC"), ("CC", "AP"), ("CC", "CC")])
    def test_all_aggregation_scheme_pairs_build_and_run(self, local, cloud):
        config = DDNNConfig(
            num_devices=3,
            device_filters=2,
            cloud_filters=4,
            cloud_hidden_units=8,
            local_aggregation=local,
            cloud_aggregation=cloud,
        )
        model = build_ddnn(config)
        output = model(np.zeros((2, 3, 3, 32, 32)))
        assert output.exit_logits[0].shape == (2, 3)
        assert output.exit_logits[1].shape == (2, 3)

    def test_summary_and_memory(self, tiny_config):
        model = build_ddnn(tiny_config)
        summary = model.summary()
        assert summary["num_devices"] == tiny_config.num_devices
        assert summary["exits"] == ["local", "cloud"]
        assert summary["parameters"] == model.num_parameters()
        assert all(m < 2048 for m in model.device_memory_bytes())

    def test_mixed_precision_cloud_builds(self, tiny_config):
        model = build_ddnn(tiny_config, binary_cloud=False)
        output = model(np.zeros((2, tiny_config.num_devices, 3, 32, 32)))
        assert output.exit_logits[1].shape == (2, 3)

    def test_partition_devices_helper(self):
        assert _partition_devices(6, 2) == [[0, 1, 2], [3, 4, 5]]
        assert _partition_devices(5, 2) == [[0, 1, 2], [3, 4]]
        with pytest.raises(ValueError):
            _partition_devices(2, 3)
        with pytest.raises(ValueError):
            _partition_devices(2, 0)

    def test_deterministic_initialisation_by_seed(self):
        config = DDNNConfig(num_devices=2, device_filters=2, cloud_filters=4, cloud_hidden_units=8, seed=9)
        a = build_ddnn(config)
        b = build_ddnn(config)
        for (name_a, param_a), (_, param_b) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(param_a.data, param_b.data)
