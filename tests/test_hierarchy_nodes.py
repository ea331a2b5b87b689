"""Additional hierarchy tests: node accounting, deployment wiring, link specs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DDNNConfig, DDNNTopology, build_ddnn
from repro.hierarchy import (
    CLOUD_NAME,
    DEFAULT_EDGE_LINK,
    DEFAULT_LOCAL_LINK,
    DEFAULT_UPLINK,
    ComputeNode,
    EndDeviceNode,
    LinkSpec,
    partition_ddnn,
)


@pytest.fixture(scope="module")
def small_model():
    return build_ddnn(
        DDNNConfig(num_devices=3, device_filters=2, cloud_filters=4, cloud_hidden_units=8, seed=0)
    )


class TestComputeNode:
    def test_invalid_throughput_rejected(self):
        with pytest.raises(ValueError):
            ComputeNode("x", ops_per_second=0)

    def test_fail_and_restore(self):
        node = ComputeNode("x")
        assert not node.failed
        node.fail()
        assert node.failed
        assert "failed" in repr(node)
        node.restore()
        assert not node.failed

    def test_accounting(self):
        node = ComputeNode("x", ops_per_second=1000.0)
        seconds = node._account(500.0, samples=2)
        assert seconds == pytest.approx(0.5)
        assert node.stats.samples_processed == 2
        assert node.stats.compute_seconds == pytest.approx(0.5)
        node.reset_stats()
        assert node.stats.samples_processed == 0


class TestEndDeviceNode:
    def test_payload_sizes(self, small_model):
        node = EndDeviceNode("device-0", small_model.device_branches[0])
        assert node.summary_bytes() == 12.0  # 4 bytes * 3 classes
        assert node.feature_bytes() == 2 * 16 * 16 / 8
        assert node.raw_input_bytes() == 3072.0


class TestDeviceTierSection:
    """A device's work is the device section's: one call of the compiled
    bundle for the whole tier, charged to each device node."""

    @staticmethod
    def _run(model, views, failed=()):
        from repro.compile import compiled_plan_for
        from repro.hierarchy import build_tier_sections

        model.eval()
        deployment = partition_ddnn(model)
        for index in failed:
            deployment.devices[index].fail()
        plans = compiled_plan_for(model)
        return deployment, plans, build_tier_sections(deployment)[0].process(views, plans)

    def test_process_returns_features_scores_and_time(self, small_model):
        views = np.random.default_rng(0).random((3, 3, 3, 32, 32))
        deployment, _, result = self._run(small_model, views)
        features, delivered = result.carry
        assert features.shape == (3, 3, 2, 16, 16) and delivered is None
        assert result.logits.shape == (3, 3)
        assert result.service_s > 0
        for device in deployment.devices:
            assert device.stats.samples_processed == 3 and device.stats.compute_seconds > 0

    def test_failed_device_emits_zeros_and_no_compute(self, small_model):
        views = np.random.default_rng(2).random((2, 3, 3, 32, 32))
        deployment, plans, result = self._run(small_model, views, failed=[0])
        features, _ = result.carry
        np.testing.assert_array_equal(features[:, 0], 0.0)
        assert np.abs(features[:, 1:]).sum() > 0
        assert deployment.devices[0].stats.samples_processed == 0
        assert deployment.devices[0].stats.compute_seconds == 0.0
        # The local exit fuses zero scores in the failed device's place.
        _, scores = plans.device_group(views.swapaxes(0, 1))
        scores = scores.copy()
        scores[0] = 0.0
        np.testing.assert_array_equal(result.logits, plans.local_aggregator(scores.swapaxes(0, 1)))

    def test_aggregate_matches_aggregator(self, small_model):
        views = np.random.default_rng(3).random((4, 3, 3, 32, 32))
        deployment, _, result = self._run(small_model, views)
        eager = small_model.first_exit_logits(views).data
        np.testing.assert_allclose(result.logits, eager, rtol=1e-12, atol=1e-12)
        assert deployment.local_aggregator.stats.samples_processed == 4


class TestLinkSpecsAndPartition:
    def test_default_link_specs_ordering(self):
        # Local gateway links are faster than the wide-area uplink.
        assert DEFAULT_LOCAL_LINK.bandwidth_bytes_per_s > DEFAULT_UPLINK.bandwidth_bytes_per_s
        assert DEFAULT_LOCAL_LINK.latency_s < DEFAULT_UPLINK.latency_s
        assert DEFAULT_EDGE_LINK.bandwidth_bytes_per_s >= DEFAULT_UPLINK.bandwidth_bytes_per_s

    def test_custom_link_spec_applied(self, small_model):
        deployment = partition_ddnn(
            small_model, uplink=LinkSpec(bandwidth_bytes_per_s=123.0, latency_s=0.5)
        )
        link = deployment.fabric.link("device-0", CLOUD_NAME)
        assert link.bandwidth_bytes_per_s == 123.0
        assert link.latency_s == 0.5

    def test_cloud_only_topology_has_no_gateway(self):
        model = build_ddnn(
            DDNNConfig(
                num_devices=2,
                device_filters=2,
                cloud_filters=4,
                cloud_hidden_units=8,
                topology=DDNNTopology.from_name("cloud_only"),
            )
        )
        deployment = partition_ddnn(model)
        assert deployment.local_aggregator is None
        assert deployment.fabric.has_link("device-0", CLOUD_NAME)

    def test_edge_topology_wiring(self):
        model = build_ddnn(
            DDNNConfig(
                num_devices=4,
                device_filters=2,
                cloud_filters=4,
                edge_filters=3,
                cloud_hidden_units=8,
                topology=DDNNTopology.from_name("devices_edges_cloud", num_edges=2),
            )
        )
        deployment = partition_ddnn(model)
        assert len(deployment.edges) == 2
        # Devices connect to their own edge, edges connect to the cloud.
        assert deployment.fabric.has_link("device-0", "edge-0")
        assert deployment.fabric.has_link("device-3", "edge-1")
        assert not deployment.fabric.has_link("device-0", "edge-1")
        assert deployment.fabric.has_link("edge-0", CLOUD_NAME)
        assert not deployment.fabric.has_link("device-0", CLOUD_NAME)
        assert deployment.edges[0].feature_bytes() == 3 * 8 * 8 / 8

    def test_deployment_reset_clears_stats_and_failures(self, small_model):
        deployment = partition_ddnn(small_model)
        deployment.devices[0].fail()
        deployment.devices[1].stats.bytes_sent = 100.0
        deployment.reset()
        assert not deployment.devices[0].failed
        assert deployment.devices[1].stats.bytes_sent == 0.0
        assert deployment.fabric.total_bytes() == 0.0


class TestOperationsPerSample:
    def test_sections_and_nodes_carry_the_constant(self, small_model):
        deployment = partition_ddnn(small_model)
        for device in deployment.devices:
            assert device.operations_per_sample == device.branch.num_parameters()
        assert deployment.cloud.operations_per_sample == small_model.cloud.num_parameters()

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_no_parameter_walk_once_the_model_is_built(self, small_model, monkeypatch, precision):
        """Partitioning and running a deployment read the per-sample cost off
        the sections; nothing walks a parameter tree per node or per batch."""
        from repro.hierarchy import HierarchyRuntime
        from repro.nn.layers import Module

        def walked(module):
            raise AssertionError(f"num_parameters() walked {type(module).__name__}")

        small_model.eval()
        monkeypatch.setattr(Module, "num_parameters", walked)
        from repro.datasets.mvmc import MVMCDataset

        views = np.random.default_rng(1).random((5, 3, 3, 32, 32))
        dataset = MVMCDataset(views, np.zeros(5), np.zeros((5, 3)))
        result = HierarchyRuntime(partition_ddnn(small_model), 0.8, precision=precision).run(dataset)
        assert len(result.predictions) == 5
