"""Tests for PartitionPlan, the partition shim, and plan-aware sections."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import compile_ddnn
from repro.core import DDNNConfig, DDNNTopology, build_ddnn
from repro.hierarchy import (
    AutoscalePolicy,
    HierarchyRuntime,
    LinkSpec,
    PartitionPlan,
    build_tier_sections,
    partition_ddnn,
)
from repro.hierarchy.network import NetworkFabric
from repro.serving.workers import (
    SimulatedWorkerPool,
    ThreadPoolWorkerPool,
)
from repro.serving.clock import EventLoop


def _link_table(deployment):
    return sorted(
        (link.source, link.destination, link.bandwidth_bytes_per_s, link.latency_s)
        for link in deployment.fabric.links()
    )


def _node_table(deployment):
    nodes = list(deployment.devices) + list(deployment.edges) + [deployment.cloud]
    return sorted((node.name, node.ops_per_second) for node in nodes)


class TestPartitionShim:
    def test_materialize_matches_partition_ddnn_wiring(self, trained_ddnn):
        via_shim = partition_ddnn(trained_ddnn)
        via_plan = PartitionPlan(trained_ddnn).materialize()
        assert _link_table(via_shim) == _link_table(via_plan)
        assert _node_table(via_shim) == _node_table(via_plan)
        assert via_shim.device_names == via_plan.device_names
        assert (via_shim.local_aggregator is None) == (via_plan.local_aggregator is None)

    def test_materialize_matches_partition_ddnn_inference(self, trained_ddnn, tiny_test):
        thresholds = 0.8
        results = []
        for deployment in (partition_ddnn(trained_ddnn), PartitionPlan(trained_ddnn).materialize()):
            runtime = HierarchyRuntime(deployment, thresholds)
            result = runtime.run(tiny_test)
            results.append(
                (
                    tuple(result.predictions),
                    tuple(result.exit_names_per_sample),
                    tuple(result.bytes_per_sample),
                )
            )
        assert results[0] == results[1]

    def test_custom_specs_flow_through_shim(self, trained_ddnn):
        uplink = LinkSpec(bandwidth_bytes_per_s=1234.0, latency_s=0.5)
        deployment = partition_ddnn(trained_ddnn, uplink=uplink, device_ops_per_second=99.0)
        links = [l for l in deployment.fabric.links() if l.destination == "cloud"]
        assert links and all(l.bandwidth_bytes_per_s == 1234.0 for l in links)
        assert all(device.ops_per_second == 99.0 for device in deployment.devices)


class TestPlanValidation:
    def test_edge_exit_requires_edge_tier(self, trained_ddnn):
        with pytest.raises(ValueError, match="no edge tier"):
            PartitionPlan(trained_ddnn, edge_exit=True)

    def test_replicas_and_worker_counts_positive(self, trained_ddnn):
        with pytest.raises(ValueError, match="replicas"):
            PartitionPlan(trained_ddnn, replicas=0)
        with pytest.raises(ValueError, match="worker counts"):
            PartitionPlan(trained_ddnn, workers_per_tier=0)

    def test_worker_counts_broadcast_and_length_check(self, trained_ddnn):
        assert PartitionPlan(trained_ddnn, workers_per_tier=3).worker_counts() == (3, 3)
        assert PartitionPlan(trained_ddnn, workers_per_tier=[1, 2]).worker_counts() == (1, 2)
        with pytest.raises(ValueError, match="entries"):
            PartitionPlan(trained_ddnn, workers_per_tier=[1, 2, 3])

    def test_with_changes_copies(self, trained_ddnn):
        plan = PartitionPlan(trained_ddnn)
        moved = plan.with_changes(local_exit=False, workers_per_tier=2)
        assert plan.resolved_local_exit() is True
        assert moved.resolved_local_exit() is False
        assert moved.worker_counts() == (2, 2)

    def test_autoscale_policy_validation(self):
        with pytest.raises(ValueError, match="low_watermark"):
            AutoscalePolicy(low_watermark=4, high_watermark=4)
        with pytest.raises(ValueError, match="max_workers"):
            AutoscalePolicy(min_workers=3, max_workers=2)
        with pytest.raises(ValueError, match="step"):
            AutoscalePolicy(step=0)

    def test_autoscaled_flag_and_broadcast(self, trained_ddnn):
        plan = PartitionPlan(trained_ddnn)
        assert not plan.autoscaled
        policy = AutoscalePolicy()
        scaled = plan.with_changes(autoscale=policy)
        assert scaled.autoscaled
        assert scaled.autoscale_policies() == (policy, policy)


class TestNodeByName:
    def test_lookup_and_error_lists_known_names(self, trained_ddnn):
        deployment = partition_ddnn(trained_ddnn)
        assert deployment.node_by_name("cloud") is deployment.cloud
        assert deployment.node_by_name("device-0") is deployment.devices[0]
        assert (
            deployment.node_by_name("local-aggregator") is deployment.local_aggregator
        )
        with pytest.raises(KeyError, match="known nodes: .*cloud.*device-0"):
            deployment.node_by_name("nope")


class TestLinkSpec:
    def test_connect_registers_link_with_spec_params(self):
        fabric = NetworkFabric()
        spec = LinkSpec(bandwidth_bytes_per_s=10.0, latency_s=0.25)
        link = spec.connect(fabric, "a", "b")
        assert (link.bandwidth_bytes_per_s, link.latency_s) == (10.0, 0.25)
        assert fabric.links() == [link]

    def test_retune_mutates_in_place(self):
        fabric = NetworkFabric()
        link = LinkSpec(10.0, 0.25).connect(fabric, "a", "b")
        LinkSpec(20.0, 0.125).retune(link)
        assert (link.bandwidth_bytes_per_s, link.latency_s) == (20.0, 0.125)
        assert fabric.links() == [link]  # same object, stats preserved


class TestPlanSections:
    def test_default_plan_matches_model_structure(self, trained_ddnn):
        deployment = partition_ddnn(trained_ddnn)
        default = build_tier_sections(deployment)
        planned = build_tier_sections(deployment, plan=PartitionPlan(trained_ddnn))
        assert [(s.tier_name, s.exit_index, s.exit_name) for s in default] == [
            (s.tier_name, s.exit_index, s.exit_name) for s in planned
        ]

    def test_disabled_local_exit_keeps_model_numbering(self, trained_ddnn):
        deployment = partition_ddnn(trained_ddnn)
        plan = PartitionPlan(trained_ddnn, local_exit=False)
        sections = build_tier_sections(deployment, plan=plan)
        assert [(s.tier_name, s.exit_index) for s in sections] == [
            ("devices", None),
            ("cloud", 1),  # cloud keeps the model's exit index
        ]
        assert sections[0].exit_name == ""

    def test_plan_model_mismatch_rejected(self, trained_ddnn, untrained_ddnn):
        deployment = partition_ddnn(trained_ddnn)
        with pytest.raises(ValueError, match="deployment's model"):
            build_tier_sections(deployment, plan=PartitionPlan(untrained_ddnn))

    def test_edge_exit_toggle_three_tier(self, tiny_train):
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
        deployment = partition_ddnn(model)
        plan = PartitionPlan(model, edge_exit=False)
        sections = build_tier_sections(deployment, plan=plan)
        assert [(s.tier_name, s.exit_index) for s in sections] == [
            ("devices", 0),
            ("edge", None),
            ("cloud", 2),
        ]
        # An exit-less edge tier still carries features for the cloud.
        views = np.random.default_rng(0).normal(size=(2, 4, 3, 32, 32))
        plans = compile_ddnn(model)
        result = sections[0].process(views, plans)
        transfer = sections[0].offload(result.carry, np.array([0, 1]))
        # The offloaded rows of the carry, staged as the edge tier's input.
        edge_result = sections[1].process(transfer.features[[0, 1]], plans)
        assert edge_result.logits is None
        assert edge_result.carry is not None


class TestWorkerPoolResize:
    def test_grow_appends_free_workers_with_unique_indices(self):
        pool = SimulatedWorkerPool(EventLoop(), 2)
        assert pool.resize(4, now=1.0) == 4
        assert [w.index for w in pool.workers] == [0, 1, 2, 3]
        assert all(w.busy_until <= 1.0 for w in pool.workers[2:])

    def test_shrink_skips_busy_workers(self):
        pool = SimulatedWorkerPool(EventLoop(), 3)
        pool.workers[1].busy_until = 10.0  # mid-batch
        pool.workers[2].busy_until = 10.0  # mid-batch
        assert pool.resize(1, now=0.0) == 2  # only the free slot is removable
        assert [w.index for w in pool.workers] == [1, 2]
        # Once a straggler finishes, the next resize completes the shrink.
        pool.workers[0].busy_until = 0.0
        assert pool.resize(1, now=0.0) == 1
        assert [w.index for w in pool.workers] == [2]

    def test_grow_requires_matching_plans(self):
        pool = SimulatedWorkerPool(EventLoop(), 1)
        with pytest.raises(ValueError, match="one bundle per added worker"):
            pool.resize(3, now=0.0, worker_plans=["only-one"])

    def test_thread_pool_resize_recreates_executor(self):
        events = EventLoop()
        pool = ThreadPoolWorkerPool(events, 1)
        try:
            first = pool._executor
            assert pool.resize(2, now=0.0) == 2
            assert pool._executor is not first
            # The resized pool still executes and posts completions.
            worker = pool.acquire(0.0)
            done = []
            pool.execute(worker, lambda plans: 41 + 1, lambda r: 0.0, lambda r, t: done.append(r))
            events.run()
            assert done == [42]
        finally:
            pool.shutdown()
        with pytest.raises(RuntimeError, match="shut-down"):
            pool.resize(3, now=0.0)
