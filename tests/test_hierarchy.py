"""Tests for the distributed hierarchy simulator (network, nodes, faults, runtime)."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.core import ExitOracle, InferenceResult
from repro.hierarchy import (
    CLOUD_NAME,
    LOCAL_AGGREGATOR_NAME,
    FaultPlan,
    HierarchyRuntime,
    LinkSpec,
    Message,
    NetworkFabric,
    NetworkLink,
    build_tier_sections,
    partition_ddnn,
)


class TestNetwork:
    def test_message_validation(self):
        with pytest.raises(ValueError):
            Message("a", "b", size_bytes=-1)

    def test_link_transfer_time(self):
        link = NetworkLink("a", "b", bandwidth_bytes_per_s=1000.0, latency_s=0.5)
        assert link.transfer_time(1000.0) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            link.transfer_time(-1.0)

    def test_link_accumulates_stats_and_resets(self):
        link = NetworkLink("a", "b", bandwidth_bytes_per_s=100.0, latency_s=0.0)
        link.send(Message("a", "b", 50.0))
        link.send(Message("a", "b", 150.0))
        assert link.stats.messages == 2
        assert link.stats.bytes_transferred == 200.0
        link.reset()
        assert link.stats.messages == 0

    def test_fabric_routing_and_totals(self):
        fabric = NetworkFabric()
        fabric.connect("device-0", "cloud", bandwidth_bytes_per_s=100.0, latency_s=0.0)
        fabric.connect("device-1", "cloud")
        assert fabric.has_link("device-0", "cloud")
        assert not fabric.has_link("cloud", "device-0")
        fabric.send(Message("device-0", "cloud", 10.0))
        fabric.send(Message("device-1", "cloud", 30.0))
        assert fabric.total_bytes() == 40.0
        assert fabric.total_messages() == 2
        assert fabric.bytes_from("device-0") == 10.0
        assert len(fabric.log) == 2
        fabric.reset()
        assert fabric.total_bytes() == 0.0 and not fabric.log

    def test_send_batch_charges_a_link_exactly_like_that_many_sends(self):
        """Same message count, and byte and airtime totals equal bit for bit
        (sizes and times that do not sum exactly: repeated addition, not a
        product); nothing is logged; the result is one message's time."""
        one, batched = NetworkFabric(), NetworkFabric()
        for fabric in (one, batched):
            fabric.connect("device-0", "cloud", bandwidth_bytes_per_s=300.0, latency_s=0.1)
        size = 0.1
        seconds = [
            one.send(Message("device-0", "cloud", size), record=False) for _ in range(7)
        ]
        assert batched.send_batch("device-0", "cloud", size, 7) == seconds[0]
        stats = batched.link("device-0", "cloud").stats
        assert stats == one.link("device-0", "cloud").stats
        total_bytes = total_seconds = 0.0
        for each in seconds:
            total_bytes += size
            total_seconds += each
        assert (stats.messages, stats.bytes_transferred, stats.transfer_seconds) == (
            7,
            total_bytes,
            total_seconds,
        )
        assert batched.link("device-0", "cloud").stats.bytes_transferred != size * 7
        assert batched.total_messages() == 7 and not batched.log
        assert batched.send_batch("device-0", "cloud", size, 0) == seconds[0]
        assert batched.total_messages() == 7
        with pytest.raises(ValueError):
            batched.send_batch("device-0", "cloud", -1.0, 2)
        with pytest.raises(KeyError):
            batched.send_batch("device-0", "edge", 1.0, 2)

    @pytest.mark.parametrize(
        "bandwidth, latency, argument",
        [
            (0.0, 0.01, "bandwidth_bytes_per_s"),
            (-5.0, 0.01, "bandwidth_bytes_per_s"),
            (math.nan, 0.01, "bandwidth_bytes_per_s"),
            (math.inf, 0.01, "bandwidth_bytes_per_s"),
            (1000.0, -1.0, "latency_s"),
            (1000.0, math.nan, "latency_s"),
            (1000.0, math.inf, "latency_s"),
        ],
    )
    def test_links_reject_degenerate_parameters(self, bandwidth, latency, argument):
        builds = {
            "NetworkLink": lambda: NetworkLink("a", "b", bandwidth, latency),
            "connect": lambda: NetworkFabric().connect(
                "a", "b", bandwidth_bytes_per_s=bandwidth, latency_s=latency
            ),
            "LinkSpec": lambda: LinkSpec(bandwidth, latency),
        }
        for name, build in builds.items():
            with pytest.raises(ValueError, match=argument):
                build()
                pytest.fail(f"{name} accepted bandwidth={bandwidth}, latency={latency}")
        # Zero latency stays a valid link.
        assert NetworkLink("a", "b", bandwidth_bytes_per_s=1000.0, latency_s=0.0).latency_s == 0.0

    def test_fabric_rejects_duplicates_and_unknown_links(self):
        fabric = NetworkFabric()
        fabric.connect("a", "b")
        with pytest.raises(ValueError):
            fabric.connect("a", "b")
        with pytest.raises(KeyError):
            fabric.link("a", "c")


class TestFaultPlans:
    def test_permanent_failures(self):
        plan = FaultPlan(failed_devices={1, 3})
        assert plan.device_is_down(1) and plan.device_is_down(3)
        assert not plan.device_is_down(0)
        assert not plan.sample_delivery(1)
        assert plan.sample_delivery(0)

    def test_intermittent_failures_probabilistic(self):
        plan = FaultPlan(intermittent={0: 0.5}, seed=0)
        outcomes = [plan.sample_delivery(0) for _ in range(200)]
        assert 0.3 < np.mean(outcomes) < 0.7

    def test_intermittent_probability_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(intermittent={0: 1.5})

    @pytest.mark.parametrize(
        "plan, named",
        [
            (FaultPlan(failed_devices={1, 99}), "failed_devices [99]"),
            (FaultPlan(intermittent={-1: 0.5, 0: 0.5}), "intermittent [-1]"),
        ],
    )
    def test_plans_naming_missing_nodes_are_rejected(self, trained_ddnn, plan, named):
        """Each of these names a device the deployment lacks and would
        inject nothing; both consumers of a fault plan refuse it instead."""
        deployment = partition_ddnn(trained_ddnn)
        with pytest.raises(ValueError, match=re.escape(named)):
            HierarchyRuntime(deployment, 0.8, fault_plan=plan)
        with pytest.raises(ValueError, match="lacks"):
            build_tier_sections(deployment, plan)
        last = len(deployment.devices) - 1
        HierarchyRuntime(deployment, 0.8, fault_plan=FaultPlan(failed_devices={last}))


class TestPartition:
    def test_deployment_structure(self, trained_ddnn):
        deployment = partition_ddnn(trained_ddnn)
        assert len(deployment.devices) == trained_ddnn.config.num_devices
        assert deployment.local_aggregator is not None
        assert deployment.cloud.name == CLOUD_NAME
        assert deployment.edges == []
        for device in deployment.devices:
            assert deployment.fabric.has_link(device.name, LOCAL_AGGREGATOR_NAME)
            assert deployment.fabric.has_link(device.name, CLOUD_NAME)
        assert deployment.node_by_name(deployment.devices[0].name) is deployment.devices[0]
        with pytest.raises(KeyError):
            deployment.node_by_name("nope")

    def test_device_payload_sizes_match_eq1_terms(self, trained_ddnn):
        deployment = partition_ddnn(trained_ddnn)
        device = deployment.devices[0]
        config = trained_ddnn.config
        assert device.summary_bytes() == 4 * config.num_classes
        assert device.feature_bytes() == config.device_filters * config.device_feature_map_elements / 8
        assert device.raw_input_bytes() == 3 * 32 * 32

    def test_model_sections_are_shared_not_copied(self, trained_ddnn):
        deployment = partition_ddnn(trained_ddnn)
        assert deployment.devices[0].branch is trained_ddnn.device_branches[0]
        assert deployment.cloud.model is trained_ddnn.cloud


class TestHierarchyRuntime:
    def test_matches_the_oracle_on_the_monolithic_model(self, trained_ddnn, tiny_test):
        central = ExitOracle.capture(trained_ddnn, tiny_test, compile=False).route(0.8)
        runtime = HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8)
        distributed = runtime.run(tiny_test)
        np.testing.assert_array_equal(central.predictions, distributed.predictions)
        assert central.local_exit_fraction == pytest.approx(distributed.local_exit_fraction)
        assert distributed.accuracy() == pytest.approx(central.accuracy())

    def test_byte_accounting_matches_eq1(self, trained_ddnn, tiny_test):
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, compile=False)
        runtime = HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8)
        distributed = runtime.run(tiny_test)
        per_device = distributed.bytes_per_sample.mean() / trained_ddnn.config.num_devices
        assert per_device == pytest.approx(oracle.communication_bytes(oracle.route(0.8)))

    def test_local_exits_have_lower_latency(self, trained_ddnn, tiny_test):
        runtime = HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8)
        result = runtime.run(tiny_test)
        latencies = result.latencies_s
        names = np.array(result.exit_names_per_sample)
        if (names == "local").any() and (names == "cloud").any():
            assert latencies[names == "local"].mean() < latencies[names == "cloud"].mean()

    def test_threshold_one_sends_nothing_to_cloud(self, trained_ddnn, tiny_test):
        deployment = partition_ddnn(trained_ddnn)
        runtime = HierarchyRuntime(deployment, 1.0)
        result = runtime.run(tiny_test)
        assert result.local_exit_fraction == 1.0
        for device in deployment.devices:
            assert deployment.fabric.bytes_from(device.name) == pytest.approx(
                len(tiny_test) * device.summary_bytes()
            )

    def test_failed_device_sends_nothing(self, trained_ddnn, tiny_test):
        deployment = partition_ddnn(trained_ddnn)
        runtime = HierarchyRuntime(deployment, 0.8, fault_plan=FaultPlan(failed_devices={0}))
        result = runtime.run(tiny_test)
        assert deployment.fabric.bytes_from(deployment.devices[0].name) == 0.0
        assert 0.0 <= result.accuracy() <= 1.0

    @pytest.mark.parametrize("faulted_by", ["runtime", "fabric"])
    @pytest.mark.parametrize("then", ["fabric", "runtime"])
    def test_a_faulted_run_leaves_the_deployment_healthy(
        self, trained_ddnn, tiny_test, faulted_by, then
    ):
        """The fault plan is the run's, not the deployment's: a fabric or a
        runtime built on the deployment after a faulted run or faulted
        serving answers with every device up, as one on a fresh deployment
        does."""
        from repro.serving import DistributedServingFabric

        plan = FaultPlan(failed_devices={1})

        def answers(deployment):
            if then == "fabric":
                fabric = DistributedServingFabric(deployment, 0.8)
                return [
                    (r.prediction, r.entropy, r.bytes_transferred)
                    for r in fabric.serve_dataset(tiny_test)
                ]
            result = HierarchyRuntime(deployment, 0.8).run(tiny_test)
            return list(zip(result.predictions, result.entropies, result.bytes_per_sample))

        deployment = partition_ddnn(trained_ddnn)
        if faulted_by == "runtime":
            HierarchyRuntime(deployment, 0.8, fault_plan=plan).run(tiny_test)
        else:
            sections = build_tier_sections(deployment, plan)
            DistributedServingFabric(deployment, 0.8, sections=sections).serve_dataset(tiny_test)
        assert answers(deployment) == answers(partition_ddnn(trained_ddnn))

    def test_result_arrays_account_for_every_sample(self, trained_ddnn, tiny_test):
        deployment = partition_ddnn(trained_ddnn)
        result = HierarchyRuntime(deployment, 0.8).run(tiny_test)
        count = len(tiny_test)
        assert len(result.exit_names_per_sample) == count
        assert result.predictions.shape == result.latencies_s.shape == (count,)
        assert result.bytes_per_sample.shape == (count,)
        fractions = [result.exit_fraction(name) for name in trained_ddnn.exit_names]
        assert sum(fractions) == pytest.approx(1.0)
        assert result.accuracy() == pytest.approx(np.mean(result.predictions == tiny_test.labels))
        assert (result.latencies_s > 0).all()
        assert result.bytes_per_sample.sum() == pytest.approx(deployment.fabric.total_bytes())

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_per_sample_arrays_match_the_oracle(self, trained_ddnn, tiny_test, threshold):
        """Each sample's exit, prediction and bytes line up with the oracle's
        route: a local exit sends only the devices' class summaries, a
        cloud exit sends those plus the offloaded features (Eq. 1)."""
        central = ExitOracle.capture(trained_ddnn, tiny_test, compile=False).route(threshold)
        result = HierarchyRuntime(partition_ddnn(trained_ddnn), threshold).run(tiny_test)
        expected = [trained_ddnn.exit_names[index] for index in central.exit_indices]
        assert result.exit_names_per_sample == expected
        np.testing.assert_array_equal(result.predictions, central.predictions)
        local = np.array(result.exit_names_per_sample) == "local"
        assert result.local_exit_fraction == pytest.approx(local.mean())
        if 0 < local.sum() < len(local):  # 0.5 mixes both exits on this model
            assert result.bytes_per_sample[local].max() < result.bytes_per_sample[~local].min()
            assert result.latencies_s[local].max() < result.latencies_s[~local].min()

    def test_empty_result_fractions(self):
        empty = np.zeros(0, dtype=np.int64)
        result = InferenceResult(empty, empty, ["local", "cloud"], np.zeros(0))
        assert result.local_exit_fraction == 0.0
        assert result.exit_fraction("cloud") == 0.0

    def test_threshold_validation(self, trained_ddnn):
        with pytest.raises(ValueError):
            HierarchyRuntime(partition_ddnn(trained_ddnn), [0.1, 0.2, 0.3, 0.4])


# Predictions, exits ("l"ocal / "c"loud), bytes per sample and, where
# recorded, per-device (samples, compute seconds, bytes sent) of the
# trained_ddnn fixture at threshold 0.8, one batch of 28.  The intermittent
# runs were recorded at the commit before the node-attached compiled forward
# and the per-delay offload grouping were deleted, the rest from the eager
# per-device tier forward; eager and compiled tiers agreed on every one.
_RECORDED_RUNS = {
    "every-device-0.6": (
        FaultPlan(intermittent={0: 0.6, 1: 0.6, 2: 0.6, 3: 0.6}, seed=5),
        [2, 2, 0, 2, 2, 2, 2, 2, 1, 0, 0, 2, 0, 2, 2, 2, 2, 2, 0, 2, 1, 1, 2, 1, 0, 2, 2, 2],
        "lclcccclcllcllcccclccccclccc",
        [24, 152, 24, 76, 76, 0, 76, 24, 152, 24, 36, 76, 24, 24, 76, 152, 152, 152, 24, 76, 76, 152, 152, 76, 36, 228, 0, 152],
        None,
    ),
    "one-device-0.3": (
        FaultPlan(intermittent={1: 0.3}, seed=5),
        [1, 1, 0, 2, 2, 2, 2, 2, 0, 0, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 2],
        "clccccclcllclccccclclllllclc",
        [304, 48, 304, 228, 228, 304, 304, 36, 228, 48, 48, 228, 48, 304, 304, 304, 304, 304, 48, 228, 48, 36, 48, 36, 48, 304, 36, 304],
        None,
    ),
    "failed-device": (
        FaultPlan(failed_devices={1}),
        [1, 1, 2, 2, 2, 2, 2, 2, 0, 0, 0, 1, 0, 2, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2],
        "clccccclcllclccllclclllllllc",
        [228, 36, 228, 228, 228, 228, 228, 36, 228, 36, 36, 228, 36, 228, 228, 36, 36, 228, 36, 228, 36, 36, 36, 36, 36, 36, 36, 228],
        [(28, 0.00089768, 1168.0), (0, 0.0, 0.0), (28, 0.00089768, 1168.0), (28, 0.00089768, 1168.0)],
    ),
    "intermittent": (
        FaultPlan(intermittent={0: 0.3, 2: 0.6}, seed=9),
        [1, 1, 2, 2, 1, 2, 1, 2, 1, 0, 0, 1, 0, 1, 0, 2, 0, 1, 1, 2, 0, 0, 0, 0, 0, 1, 1, 2],
        "ccccccclcllclccccccclllllccc",
        [304, 152, 228, 304, 228, 304, 228, 36, 152, 48, 36, 152, 24, 304, 304, 228, 304, 304, 152, 228, 24, 36, 36, 36, 48, 304, 304, 228],
        [(28, 0.00089768, 1224.0), (28, 0.00089768, 1552.0), (28, 0.00089768, 708.0), (28, 0.00089768, 1552.0)],
    ),
    "both": (
        FaultPlan(failed_devices={2}, intermittent={1: 0.5}, seed=4),
        [2, 2, 2, 2, 1, 2, 1, 2, 1, 0, 0, 0, 0, 2, 2, 0, 2, 2, 0, 2, 0, 0, 0, 0, 2, 0, 1, 2],
        "lcclccclcclclcclccccllllclcc",
        [36, 228, 228, 24, 228, 152, 228, 24, 228, 228, 36, 152, 24, 228, 228, 24, 228, 228, 152, 228, 36, 36, 36, 24, 152, 24, 228, 228],
        [(28, 0.00089768, 1424.0), (28, 0.00089768, 1048.0), (0, 0.0, 0.0), (28, 0.00089768, 1424.0)],
    ),
}
#: Path latency by route: local exit, cloud exit, and cloud exit for a
#: sample no device delivered (nothing transferred, compute only).
_LOCAL_S, _CLOUD_S, _CLOUD_UNSENT_S = 0.002044072, 0.052300103540000004, 4.3540000000000005e-08


class TestIntermittentFaultReplay:
    """Intermittent and permanent device faults.  The compiled device tier
    is one grouped program: a failed device and dropped samples are masks
    on its output, and must account — answers, bytes on the wire, per-node
    work — exactly as the recorded runs did."""

    @pytest.mark.parametrize("scenario", sorted(_RECORDED_RUNS))
    def test_matches_recorded_run(self, trained_ddnn, tiny_test, scenario):
        fault_plan, predictions, exits, sent, device_stats = _RECORDED_RUNS[scenario]
        deployment = partition_ddnn(trained_ddnn)
        result = HierarchyRuntime(deployment, 0.8, fault_plan=fault_plan).run(tiny_test)
        assert result.predictions.tolist() == predictions
        assert "".join(name[0] for name in result.exit_names_per_sample) == exits
        assert result.bytes_per_sample.tolist() == sent
        if device_stats is not None:
            assert [
                (d.stats.samples_processed, d.stats.compute_seconds, d.stats.bytes_sent)
                for d in deployment.devices
            ] == device_stats
        expected_s = [
            _LOCAL_S if exit == "l" else _CLOUD_S if size else _CLOUD_UNSENT_S
            for exit, size in zip(exits, sent)
        ]
        # Not bit-for-bit: offloaded rows now reach the cloud together, so
        # an undelivered row joins a bigger cloud batch, and per-sample
        # compute is ``seconds / batch`` — one ulp apart across batch sizes.
        np.testing.assert_allclose(result.latencies_s, expected_s, rtol=1e-12, atol=0.0)


class TestBatchedLinkAccounting:
    """Sections charge each link once per batch (``send_batch``); totals,
    per-row bytes and delays must be what one message per delivered row gave."""

    @pytest.mark.parametrize(
        "fault_plan",
        [
            FaultPlan(),
            FaultPlan(intermittent={0: 0.4, 3: 0.7}, seed=2),
            FaultPlan(failed_devices={1}),
        ],
        ids=["all-delivered", "partially-delivered", "dead-device"],
    )
    def test_device_tier_equals_one_message_per_delivered_row(self, trained_ddnn, tiny_test, fault_plan):
        from repro.compile import compiled_plan_for
        from repro.hierarchy.sections import build_tier_sections

        deployment = partition_ddnn(trained_ddnn)
        section = build_tier_sections(deployment, fault_plan)[0]
        views = tiny_test.images[:9]
        result = section.process(views, compiled_plan_for(trained_ddnn))
        _, delivered = result.carry
        # Only dropped samples need a mask: a dead device is dropped whole.
        assert (delivered is None) == (not fault_plan.intermittent)
        if delivered is None:
            delivered = np.ones((len(deployment.devices), len(views)), dtype=bool)
        delivered = delivered.copy()
        delivered[sorted(fault_plan.failed_devices)] = False
        rows = np.array([0, 2, 3, 7])
        transfer = section.offload(result.carry, rows)

        # The per-message reference, on a second deployment's links.
        reference = partition_ddnn(trained_ddnn)
        intake_bytes, intake_s = np.zeros(len(views)), np.zeros(len(views))
        sent, delay = np.zeros(len(rows)), np.zeros(len(rows))
        for index, device in enumerate(reference.devices):
            compute_s = deployment.devices[index].stats.compute_seconds / len(views)
            for sample in np.flatnonzero(delivered[index]):
                message = Message(device.name, LOCAL_AGGREGATOR_NAME, device.summary_bytes())
                seconds = reference.fabric.send(message, record=False)
                device.record_bytes_sent(message.size_bytes)
                intake_bytes[sample] += message.size_bytes
                intake_s[sample] = max(intake_s[sample], compute_s + seconds)
            for position, row in enumerate(rows):
                if delivered[index, row]:
                    message = Message(device.name, CLOUD_NAME, device.feature_bytes())
                    seconds = reference.fabric.send(message, record=False)
                    device.record_bytes_sent(message.size_bytes)
                    sent[position] += message.size_bytes
                    delay[position] = max(delay[position], seconds)

        np.testing.assert_array_equal(result.intake_bytes, intake_bytes)
        np.testing.assert_array_equal(result.intake_s, intake_s)
        np.testing.assert_array_equal(transfer.bytes, sent)
        np.testing.assert_array_equal(transfer.delay_s, delay)
        for mine, theirs in zip(deployment.fabric.links(), reference.fabric.links()):
            assert mine.stats == theirs.stats
        for mine, theirs in zip(deployment.devices, reference.devices):
            assert mine.stats.bytes_sent == theirs.stats.bytes_sent
