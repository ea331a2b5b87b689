"""Contracts of the whole-batch serving path.

* The fused exit decision equals the two public reference helpers bit for bit.
* Device, edge and cloud sections equal a per-device, per-message reference
  loop kept here (the form the sections had before they charged from
  per-tier vectors), on the same plan bundle's per-tier plans and the
  model's eager aggregators: exit logits, the one latency and byte count a
  section charges every row, carries, offload delays and bytes, and every
  link's and node's stats.
* A section result never aliases the buffers of the plan bundle it ran on.
* The device tier's cached transfer estimate leaves out its fault plan's
  dead devices and follows a live re-partition.
* Simulated workers over one deployment — of every fabric and every
  hierarchy-runtime run built on it — share one bundle, compiled once per
  weights version, which a weights change replaces, on
  fabrics built before it too; replicas and other deployments hold their
  own; thread workers own theirs.
* A shed answer computes only the first exit.
"""

from __future__ import annotations

import copy
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import compile_ddnn, compiled_plan_for
from repro.core import DDNNConfig, DDNNTopology, DDNNTrainer, TrainingConfig, build_ddnn
from repro.core.exits import ExitCriterion, normalized_entropy, softmax_probabilities
from repro.hierarchy import (
    FaultPlan,
    HierarchyRuntime,
    LinkSpec,
    PartitionPlan,
    build_tier_sections,
    partition_ddnn,
)
from repro.hierarchy.network import Message
from repro.hierarchy.partition import CLOUD_NAME, LOCAL_AGGREGATOR_NAME
from repro.nn.tensor import Tensor, no_grad
from repro.serving import (
    BatchingPolicy,
    DDNNServer,
    DistributedServingFabric,
    LoadBalancer,
)
from repro.serving.admission import ShedToLocalExit
from repro.serving.clock import EventLoop


# --------------------------------------------------------------------------- #
# The fused exit decision
# --------------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None)
@given(
    batch=st.sampled_from([0, 1, 8, 64]),
    classes=st.integers(2, 10),
    log_scale=st.floats(-3.0, 3.0),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_exit_decision_equals_the_reference_helpers(batch, classes, log_scale, ties, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(batch, classes))
    if ties:
        # Few distinct values per row: tied maxima and tied probabilities.
        logits = np.round(logits)
    logits *= 10.0**log_scale
    original = logits.copy()

    decision = ExitCriterion(0.5).evaluate(logits)
    probabilities = softmax_probabilities(logits)
    entropies = normalized_entropy(probabilities)

    np.testing.assert_array_equal(logits, original)  # the input is not written
    for mine, reference in (
        (decision.probabilities, probabilities),
        (decision.entropies, entropies),
        (decision.predictions, probabilities.argmax(axis=-1)),
        (decision.exit_mask, entropies <= 0.5),
    ):
        assert mine.dtype == reference.dtype and mine.shape == reference.shape
        np.testing.assert_array_equal(mine, reference)
    assert ExitCriterion(0.5).evaluate(Tensor(logits)).entropies.tobytes() == entropies.tobytes()


# --------------------------------------------------------------------------- #
# Sections against the per-device reference loop
# --------------------------------------------------------------------------- #
def _edge_model():
    config = DDNNConfig(
        num_devices=4,
        device_filters=2,
        cloud_filters=4,
        edge_filters=3,
        cloud_hidden_units=8,
        topology=DDNNTopology.from_name("devices_edges_cloud", num_edges=2),
        seed=5,
    )
    return build_ddnn(config).eval()


class _Reference:
    """The per-device loop: every device, row and message one at a time."""

    def __init__(self, deployment, fault_plan, exit_flags, plans):
        self.deployment = deployment
        self.model = deployment.model
        self.fault_plan = fault_plan
        self.local_exit, self.edge_exit = exit_flags
        self.plans = plans

    def devices(self, views):
        deployment, plans = self.deployment, self.plans
        devices, batch = deployment.devices, len(views)
        group_features, group_scores = plans.device_group(np.moveaxis(views, 1, 0))
        features, scores, seconds = [], [], []
        for index, device in enumerate(devices):
            if self.fault_plan.device_is_down(index):
                feature, score, second = (
                    np.zeros_like(group_features[index]),
                    np.zeros_like(group_scores[index]),
                    0.0,
                )
            else:
                feature, score = group_features[index].copy(), group_scores[index].copy()
                second = device._account(device.operations_per_sample * batch, samples=batch)
            features.append(feature)
            scores.append(score)
            seconds.append(second)

        intake_s, intake_bytes = np.zeros(batch), np.zeros(batch)
        logits, aggregate_s = None, 0.0
        if self.local_exit:
            for index, device in enumerate(devices):
                if self.fault_plan.device_is_down(index):
                    continue
                for sample in range(batch):
                    message = Message(device.name, LOCAL_AGGREGATOR_NAME, device.summary_bytes())
                    link_s = deployment.fabric.send(message, record=False)
                    device.record_bytes_sent(message.size_bytes)
                    intake_bytes[sample] += message.size_bytes
                    intake_s[sample] = max(intake_s[sample], seconds[index] / batch + link_s)
            logits = self._aggregate(self.model.local_aggregator, scores)
            aggregate_s = deployment.local_aggregator._account(
                sum(score.size for score in scores), samples=batch
            )
        return dict(
            logits=logits,
            features=features,
            service_s=max(seconds) + aggregate_s,
            intake_s=intake_s,
            compute_s=np.zeros(batch) + aggregate_s / batch,
            intake_bytes=intake_bytes,
        )

    def offload(self, senders, destinations, sizes, rows, dead=()):
        delay, sent = np.zeros(len(rows)), np.zeros(len(rows))
        for index, node in enumerate(senders):
            if index in dead:
                continue
            for position in range(len(rows)):
                message = Message(node.name, destinations[index], sizes[index])
                link_s = self.deployment.fabric.send(message, record=False)
                node.record_bytes_sent(message.size_bytes)
                sent[position] += message.size_bytes
                delay[position] = max(delay[position], link_s)
        return delay, sent

    def device_offload(self, rows):
        devices = self.deployment.devices
        destination = {index: CLOUD_NAME for index in range(len(devices))}
        for edge in self.deployment.edges:
            destination.update(dict.fromkeys(edge.device_indices, edge.name))
        return self.offload(
            devices,
            [destination[index] for index in range(len(devices))],
            [device.feature_bytes() for device in devices],
            rows,
            dead=self.fault_plan.failed_devices,
        )

    @staticmethod
    def _aggregate(aggregator, sources):
        with no_grad():
            return aggregator([Tensor(array) for array in sources]).data

    def edges(self, sources):
        plans, batch = self.plans, len(sources[0])
        features, logits, seconds = [], [], []
        aggregators = self.model._edge_aggregators
        for index, edge in enumerate(self.deployment.edges):
            group = [sources[device] for device in edge.device_indices]
            feature, logit = plans.edge_tiers[index](self._aggregate(aggregators[index], group))
            features.append(feature.copy())
            logits.append(logit.copy())
            seconds.append(edge._account(edge.operations_per_sample * batch, samples=batch))
        fused = None
        if self.edge_exit:
            fused = self._aggregate(self.model.edge_exit_aggregator, logits)
        return dict(
            logits=fused,
            features=features,
            service_s=max(seconds),
            compute_s=np.zeros(batch) + max(seconds) / batch,
        )

    def edge_offload(self, rows):
        edges = self.deployment.edges
        return self.offload(
            edges, [CLOUD_NAME] * len(edges), [edge.feature_bytes() for edge in edges], rows
        )

    def cloud(self, sources):
        cloud, batch = self.deployment.cloud, len(sources[0])
        _, logits = self.plans.cloud(self._aggregate(self.model.cloud_aggregator, sources))
        seconds = cloud._account(cloud.operations_per_sample * batch, samples=batch)
        return dict(logits=logits, service_s=seconds, compute_s=np.zeros(batch) + seconds / batch)


SCENARIOS = {
    "fault-free": dict(),
    "failed-device": dict(failed={1}),
    "two-failed-devices": dict(failed={0, 2}),
    "local-exit-disabled": dict(local_exit=False),
    "failed-without-local-exit": dict(failed={2}, local_exit=False),
    "edge-topology": dict(edges=True, failed={3}),
}


def _deploy(model, scenario):
    plan = PartitionPlan(model, local_exit=scenario.get("local_exit"))
    deployment = plan.materialize()
    return plan, deployment, FaultPlan(failed_devices=scenario.get("failed", set()))


def _equal(mine, reference):
    if reference is None:
        assert mine is None
        return
    assert np.asarray(mine).dtype == np.asarray(reference).dtype
    np.testing.assert_array_equal(mine, reference)


def _charged(mine, per_row):
    """A section charges every row one float; the reference, row by row."""
    assert type(mine) is float
    _equal(np.full(len(per_row), mine), per_row)


def _equal_logits(mine, reference):
    """A section returns one logits array per exit it holds (here none or one)."""
    assert len(mine) == (reference is not None)
    if reference is not None:
        _equal(mine[0], reference)


def _stats(deployment):
    nodes = [*deployment.devices, deployment.local_aggregator, *deployment.edges, deployment.cloud]
    return (
        [(link.source, link.destination, link.stats) for link in deployment.fabric.links()],
        [(node.name, node.stats) for node in nodes if node is not None],
    )


@pytest.mark.parametrize("batch", [1, 7, 8])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sections_equal_the_per_device_reference(trained_ddnn, tiny_test, name, batch):
    scenario = SCENARIOS[name]
    model = _edge_model() if scenario.get("edges") else trained_ddnn
    plans = compile_ddnn(model)
    views = tiny_test.images[:batch]
    rows = np.array([row for row in range(batch) if row % 3 != 1])

    plan, deployment, fault_plan = _deploy(model, scenario)
    sections = build_tier_sections(deployment, fault_plan, plan=plan)
    plan, reference_deployment, reference_faults = _deploy(model, scenario)
    exit_flags = (plan.resolved_local_exit(), plan.resolved_edge_exit())
    reference = _Reference(reference_deployment, reference_faults, exit_flags, plans)

    # Device tier.
    result = sections[0].process(views, plans)
    expected = reference.devices(views)
    _equal(result.carry, np.stack(expected["features"], axis=1))
    for field in ("intake_s", "compute_s", "intake_bytes"):
        _charged(getattr(result, field), expected[field])
    _equal_logits(result.logits, expected["logits"])
    assert result.service_s == expected["service_s"]
    transfer = sections[0].offload(result.carry, rows)
    delay, sent = reference.device_offload(rows)
    _charged(transfer.delay_s, delay)
    _charged(transfer.bytes, sent)
    # The next tier stages the offloaded rows of the carry; the reference
    # forwards one batch per source device.
    staged = np.stack([transfer.features[row] for row in rows])
    sources = [feature[rows] for feature in expected["features"]]

    if len(sections) == 3:
        result = sections[1].process(staged, plans)
        expected = reference.edges(sources)
        _equal(result.carry, np.stack(expected["features"], axis=1))
        _charged(result.compute_s, expected["compute_s"])
        for field in ("intake_s", "intake_bytes"):
            _charged(getattr(result, field), np.zeros(len(rows)))
        _equal_logits(result.logits, expected["logits"])
        assert result.service_s == expected["service_s"]
        upper = np.arange(len(rows))[::2]
        transfer = sections[1].offload(result.carry, upper)
        delay, sent = reference.edge_offload(upper)
        _charged(transfer.delay_s, delay)
        _charged(transfer.bytes, sent)
        staged = np.stack([transfer.features[row] for row in upper])
        sources = [feature[upper] for feature in expected["features"]]

    result = sections[-1].process(staged, plans)
    expected = reference.cloud(sources)
    _equal_logits(result.logits, expected["logits"])
    _charged(result.compute_s, expected["compute_s"])
    for field in ("intake_s", "intake_bytes"):
        _charged(getattr(result, field), np.zeros(len(staged)))
    assert result.service_s == expected["service_s"]

    assert _stats(deployment) == _stats(reference_deployment)


# --------------------------------------------------------------------------- #
# Results own their arrays
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("edges", [False, True], ids=["devices-cloud", "edge-topology"])
def test_section_results_survive_the_bundles_next_batch(trained_ddnn, tiny_test, edges):
    model = _edge_model() if edges else trained_ddnn
    plans = compile_ddnn(model)
    sections = build_tier_sections(PartitionPlan(model).materialize())
    first, second = tiny_test.images[:5], tiny_test.images[5:10]

    def run(views):
        results = [sections[0].process(views, plans)]
        rows = np.arange(len(views))
        for section in sections[1:]:
            transfer = sections[sections.index(section) - 1].offload(results[-1].carry, rows)
            staged = np.stack([transfer.features[row] for row in rows])
            results.append(section.process(staged, plans))
        return results

    results = run(first)
    snapshot = copy.deepcopy(results)
    run(second)
    run(second[:1])  # a batch of one stages a view, not a copy
    for mine, kept in zip(results, snapshot):
        for field in ("logits", "carry", "intake_s", "compute_s", "intake_bytes"):
            _equal(getattr(mine, field), getattr(kept, field))


# --------------------------------------------------------------------------- #
# The device tier's cached transfer estimate
# --------------------------------------------------------------------------- #
def _fresh_estimate(deployment, dead=()):
    return max(
        deployment.fabric.link(device.name, CLOUD_NAME).transfer_time(device.feature_bytes())
        for index, device in enumerate(deployment.devices)
        if index not in dead
    )


def test_transfer_estimate_follows_failures_and_repartitions(trained_ddnn):
    deployment = PartitionPlan(trained_ddnn).materialize()
    slow = deployment.devices[2]
    LinkSpec(1_000.0, 0.5).retune(deployment.fabric.link(slow.name, CLOUD_NAME))
    fabric = DistributedServingFabric(deployment, 0.8)
    slowest = fabric.sections[0].transfer_estimate_s()
    assert slowest == _fresh_estimate(deployment) == 0.5 + slow.feature_bytes() / 1_000.0

    # A dead device's uplink is out of the estimate.
    faulted = DistributedServingFabric(
        deployment, 0.8, sections=build_tier_sections(deployment, FaultPlan(failed_devices={2}))
    )
    estimate = faulted.sections[0].transfer_estimate_s()
    assert estimate == _fresh_estimate(deployment, dead={2}) < slowest

    # A live re-partition retunes every uplink to the new plan's and keeps
    # the fault plan.
    repartition = PartitionPlan(trained_ddnn, uplink=LinkSpec(2_000.0, 0.25))
    fabric.apply_plan(repartition)
    faulted.apply_plan(repartition)
    estimate = fabric.sections[0].transfer_estimate_s()
    assert estimate == _fresh_estimate(deployment) == 0.25 + slow.feature_bytes() / 2_000.0
    assert faulted.sections[0].fault_plan.failed_devices == {2}
    assert faulted.sections[0].transfer_estimate_s() == _fresh_estimate(deployment, dead={2})


# --------------------------------------------------------------------------- #
# Compiled bundles: one per deployment, or one per thread worker
# --------------------------------------------------------------------------- #
def _bundles(fabric):
    return [worker.plans for tier in fabric.tiers for worker in tier.workers]


def _count_compiles(monkeypatch):
    """The precision of every ``compile_ddnn`` call from here on."""
    import repro.compile.ddnn as module

    calls = []
    original = module.compile_ddnn

    def counting(model, *args, **kwargs):
        calls.append(kwargs.get("precision"))
        return original(model, *args, **kwargs)

    monkeypatch.setattr(module, "compile_ddnn", counting)
    return calls


def test_simulated_workers_on_one_deployment_share_one_bundle(trained_ddnn):
    plan = PartitionPlan(trained_ddnn, replicas=2, workers_per_tier=2)
    # Replicas each own a deployment, so each holds a bundle of its own,
    # whether they share one event loop or not.
    for balancer in (
        LoadBalancer.from_plan(plan, 0.8, events=EventLoop()),
        LoadBalancer.from_plan(plan, 0.8),
    ):
        shared = [{id(bundle) for bundle in _bundles(replica)} for replica in balancer.replicas]
        assert [len(ids) for ids in shared] == [1, 1] and shared[0] != shared[1]

    # A grown tier's new workers run the deployment's bundle too.
    fabric = balancer.replicas[0]
    fabric._resize_tier(0, 4, now=0.0)
    assert {id(bundle) for bundle in _bundles(fabric)} == shared[0]


def test_the_offline_replay_compiles_once(untrained_ddnn, tiny_test, monkeypatch):
    """Every run builds a fresh fabric on a fresh event loop; the model is
    compiled by the first run only, and the deployment's bundle shares the
    ops of the model's plan."""
    calls = _count_compiles(monkeypatch)
    deployment = partition_ddnn(untrained_ddnn)
    runtime = HierarchyRuntime(deployment, 0.8)
    results = [runtime.run(tiny_test), runtime.run(tiny_test)]
    results.append(HierarchyRuntime(deployment, 0.8).run(tiny_test))
    assert calls == ["float64"]
    for result in results[1:]:
        np.testing.assert_array_equal(result.entropies, results[0].entropies)


def test_fabrics_on_one_deployment_compile_once(untrained_ddnn, monkeypatch):
    calls = _count_compiles(monkeypatch)
    plan = PartitionPlan(untrained_ddnn)
    deployment = plan.materialize()
    fabrics = [
        DistributedServingFabric.from_plan(plan, 0.8, deployment=deployment) for _ in range(2)
    ]
    assert calls == ["float64"]
    fabrics[0].apply_plan(plan.with_changes(workers_per_tier=3))
    fabrics[1]._resize_tier(1, 5, now=0.0)
    assert calls == ["float64"]
    assert len({id(bundle) for fabric in fabrics for bundle in _bundles(fabric)}) == 1


def test_fabrics_on_two_deployments_serve_on_two_threads(trained_ddnn, tiny_test):
    """The isolation a bundle per event loop gave: fabrics over different
    deployments hold different bundles, so they can run concurrently."""

    def fabric():
        return DistributedServingFabric(
            partition_ddnn(trained_ddnn),
            0.8,
            batching=BatchingPolicy(max_batch_size=4, max_wait_s=0.0),
        )

    def answers(host):
        return [(r.prediction, r.exit_index, r.entropy) for r in host.serve_dataset(tiny_test)]

    hosts = [fabric(), fabric()]
    assert hosts[0].tiers[0].workers[0].plans is not hosts[1].tiers[0].workers[0].plans
    served = [None, None]

    def serve(index):
        served[index] = answers(hosts[index])

    threads = [threading.Thread(target=serve, args=(index,)) for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    expected = answers(fabric())
    assert served == [expected, expected]


def test_a_retrained_model_gets_a_fresh_bundle_on_the_same_deployment(
    untrained_ddnn, tiny_train, tiny_test
):
    model = untrained_ddnn
    deployment = PartitionPlan(model).materialize()
    views = tiny_test.images[:6]

    def build():
        fabric = DistributedServingFabric(deployment, 0.8)
        return fabric, fabric.tiers[0].workers[0].plans

    def final_logits(bundle):
        return bundle.forward(views).exit_logits[-1].copy()

    _, first = build()
    stale = final_logits(first)
    # Every epoch replaces the model's plans, and so the deployment's bundle.
    DDNNTrainer(model, TrainingConfig(epochs=1, batch_size=32, seed=0)).fit(tiny_train)
    fabric, trained = build()
    assert trained is not first
    fresh = final_logits(compile_ddnn(model))
    assert not np.array_equal(stale, fresh)
    np.testing.assert_array_equal(final_logits(trained), fresh)

    # It answers as a fabric on a deployment of its own, which compiles afresh.
    alone = DistributedServingFabric(PartitionPlan(model).materialize(), 0.8)
    answers = []
    for host in (fabric, alone):
        host.submit_many(list(views))
        host.run_until_idle(drain=True)
        ordered = sorted(host.responses, key=lambda response: response.request_id)
        answers.append([(response.prediction, response.entropy) for response in ordered])
    assert len(answers[0]) == len(views) and answers[0] == answers[1]

    # Weights changed by hand and declared: the live fabric serves them as
    # a fresh one does, on the deployment's new bundle.
    for parameter in model.parameters():
        parameter.data *= -1.0
    model._weights_changed()
    _, flipped = build()
    assert flipped is not trained
    assert flipped.cloud.head.ops == compiled_plan_for(model).cloud.head.ops
    np.testing.assert_array_equal(final_logits(flipped), final_logits(compile_ddnn(model)))
    again = []
    for host in (fabric, DistributedServingFabric(PartitionPlan(model).materialize(), 0.8)):
        again.append([(r.prediction, r.entropy) for r in host.serve_dataset(tiny_test)])
    assert fabric.tiers[0].workers[0].plans is flipped
    assert again[0] == again[1]


def test_thread_workers_own_distinct_bundles(trained_ddnn):
    fabric = DistributedServingFabric(
        PartitionPlan(trained_ddnn).materialize(),
        0.8,
        workers_per_tier=[2, 3],
        backend="thread",
    )
    try:
        for tier in fabric.tiers:
            assert len({id(worker.plans) for worker in tier.workers}) == len(tier.workers)
        # Slot w of every tier draws from one pool: three bundles in all.
        assert len({id(bundle) for bundle in _bundles(fabric)}) == 3
        fabric._resize_tier(0, 4, now=0.0)
        devices = [worker.plans for worker in fabric.tiers[0].workers]
        assert len({id(bundle) for bundle in devices}) == 4
    finally:
        fabric.close()


# --------------------------------------------------------------------------- #
# Shedding computes only the first exit
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("edges", [False, True], ids=["devices-cloud", "edge-topology"])
def test_first_exit_logits_equal_the_full_forward(trained_ddnn, tiny_test, edges):
    model = _edge_model() if edges else trained_ddnn
    views = tiny_test.images[:6]
    with no_grad():
        eager = model.first_exit_logits(views).data
        full = model(views).exit_logits[0].data
    np.testing.assert_array_equal(eager, full)
    bundle = compile_ddnn(model)
    first = bundle.first_exit_logits(views).copy()
    np.testing.assert_array_equal(first, bundle.forward(views).exit_logits[0])


def _cloud_calls(bundle):
    plans = (bundle.cloud.features, bundle.cloud.head)
    return [timing.calls for plan in plans for timing in plan.op_timings()]


@pytest.mark.parametrize("surface", ["fabric", "server"])
def test_a_shed_runs_no_cloud_plan(trained_ddnn, tiny_test, surface):
    views = list(tiny_test.images[:6])
    batching = BatchingPolicy(max_batch_size=1, max_wait_s=0.0)
    if surface == "fabric":
        host = DistributedServingFabric(
            PartitionPlan(trained_ddnn).materialize(),
            0.8,
            batching=batching,
            capacity=1,
            admission=ShedToLocalExit(),
        )
    else:
        host = DDNNServer(
            trained_ddnn, 0.8, policy=batching, capacity=1, admission=ShedToLocalExit()
        )
    bundle = compiled_plan_for(trained_ddnn)
    bundle.reset_timing()
    bundle.enable_timing()
    try:
        before = _cloud_calls(bundle)
        ids = host.submit_many(views)
        host.run_until_idle(drain=True)  # its workers run bundles of their own
        shed = [response for response in host.responses if response.shed]
        assert shed
        assert _cloud_calls(bundle) == before
        assert bundle.device_group.features.op_timings()[0].calls >= len(shed)
    finally:
        bundle.disable_timing()
        bundle.reset_timing()

    # A shed answer is the first exit's decision on a whole forward of its sample.
    for response in shed:
        views_of_one = views[ids.index(response.request_id)][None]
        expected = ExitCriterion(0.8).evaluate(bundle.forward(views_of_one).exit_logits[0])
        assert response.prediction == expected.predictions[0]
        assert response.entropy == expected.entropies[0]
