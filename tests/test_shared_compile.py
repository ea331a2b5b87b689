"""One compile per model, precision and weights version, whatever serves it.

A simulated deployment's bundle and every thread worker's bundle are
:meth:`CompiledDDNN.with_own_buffers` copies of the model's own float64 plan
(:func:`compiled_plan_for`): they hold its op objects — weights, BatchNorm
statistics, sign thresholds — and own their arenas; so does a bundle made
of the model's plan at another precision.  These tests hold them to
that: shared ops, separate outputs, the logits of an independent compile bit
for bit, concurrent use, and — on a fabric built before the change — the
new weights after a retrain or a weights load.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.compile import compile_ddnn
from repro.compile.cache import compiled_plan_for
from repro.core import DDNNConfig, DDNNTopology, DDNNTrainer, TrainingConfig, build_ddnn
from repro.core.oracle import ExitOracle
from repro.hierarchy import HierarchyRuntime, PartitionPlan, partition_ddnn
from repro.nn.serialization import load_module, save_module
from repro.serving import DistributedServingFabric, LoadBalancer


def _thread_bundle(model):
    """A thread worker's bundle (the fabric is closed; the bundle stays usable)."""
    fabric = DistributedServingFabric(PartitionPlan(model).materialize(), 0.8, backend="thread")
    try:
        return fabric.tiers[0].workers[0].plans
    finally:
        fabric.close()


def _bundles(model, precision):
    """``{"deployment": ..., "thread": ...}`` for ``model`` at ``"float64"``,
    the only mode serving runs; at another mode, the bundle the compile
    layer makes of the model's plan (``{"own": ...}``)."""
    if precision != "float64":
        return {"own": compiled_plan_for(model, precision).with_own_buffers()}
    return {
        "deployment": PartitionPlan(model).materialize()._bundle(),
        "thread": _thread_bundle(model),
    }


def _views(tiny_train, batch):
    return tiny_train.images[:batch]


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_bundles_share_the_process_plans_ops_and_own_their_arenas(trained_ddnn, precision):
    shared = compiled_plan_for(trained_ddnn, precision)
    for kind, bundle in _bundles(trained_ddnn, precision).items():
        assert bundle is not shared, kind
        assert bundle.local_aggregator is shared.local_aggregator, kind
        for own, theirs in zip(bundle.plans(), shared.plans(), strict=True):
            assert own is not theirs, kind
            assert all(a is b for a, b in zip(own.ops, theirs.ops, strict=True)), kind
            assert own._arena is not theirs._arena, kind
            assert own._programs is not theirs._programs, kind


def test_a_forward_on_one_bundle_leaves_anothers_output_intact(trained_ddnn, tiny_train):
    shared = compiled_plan_for(trained_ddnn)
    bundles = dict(_bundles(trained_ddnn, "float64"), shared=shared)
    views = _views(tiny_train, 8)
    for name, bundle in bundles.items():
        for other, neighbour in bundles.items():
            if other == name:
                continue
            live = bundle.forward(views[:4]).exit_logits
            kept = [logits.copy() for logits in live]
            neighbour.forward(views[4:])  # overwrites only its own buffers
            for logits, copy in zip(live, kept):
                np.testing.assert_array_equal(logits, copy, err_msg=f"{other} -> {name}")


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


@pytest.mark.parametrize("edges", [False, True], ids=["devices-cloud", "edge-topology"])
@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_bundles_answer_as_an_independent_compile(trained_ddnn, tiny_train, precision, edges):
    model = _edge_model() if edges else trained_ddnn
    reference = compile_ddnn(model, precision=precision)
    bundles = _bundles(model, precision)
    shared = compiled_plan_for(model, precision)
    for bundle in bundles.values():
        assert len(bundle.plans()) == len(shared.plans()) == (8 if edges else 4)  # two edge tiers
        for own, theirs in zip(bundle.plans(), shared.plans()):
            assert own.ops == theirs.ops and own._arena is not theirs._arena
    for batch in (1, 7, 8, 64):
        views = _views(tiny_train, batch)
        expected = [logits.copy() for logits in reference.forward(views).exit_logits]
        for kind, bundle in bundles.items():
            for name, logits, want in zip(
                reference.exit_names, bundle.forward(views).exit_logits, expected
            ):
                np.testing.assert_array_equal(logits, want, err_msg=f"{kind} {name} b{batch}")


def test_bundles_on_more_threads_than_cores_match_a_serial_run(trained_ddnn, tiny_train):
    """Four bundles over one set of ops — two deployments' and two thread
    workers' — forwarded from four threads with a short switch interval:
    every answer equals a serial run's (a bundle that wrote into another's
    buffers, or an op that kept per-call state, would break it)."""
    fabric = DistributedServingFabric(
        PartitionPlan(trained_ddnn).materialize(), 0.8, workers_per_tier=2, backend="thread"
    )
    fabric.close()
    bundles = [PartitionPlan(trained_ddnn).materialize()._bundle() for _ in range(2)] + [
        worker.plans for worker in fabric.tiers[0].workers
    ]
    assert len({id(bundle) for bundle in bundles}) == 4
    batches = [_views(tiny_train, 64)[start : start + 8] for start in range(0, 64, 8)]
    serial = compile_ddnn(trained_ddnn)
    expected = [serial.forward(views).final_logits.copy() for views in batches] * 4
    answers = [[] for _ in bundles]

    def serve(index):
        for views in batches * 4:
            answers[index].append(bundles[index].forward(views).final_logits.copy())

    threads = [threading.Thread(target=serve, args=(index,)) for index in range(len(bundles))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for answer in answers:
        assert len(answer) == len(expected)
        for got, want in zip(answer, expected):
            np.testing.assert_array_equal(got, want)


def _answers(responses):
    """Every answer's prediction, exit and entropy bytes, in sample order."""
    return [
        (r.prediction, r.exit_index, np.float64(r.entropy).tobytes()) for r in responses
    ]


def _retrain(model, tiny_train, trained_ddnn, tmp_path):
    DDNNTrainer(model, TrainingConfig(epochs=1, batch_size=32, seed=0)).fit(tiny_train)


def _load(model, tiny_train, trained_ddnn, tmp_path):
    path = tmp_path / "weights.npz"
    save_module(trained_ddnn, path)
    load_module(model, path)


@pytest.mark.parametrize("change", [_retrain, _load], ids=["fit", "load_module"])
@pytest.mark.parametrize("backend", ["simulated", "thread"])
def test_a_live_fabric_serves_the_weights_the_model_has_now(
    untrained_ddnn, trained_ddnn, tiny_train, tiny_test, tmp_path, backend, change
):
    """The stale-bundle seed: a fabric built and served on before the
    weights change answers afterwards exactly as one built after it, and no
    longer as before — nobody invalidates anything by hand."""
    model = untrained_ddnn

    def fabric():
        return DistributedServingFabric(PartitionPlan(model).materialize(), 0.8, backend=backend)

    with fabric() as live:
        before = _answers(live.serve_dataset(tiny_test))
        change(model, tiny_train, trained_ddnn, tmp_path)
        model.eval()
        after = _answers(live.serve_dataset(tiny_test))
    with fabric() as fresh:
        expected = _answers(fresh.serve_dataset(tiny_test))
    assert after == expected
    assert after != before


def test_runtimes_and_replicas_built_before_a_retrain_answer_as_fresh_ones(
    untrained_ddnn, trained_ddnn, tiny_train, tiny_test, tmp_path
):
    model = untrained_ddnn
    runtime = HierarchyRuntime(partition_ddnn(model), 0.8)
    balancer = LoadBalancer.from_plan(PartitionPlan(model, replicas=2), 0.8)
    runtime.run(tiny_test)
    for replica in balancer.replicas:
        replica.serve_dataset(tiny_test)
    _retrain(model, tiny_train, trained_ddnn, tmp_path)
    expected = HierarchyRuntime(partition_ddnn(model), 0.8).run(tiny_test)
    np.testing.assert_array_equal(runtime.run(tiny_test).entropies, expected.entropies)
    fresh = _answers(DistributedServingFabric(partition_ddnn(model), 0.8).serve_dataset(tiny_test))
    for replica in balancer.replicas:
        assert _answers(replica.serve_dataset(tiny_test)) == fresh


@pytest.mark.parametrize("backend", ["simulated", "thread"])
def test_one_compile_per_weights_version_across_fabrics_and_workers(
    untrained_ddnn, tiny_train, tiny_test, backend, monkeypatch
):
    """Two fabrics with two workers a tier over one model compile it once
    per weights version; each deployment makes one bundle per version."""
    import repro.compile.ddnn as compiled

    builds = []
    real = compiled.compile_ddnn
    monkeypatch.setattr(
        compiled, "compile_ddnn", lambda *a, **k: builds.append(1) or real(*a, **k)
    )
    model = untrained_ddnn.eval()
    deployments = [PartitionPlan(model).materialize() for _ in range(2)]
    fabrics = [
        DistributedServingFabric(d, 0.8, workers_per_tier=2, backend=backend) for d in deployments
    ]
    try:
        for fabric in fabrics:
            fabric.serve_dataset(tiny_test)
        assert len(builds) == 1
        held = {id(w.plans) for f in fabrics for t in f.tiers for w in t.workers}
        assert len(held) == (2 if backend == "simulated" else 4)
        DDNNTrainer(model, TrainingConfig(epochs=1, batch_size=32, seed=0)).fit(tiny_train)
        model.eval()
        for fabric in fabrics:
            fabric.serve_dataset(tiny_test)
            fabric.serve_dataset(tiny_test)
        assert len(builds) == 2
        version = model._weights_version
        for deployment, fabric in zip(deployments, fabrics):
            for tier in fabric.tiers:
                served = tier.workers[0].plans  # the worker every batch went to
                assert served.weights_version == version
                if backend == "simulated":
                    assert served is deployment._bundle()
                else:
                    assert len({id(w.plans) for w in tier.workers}) == len(tier.workers)
    finally:
        for fabric in fabrics:
            fabric.close()


def test_loading_weights_replaces_the_compiled_plans(untrained_ddnn, trained_ddnn, tiny_test, tmp_path):
    """A weights load through ``load_module``: the plan compiled before the
    load must not answer after it."""
    model = untrained_ddnn
    stale = compiled_plan_for(model)
    ExitOracle.capture(model, tiny_test)  # the stale plan has run
    path = tmp_path / "weights.npz"
    save_module(trained_ddnn, path)
    load_module(model, path)
    assert compiled_plan_for(model) is not stale
    compiled = ExitOracle.capture(model, tiny_test).route(0.5)
    eager = ExitOracle.capture(model, tiny_test, compile=False).route(0.5)
    np.testing.assert_array_equal(compiled.exit_indices, eager.exit_indices)
    np.testing.assert_array_equal(compiled.predictions, eager.predictions)
    for name, predictions in eager.exit_predictions.items():
        np.testing.assert_array_equal(compiled.exit_predictions[name], predictions, err_msg=name)
