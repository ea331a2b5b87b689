"""One compile per model and precision, whatever serves it.

A simulated deployment's bundle (:func:`~repro.compile.cache.scoped_plan_for`)
and every thread worker's bundle are :meth:`CompiledDDNN.with_own_buffers`
copies of the process-wide plan (:func:`compiled_plan_for`): they hold its op
objects — weights, folded BatchNorm, sign thresholds — and own their arenas.
These tests hold them to that: shared ops, separate outputs, the logits of an
independent compile bit for bit, concurrent use, and fresh weights after a
retrain.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.compile import PRECISIONS, compile_ddnn
from repro.compile.cache import compiled_plan_for, invalidate_plan, scoped_plan_for
from repro.core import DDNNConfig, DDNNTopology, DDNNTrainer, TrainingConfig, build_ddnn
from repro.hierarchy.plan import PartitionPlan
from repro.serving import DistributedServingFabric


def _thread_bundle(model, precision):
    """A thread worker's bundle (the fabric is closed; the bundle stays usable)."""
    fabric = DistributedServingFabric(
        PartitionPlan(model).materialize(), 0.8, backend="thread", precision=precision
    )
    try:
        return fabric.tiers[0].workers[0].plans
    finally:
        fabric.close()


def _bundles(model, precision):
    """``{"scoped": ..., "thread": ...}`` for ``model`` at ``precision``."""
    return {
        "scoped": scoped_plan_for(model, precision, PartitionPlan(model).materialize()),
        "thread": _thread_bundle(model, precision),
    }


def _views(tiny_train, batch):
    return tiny_train.images[:batch]


@pytest.mark.parametrize("precision", PRECISIONS)
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
@pytest.mark.parametrize("precision", PRECISIONS)
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
    bundles = [
        scoped_plan_for(trained_ddnn, "float64", PartitionPlan(trained_ddnn).materialize())
        for _ in range(2)
    ] + [worker.plans for worker in fabric.tiers[0].workers]
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


@pytest.mark.parametrize("backend", ["simulated", "thread"])
def test_after_a_retrain_and_invalidate_the_next_fabric_serves_new_weights(
    untrained_ddnn, tiny_train, backend
):
    """The stale-bundle seed: a fabric built after ``invalidate_plan`` must
    not run the ops compiled from the weights before the retrain."""
    model = untrained_ddnn
    deployment = PartitionPlan(model).materialize()
    views = tiny_train.images[:6]

    def bundle():
        fabric = DistributedServingFabric(deployment, 0.8, backend=backend)
        fabric.close()
        return fabric.tiers[0].workers[0].plans

    stale = bundle()
    before = stale.forward(views).final_logits.copy()
    trainer = DDNNTrainer(model, TrainingConfig(epochs=1, batch_size=32, seed=0))
    trainer.fit(tiny_train)  # trains in place
    invalidate_plan(model)
    fresh = bundle()
    assert fresh.cloud.head.ops[-1] is not stale.cloud.head.ops[-1]
    after = fresh.forward(views).final_logits
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, compile_ddnn(model).forward(views).final_logits)
