"""Every inference entry point answers alike at any batch shape.

The blocks are eBNN blocks (Fig. 3): each exit's GEMM is an exact ±1
integer sum and its BatchNorm replays the eager ops, so no answer depends on
how many rows shared a forward.  Oracle (compiled and eager), offline
runtime, server and fabric (simulated and thread) must equal the eager
oracle over the whole split byte for byte, at thresholds that include
observed entropies (a sample exactly on its exit's boundary).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DDNNConfig,
    DDNNTopology,
    DDNNTrainer,
    ExitOracle,
    TrainingConfig,
    build_ddnn,
)
from repro.hierarchy import HierarchyRuntime, partition_ddnn
from repro.serving import BatchingPolicy, DDNNServer, DistributedServingFabric


@pytest.fixture(scope="module")
def references(trained_ddnn, tiny_train, tiny_test):
    """``{topology: (model, eager oracle over the whole test split)}``."""
    edge = build_ddnn(
        DDNNConfig(
            num_devices=4,
            device_filters=2,
            cloud_filters=4,
            edge_filters=3,
            cloud_hidden_units=8,
            topology=DDNNTopology.from_name("devices_edge_cloud"),
            seed=5,
        )
    )
    DDNNTrainer(edge, TrainingConfig(epochs=2, batch_size=32, seed=0)).fit(tiny_train)
    edge.eval()
    return {
        name: (model, ExitOracle.capture(model, tiny_test, compile=False))
        for name, model in (("devices-cloud", trained_ddnn), ("devices-edge-cloud", edge))
    }


def _routed(result):
    return result.predictions, result.exit_indices, result.entropies


def _served(responses):
    """``(predictions, exit indices, entropies)`` in request order."""
    responses = sorted(responses, key=lambda response: response.request_id)
    return tuple(
        np.array([getattr(response, name) for response in responses])
        for name in ("prediction", "exit_index", "entropy")
    )


def _answers(model, dataset, thresholds, batch):
    """Every entry point's ``(predictions, exit indices, entropies)`` at
    batches of ``batch``, by name."""
    simulated = BatchingPolicy(max_batch_size=batch, max_wait_s=0.0)
    answers = {}
    for compile in (True, False):
        oracle = ExitOracle.capture(model, dataset, batch_size=batch, compile=compile)
        answers[f"oracle compile={compile}"] = _routed(oracle.route(thresholds))
    runtime = HierarchyRuntime(partition_ddnn(model), thresholds, batch_size=batch)
    answers["runtime"] = _routed(runtime.run(dataset))
    server = DDNNServer(model, thresholds, policy=simulated)
    answers["server"] = _served(server.serve_dataset(dataset))
    # On the wall clock, a batch holds whatever arrived within its wait.
    for backend, batching in (
        ("simulated", simulated),
        ("thread", BatchingPolicy(max_batch_size=batch)),
    ):
        with DistributedServingFabric(
            partition_ddnn(model),
            thresholds,
            workers_per_tier=2,
            batching=batching,
            backend=backend,
        ) as fabric:
            answers[f"fabric {backend}"] = _served(fabric.serve_dataset(dataset))
    return answers


@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize("topology", ["devices-cloud", "devices-edge-cloud"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_every_entry_point_answers_alike_at_any_batch(
    references, tiny_test, topology, batch, data
):
    model, reference = references[topology]
    # Per non-final exit: a free threshold, or an entropy the reference
    # observed, which puts that sample on the boundary (capped at 1.0: a
    # uniform row's entropy is a few ulps above it).
    thresholds = [
        data.draw(
            st.one_of(
                st.floats(0.0, 1.0),
                st.sampled_from(np.minimum(reference.entropies[index], 1.0).tolist()),
            ),
            label=f"threshold {name}",
        )
        for index, name in enumerate(model.exit_names[:-1])
    ] + [1.0]
    expected = _routed(reference.route(thresholds))
    for name, answer in _answers(model, tiny_test, thresholds, batch).items():
        for field, got, want in zip(("predictions", "exits", "entropies"), answer, expected):
            np.testing.assert_array_equal(got, want, err_msg=f"{name}: {field}")


@pytest.mark.parametrize("value", [-1, 0, 2.5, True])
@pytest.mark.parametrize("entry", ["ExitOracle.capture", "HierarchyRuntime"])
def test_batch_size_must_be_an_int_of_at_least_one(trained_ddnn, tiny_test, entry, value):
    with pytest.raises(ValueError, match="batch_size"):
        if entry == "ExitOracle.capture":
            ExitOracle.capture(trained_ddnn, tiny_test, batch_size=value)
        else:
            HierarchyRuntime(partition_ddnn(trained_ddnn), 0.8, batch_size=value)
