"""Regression: inference-time forwards must never record an autograd graph.

The eager inference entry points — ``ExitOracle.capture(compile=False)``
and the baselines — must run their forwards under ``no_grad()``, and the
compiled serving surfaces — ``DDNNServer``'s whole-cascade tier, its
shed-to-local fast path, ``HierarchyRuntime`` and the fabric on either
worker backend — must not build a ``Tensor`` at all.  A graph recorded at inference time leaks memory
linearly in the request count, which is fatal for a long-lived server, so
this is pinned by spying on the forwards and on ``Tensor`` construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.individual import IndividualDeviceModel
from repro.core.ddnn import DDNN, build_ddnn
from repro.core.oracle import ExitOracle
from repro.hierarchy.partition import partition_ddnn
from repro.hierarchy.runtime import HierarchyRuntime
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.serving import (
    BatchingPolicy,
    DDNNServer,
    DistributedServingFabric,
    admission_policy,
)


@pytest.fixture()
def model():
    return build_ddnn(
        num_devices=2, device_filters=2, cloud_filters=4, cloud_conv_blocks=1,
        cloud_hidden_units=0, seed=0,
    )


@pytest.fixture()
def views(model):
    rng = np.random.default_rng(0)
    return rng.normal(size=(6, model.config.num_devices, 3, 32, 32))


@pytest.fixture()
def forward_spy(monkeypatch):
    """Record (grad_enabled, output) for every DDNN forward call."""
    records = []
    original = DDNN.forward

    def spy(self, inputs):
        output = original(self, inputs)
        records.append((is_grad_enabled(), output))
        return output

    monkeypatch.setattr(DDNN, "forward", spy)
    return records


def _assert_graph_free(records):
    assert records, "spy recorded no forwards"
    for grad_enabled, output in records:
        assert not grad_enabled, "inference forward ran with autograd enabled"
        for logits in output.exit_logits:
            assert not logits.requires_grad
            assert logits._parents == ()
            assert logits._backward is None


def test_oracle_capture_records_no_graph(model, views, forward_spy):
    ExitOracle.capture(model, views, batch_size=3, compile=False).route(0.8)
    _assert_graph_free(forward_spy)


def test_individual_baseline_predict_records_no_graph():
    baseline = IndividualDeviceModel(filters=2, seed=0)
    flags = []
    original = baseline.classifier.forward

    def spy(inputs, _original=original):
        flags.append((is_grad_enabled(), inputs.requires_grad, inputs._parents))
        return _original(inputs)

    baseline.classifier.forward = spy
    baseline.predict(np.random.default_rng(1).normal(size=(4, 3, 32, 32)))
    assert flags
    for grad_enabled, requires_grad, parents in flags:
        assert not grad_enabled
        assert not requires_grad
        assert parents == ()


def _dataset(views):
    from repro.datasets.mvmc import DEFAULT_DEVICE_PROFILES, MVMCDataset

    return MVMCDataset(
        images=np.clip(views, 0.0, 1.0),
        labels=np.zeros(len(views), dtype=np.int64),
        device_labels=np.zeros(views.shape[:2], dtype=np.int64),
        profiles=DEFAULT_DEVICE_PROFILES[: views.shape[1]],
    )


@pytest.mark.parametrize("surface", ["server", "shed", "runtime", "fabric", "thread"])
def test_compiled_serving_never_touches_tensors(model, views, monkeypatch, surface):
    """No serving surface constructs autograd Tensors once its plans exist."""
    close = None
    if surface == "runtime":
        runtime = HierarchyRuntime(partition_ddnn(model), 0.8, batch_size=4)
        dataset = _dataset(views)

        def serve():
            return runtime.run(dataset).predictions.tolist()

    elif surface in ("fabric", "thread"):
        fabric = DistributedServingFabric(
            partition_ddnn(model),
            0.8,
            workers_per_tier=2,
            batching=BatchingPolicy(max_batch_size=4, max_wait_s=0.0),
            backend="thread" if surface == "thread" else "simulated",
        )
        dataset = _dataset(views)

        def serve():
            return [response.prediction for response in fabric.serve_dataset(dataset)]

        close = fabric.close

    else:
        shed = surface == "shed"
        server = DDNNServer(
            model,
            0.8,
            policy=BatchingPolicy(max_batch_size=4, max_wait_s=0.0),
            capacity=1 if shed else None,
            admission=admission_policy("shed-local") if shed else None,
        )

        def serve():
            first = server.submit_many(list(views), client_id="spy")[0]
            answered = [r for r in server.run_until_idle() if r.request_id >= first]
            assert sum(response.shed for response in answered) == shed * 5
            return [r.prediction for r in sorted(answered, key=lambda r: r.request_id)]

    constructed = []
    original_init = Tensor.__init__

    def spy(self, data, requires_grad=False, name=None):
        constructed.append(1)
        original_init(self, data, requires_grad=requires_grad, name=name)

    # Compile (and warm the plans) first, then watch the serving loop.
    try:
        answers = serve()
        monkeypatch.setattr(Tensor, "__init__", spy)
        assert serve() == answers
    finally:
        if close is not None:
            close()
    assert not constructed, "compiled serving built autograd Tensors"
