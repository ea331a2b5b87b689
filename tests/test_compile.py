"""Compiled-vs-eager equivalence for the repro.compile inference plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.compile import (
    CompileError,
    CompiledPlan,
    compile_ddnn,
    compile_plan,
    compiled_plan_for,
    verify_compiled,
)
from repro.compile import plan
from repro.core.config import DDNNTopology
from repro.core.ddnn import build_ddnn
from repro.core.oracle import ExitOracle
from repro.nn.binary import BinaryActivation, BinaryConv2d, BinaryLinear
from repro.nn.blocks import ConvPBlock, FCBlock
from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor, no_grad

RNG = np.random.default_rng(11)


def eager_forward(module, x: np.ndarray) -> np.ndarray:
    module.eval()
    with no_grad():
        return module(Tensor(x)).data


def warm_batch_norm(module, x: np.ndarray, passes: int = 3) -> None:
    """Give every BatchNorm non-trivial running statistics."""
    module.train()
    with no_grad():
        for _ in range(passes):
            module(Tensor(x + RNG.normal(scale=0.5, size=x.shape)))
    module.eval()


# --------------------------------------------------------------------------- #
# Single-stack plans
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 2)])
def test_conv_plan_matches_eager_across_geometry(stride, padding):
    conv = Conv2d(3, 5, kernel_size=3, stride=stride, padding=padding, rng=RNG)
    x = RNG.normal(size=(4, 3, 12, 12))
    plan = compile_plan(conv)
    np.testing.assert_allclose(plan(x), eager_forward(conv, x), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stride,padding", [(2, 0), (2, 1), (3, 1)])
def test_max_pool_plan_matches_eager(stride, padding):
    pool = MaxPool2d(3, stride=stride, padding=padding)
    x = RNG.normal(size=(3, 4, 11, 11))
    plan = compile_plan(pool)
    np.testing.assert_array_equal(plan(x), eager_forward(pool, x))


def test_conv_bn_relu_lowers_to_conv_then_batch_norm():
    """A BatchNorm with no sign behind it is never folded into the conv's
    weights: it runs as its own op after the conv, with the ReLU fused into
    it, and replays the eager arithmetic bit for bit."""
    stack = Sequential(
        Conv2d(3, 6, kernel_size=3, stride=1, padding=0, rng=RNG),
        BatchNorm2d(6),
        ReLU(),
    )
    x = RNG.normal(size=(6, 3, 10, 10))
    warm_batch_norm(stack, x)
    assert not np.allclose(stack[1].running_mean, 0.0)
    assert not np.allclose(stack[1].running_var, 1.0)
    # make gamma/beta non-trivial too
    stack[1].gamma.data = RNG.normal(loc=1.0, scale=0.3, size=6)
    stack[1].beta.data = RNG.normal(scale=0.2, size=6)

    plan = compile_plan(stack)
    assert [type(op).__name__ for op in plan.ops] == ["ConvOp", "BatchNormOp"]
    assert plan.ops[1].relu
    np.testing.assert_array_equal(plan(x), eager_forward(stack, x))


def test_linear_bn_relu_lowers_to_linear_then_batch_norm():
    stack = Sequential(Linear(12, 7, rng=RNG), BatchNorm1d(7), ReLU())
    x = RNG.normal(size=(9, 12))
    warm_batch_norm(stack, x)
    stack[1].gamma.data = RNG.normal(loc=1.0, scale=0.3, size=7)
    stack[1].beta.data = RNG.normal(scale=0.2, size=7)

    plan = compile_plan(stack)
    assert [type(op).__name__ for op in plan.ops] == ["LinearOp", "BatchNormOp"]
    assert plan.ops[1].relu
    np.testing.assert_array_equal(plan(x), eager_forward(stack, x))


def test_fused_blocks_match_eager_bit_for_bit():
    """Binary ConvP/FC blocks keep the exact eager arithmetic (sign-safe)."""
    stack = Sequential(ConvPBlock(3, 4, binary=True, rng=RNG))
    x = RNG.normal(size=(5, 3, 16, 16))
    warm_batch_norm(stack, x)
    plan = compile_plan(stack)
    np.testing.assert_array_equal(plan(x), eager_forward(stack, x))

    fc = FCBlock(10, 6, binary=True, final=False, rng=RNG)
    vec = RNG.normal(size=(7, 10))
    warm_batch_norm(fc, vec)
    fc_plan = compile_plan(fc)
    np.testing.assert_array_equal(fc_plan(vec), eager_forward(fc, vec))


def test_tail_less_linear_and_flatten_plans_match_eager():
    stack = Sequential(Linear(5, 5, rng=RNG), Linear(5, 4, rng=RNG), Flatten())
    x = RNG.normal(size=(3, 5))
    plan = compile_plan(stack)
    assert [type(op).__name__ for op in plan.ops] == ["LinearOp", "LinearOp", "FlattenOp"]
    np.testing.assert_allclose(plan(x), eager_forward(stack, x), rtol=1e-12, atol=1e-12)


def test_plan_replans_on_batch_shape_change():
    stack = Sequential(Conv2d(2, 3, kernel_size=3, padding=1, rng=RNG), ReLU())
    plan = compile_plan(stack)
    for batch in (4, 1, 6, 1):
        x = RNG.normal(size=(batch, 2, 9, 9))
        np.testing.assert_allclose(plan(x), eager_forward(stack, x), rtol=1e-12, atol=1e-12)
        assert plan._planned_shape == x.shape


def test_unsupported_module_raises_compile_error():
    class Weird(Module):
        def forward(self, inputs):
            return inputs

    with pytest.raises(CompileError) as error:
        CompiledPlan(Weird())
    message = str(error.value)
    assert "cannot compile module of type Weird" in message
    supported = message.split("supported: ", 1)[1].split(", ")
    assert supported == [cls.__name__ for cls in plan._SUPPORTED_MODULES]


def test_every_nn_module_is_supported_and_compiles():
    one_of_each = [
        Sequential(Linear(3, 2)),
        ConvPBlock(1, 2),
        FCBlock(3, 2),
        Conv2d(1, 2),
        BinaryConv2d(1, 2),
        Linear(3, 2),
        BinaryLinear(3, 2),
        BatchNorm1d(2),
        BatchNorm2d(2),
        MaxPool2d(2),
        ReLU(),
        BinaryActivation(),
        Flatten(),
    ]
    nn_modules = {
        obj
        for obj in vars(nn).values()
        if isinstance(obj, type) and issubclass(obj, Module) and obj is not Module
    }
    assert [type(module) for module in one_of_each] == list(plan._SUPPORTED_MODULES)
    assert set(plan._SUPPORTED_MODULES) == nn_modules
    for module in one_of_each:
        CompiledPlan(module)


# --------------------------------------------------------------------------- #
# Whole-model compilation
# --------------------------------------------------------------------------- #
def _warmed_model(**overrides):
    defaults = dict(
        num_devices=3,
        device_filters=4,
        cloud_filters=8,
        cloud_conv_blocks=2,
        cloud_hidden_units=16,
        seed=0,
    )
    defaults.update(overrides)
    model = build_ddnn(**defaults)
    views = RNG.normal(size=(6, model.config.num_devices, 3, 32, 32))
    model.train()
    with no_grad():
        for _ in range(2):
            model(views + RNG.normal(scale=0.3, size=views.shape))
    model.eval()
    return model, views


def test_compiled_ddnn_logits_allclose_fp32():
    model, views = _warmed_model()
    compiled = compile_ddnn(model)
    worst = verify_compiled(model, compiled, views, rtol=1e-5, atol=1e-6)
    assert worst < 1e-6


def test_compiled_ddnn_batch_size_one():
    model, views = _warmed_model()
    compiled = compile_ddnn(model)
    assert verify_compiled(model, compiled, views[:1]) < 1e-6


def test_compiled_ddnn_edge_topology():
    model, views = _warmed_model(
        num_devices=4,
        topology=DDNNTopology.from_name("devices_edges_cloud", num_edges=2),
        cloud_conv_blocks=1,
        cloud_hidden_units=8,
    )
    compiled = compile_ddnn(model)
    assert verify_compiled(model, compiled, views) < 1e-6
    assert compiled.exit_names == ["local", "edge", "cloud"]


def test_compiled_ddnn_mixed_precision_cloud():
    model, views = _warmed_model(binary_cloud=False)
    compiled = compile_ddnn(model)
    assert verify_compiled(model, compiled, views) < 1e-6


def test_routing_decisions_byte_identical_through_the_oracle():
    model, views = _warmed_model()
    eager = ExitOracle.capture(model, views, batch_size=4, compile=False)
    fast = ExitOracle.capture(model, views, batch_size=4, compile=True)
    routed_eager, routed_fast = eager.route([0.5, 1.0]), fast.route([0.5, 1.0])
    np.testing.assert_array_equal(routed_eager.predictions, routed_fast.predictions)
    np.testing.assert_array_equal(routed_eager.exit_indices, routed_fast.exit_indices)
    np.testing.assert_array_equal(eager.predictions, fast.predictions)


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
def test_routing_identical_across_thresholds_and_batch_sizes(threshold):
    model, views = _warmed_model()
    for batch_size in (1, 3, 16):
        eager = ExitOracle.capture(model, views, batch_size=batch_size, compile=False)
        fast = ExitOracle.capture(model, views, batch_size=batch_size, compile=True)
        eager, fast = eager.route(threshold), fast.route(threshold)
        np.testing.assert_array_equal(eager.predictions, fast.predictions)
        np.testing.assert_array_equal(eager.exit_indices, fast.exit_indices)
        np.testing.assert_array_equal(eager.entropies, fast.entropies)


def test_the_models_plan_follows_its_weights():
    model, views = _warmed_model()
    first = compiled_plan_for(model)
    assert compiled_plan_for(model) is first
    model.train()
    with no_grad():
        model(views)  # moves the BatchNorm running statistics in place
    model.eval()
    model._weights_changed()
    fresh = compiled_plan_for(model)
    assert fresh is not first
    np.testing.assert_array_equal(
        fresh(views).final_logits, compile_ddnn(model)(views).final_logits
    )


def test_arena_keeps_buffers_per_batch_shape():
    """Alternating batch shapes must re-bind, not re-allocate, buffers."""
    stack = Sequential(Conv2d(2, 3, kernel_size=3, padding=1, rng=RNG), ReLU())
    plan = compile_plan(stack)
    big = RNG.normal(size=(8, 2, 9, 9))
    small = RNG.normal(size=(1, 2, 9, 9))
    plan(big)
    plan(small)
    allocated = len(plan._arena._buffers)
    # A server-style interleave of shapes re-plans but allocates nothing new.
    for _ in range(3):
        np.testing.assert_allclose(plan(big), eager_forward(stack, big), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(plan(small), eager_forward(stack, small), rtol=1e-12, atol=1e-12)
    assert len(plan._arena._buffers) == allocated


def test_hierarchy_runtime_scopes_compiled_attachment_to_run():
    """The compiled bundle lives with each run's fabric, keyed by the
    deployment: a run never mutates the deployment's nodes, so runtimes
    can alternate over one deployment and stay equivalent."""
    from repro.datasets.mvmc import DEFAULT_DEVICE_PROFILES, MVMCDataset
    from repro.hierarchy.partition import partition_ddnn
    from repro.hierarchy.runtime import HierarchyRuntime

    model, views = _warmed_model()
    dataset = MVMCDataset(
        images=np.clip(views, 0.0, 1.0),
        labels=np.zeros(len(views), dtype=np.int64),
        device_labels=np.zeros((len(views), views.shape[1]), dtype=np.int64),
        profiles=DEFAULT_DEVICE_PROFILES[: views.shape[1]],
    )
    deployment = partition_ddnn(model)
    first = HierarchyRuntime(deployment, 0.8)
    second = HierarchyRuntime(deployment, 0.8)

    nodes = [
        *deployment.devices,
        deployment.local_aggregator,
        *deployment.edges,
        deployment.cloud,
    ]
    before = [dict(vars(node)) for node in nodes]
    first_result = first.run(dataset)
    # A run selects its plan bundle without touching any node.
    assert [dict(vars(node)) for node in nodes] == before
    second_result = second.run(dataset)
    np.testing.assert_array_equal(first_result.predictions, second_result.predictions)
    assert first_result.exit_names_per_sample == second_result.exit_names_per_sample


class TestPlanTiming:
    def _plan(self):
        conv = Conv2d(3, 4, kernel_size=3, padding=1, rng=RNG)
        return compile_plan(Sequential(conv, ReLU(), MaxPool2d(2)))

    def test_disabled_by_default(self):
        plan = self._plan()
        plan(RNG.standard_normal((2, 3, 8, 8)))
        assert plan.total_time_s == 0.0
        assert all(t.calls == 0 for t in plan.op_timings())

    def test_accumulates_per_op_and_resets(self):
        plan = self._plan()
        plan.enable_timing()
        x = RNG.standard_normal((2, 3, 8, 8))
        plan(x)
        plan(x)
        timings = plan.op_timings()
        assert len(timings) == len(plan.ops)
        assert all(t.calls == 2 for t in timings)
        assert plan.total_time_s > 0.0
        assert plan.total_time_s == pytest.approx(sum(t.total_s for t in timings))
        assert all(t.mean_s == pytest.approx(t.total_s / 2) for t in timings)
        plan.reset_timing()
        assert plan.total_time_s == 0.0
        plan.disable_timing()
        plan(x)
        assert plan.total_time_s == 0.0

    def test_compiled_ddnn_aggregates_all_plans(self):
        model, views = _warmed_model()
        compiled = compile_ddnn(model)
        compiled.enable_timing()
        compiled(views)
        timings = compiled.op_timings()
        assert timings and all(t.calls == 1 for t in timings)
        assert compiled.total_time_s == pytest.approx(sum(t.total_s for t in timings))
        # Every sub-plan contributed (device branches + cloud tier).
        assert {t.plan for t in timings} >= {"device-features", "cloud-head"}
        compiled.reset_timing()
        assert compiled.total_time_s == 0.0

    def test_service_model_calibration_from_plan_timings(self):
        from repro.serving import ServiceModel

        model, views = _warmed_model()
        fitted = ServiceModel.from_plan_timings(model, views[0], batch_size=4, repeats=2)
        assert fitted.per_sample_s > 0.0
        assert fitted.batch_overhead_s >= 0.0
        assert fitted.batch_time_s(4) > fitted.batch_time_s(1)
        # Timing is switched back off afterwards.
        compiled = compiled_plan_for(model)
        before = compiled.total_time_s
        compiled(views)
        assert compiled.total_time_s == before
