"""Precision compute modes of the compiled inference stack (PR 9).

Covers the mode guarantees (float64 exact, float32 tolerance-with-
routing-agreement, and ``"bitpacked"`` as a second name for the float64
plan), oracle-vs-runtime parity, the dtype-keyed plan cache, and precision
validation in the compile layer's consumers (plan cache, oracle).  Serving
runs ``"float64"`` plans only, so no serving object takes a mode.

``python tests/test_compile_precision.py --fp32-speedup`` prints the fp32
kernel reference's speed-up over fp64 (see the test of that name).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compile import (
    PRECISIONS,
    compile_ddnn,
    compile_plan,
    compiled_plan_for,
    precision_dtype,
    routing_agreement,
    verify_compiled,
)
from repro.core.ddnn import build_ddnn
from repro.core.oracle import ExitOracle
from repro.experiments.runner import ci_scale
from repro.hierarchy import HierarchyRuntime, partition_ddnn
from repro.nn import BinaryActivation, BinaryConv2d, BinaryLinear
from repro.nn.layers import Flatten, Sequential
from repro.nn.tensor import Tensor, no_grad

RNG = np.random.default_rng(23)


def eager_forward(module, x: np.ndarray) -> np.ndarray:
    module.eval()
    with no_grad():
        return module(Tensor(x)).data


def sign_input(shape) -> np.ndarray:
    """A ±1 input array."""
    return np.where(RNG.random(shape) < 0.5, -1.0, 1.0)


# --------------------------------------------------------------------------- #
# Mode plumbing basics
# --------------------------------------------------------------------------- #
class TestPrecisionDtypes:
    def test_modes_and_carrier_dtypes(self):
        assert PRECISIONS == ("float64", "float32", "bitpacked")
        assert precision_dtype("float64") == np.float64
        assert precision_dtype("float32") == np.float32
        # bitpacked is another name for the float64 plan.
        assert precision_dtype("bitpacked") == np.float64

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown precision"):
            precision_dtype("float16")

    def test_plan_buffers_use_mode_dtype(self):
        conv = BinaryConv2d(2, 3, kernel_size=3, padding=1, rng=RNG)
        x = sign_input((2, 2, 8, 8))
        for mode in PRECISIONS:
            plan = compile_plan(Sequential(conv), precision=mode)
            assert plan(x).dtype == precision_dtype(mode)


def test_bitpacked_compiles_the_float64_ops():
    """``"bitpacked"`` compiles the ``ci`` model to exactly the ops the
    float64 plan has, op for op: one float GEMM per ±1 layer."""
    model = build_ddnn(ci_scale().ddnn_config())
    packed = compile_ddnn(model, precision="bitpacked")
    exact = compile_ddnn(model, precision="float64")
    signatures = [
        [[op.signature() for op in plan.ops] for plan in compiled.plans()]
        for compiled in (packed, exact)
    ]
    assert signatures[0] == signatures[1]


class TestOneGemmPerLayer:
    def test_sign_chain_is_float_gemms_equal_to_eager(self):
        # sign -> binary conv -> sign -> binary linear: both ±1 x ±1 GEMMs
        # run as float GEMMs and equal the eager chain bit for bit.
        stack = Sequential(
            BinaryConv2d(2, 4, kernel_size=3, padding=1, rng=RNG),
            BinaryActivation(),
            Flatten(),
            BinaryLinear(4 * 8 * 8, 6, rng=RNG),
        )
        plan = compile_plan(stack, precision="bitpacked")
        kinds = [type(op).__name__ for op in plan.ops]
        assert {"ConvOp", "LinearOp"} <= set(kinds)
        assert kinds == [type(op).__name__ for op in compile_plan(stack).ops]
        x = sign_input((2, 2, 8, 8))
        np.testing.assert_array_equal(plan(x), compile_plan(stack, precision="float64")(x))
        np.testing.assert_array_equal(plan(x), eager_forward(stack, x))

    def test_real_valued_input_keeps_the_float64_gemm(self):
        stack = Sequential(BinaryConv2d(3, 4, kernel_size=3, padding=1, rng=RNG))
        plan = compile_plan(stack, precision="bitpacked")
        assert [type(op).__name__ for op in plan.ops] == ["ConvOp"]
        x = RNG.normal(size=(2, 3, 10, 10))
        np.testing.assert_array_equal(plan(x), compile_plan(stack, precision="float64")(x))


# --------------------------------------------------------------------------- #
# verify_compiled: the per-mode guarantees on a real trained DDNN
# --------------------------------------------------------------------------- #
class TestVerifyCompiledModes:
    def test_float64_default_guarantee(self, trained_ddnn, tiny_test):
        compiled = compile_ddnn(trained_ddnn)
        diff = verify_compiled(trained_ddnn, compiled, tiny_test.images)
        assert diff < 1e-6

    def test_float32_tolerance_and_agreement(self, trained_ddnn, tiny_test):
        compiled = compile_ddnn(trained_ddnn, precision="float32")
        diff = verify_compiled(trained_ddnn, compiled, tiny_test.images)
        assert diff < 1e-3  # fp32 tolerance, not fp64 exactness

    def test_bitpacked_verifies_as_float64(self, trained_ddnn, tiny_test):
        compiled = compile_ddnn(trained_ddnn, precision="bitpacked")
        verify_compiled(trained_ddnn, compiled, tiny_test.images)
        reference = compile_ddnn(trained_ddnn, precision="float64")
        packed_out = compiled(tiny_test.images)
        exact_out = reference(tiny_test.images)
        for packed_logits, exact_logits in zip(
            packed_out.exit_logits, exact_out.exit_logits
        ):
            np.testing.assert_array_equal(packed_logits, exact_logits)

    def test_mismatched_precision_argument_rejected(self, trained_ddnn, tiny_test):
        compiled = compile_ddnn(trained_ddnn, precision="float32")
        with pytest.raises(ValueError, match="does not match"):
            verify_compiled(
                trained_ddnn, compiled, tiny_test.images, precision="float64"
            )

    def test_routing_agreement_pooled_grid(self, trained_ddnn, tiny_test):
        logits = np.stack(
            [np.asarray(t.data) for t in _eager_exit_logits(trained_ddnn, tiny_test)]
        )
        assert routing_agreement(logits, logits) == 1.0
        # Flipping one exit's logits hard must drop agreement below 1.
        corrupted = logits.copy()
        corrupted[0] = -corrupted[0]
        assert routing_agreement(logits, corrupted) < 1.0
        with pytest.raises(ValueError, match="same exits"):
            routing_agreement(logits, logits[:-1])


def _eager_exit_logits(model, dataset):
    model.eval()
    with no_grad():
        return model(dataset.images).exit_logits


def _fp32_speedup() -> float:
    """fp64 over fp32 wall time of a float ConvPBlock(3, 48) + (48, 96)
    stack at batch 1.  The two modes' rounds alternate, so a change in host
    load lands on both sides rather than on one, and each mode keeps its
    fastest of nine short rounds."""
    import time

    from repro.nn.blocks import ConvPBlock

    rng = np.random.default_rng(7)
    stack = [ConvPBlock(3, 48, binary=False, rng=rng), ConvPBlock(48, 96, binary=False, rng=rng)]
    x = rng.standard_normal((1, 3, 32, 32))
    plans = {}
    for mode in ("float64", "float32"):
        plans[mode] = compile_plan(stack, name=f"fp32-reference-{mode}", precision=mode)
        plans[mode](x)  # binds the arena program for this shape
    walls = dict.fromkeys(plans, float("inf"))
    for _ in range(9):
        for mode, plan in plans.items():
            started = time.perf_counter()
            for _ in range(10):
                plan(x)
            walls[mode] = min(walls[mode], (time.perf_counter() - started) / 10)
    return walls["float64"] / walls["float32"]


def test_float32_beats_float64_at_the_batch_one_kernel_reference():
    """fp32 kernels must run the stack of :func:`_fp32_speedup` at batch 1
    at least 1.3x faster than fp64.  The stack is wide enough that GEMM and
    memory traffic, not per-op numpy dispatch, set its wall time.  It is
    timed in a child process with BLAS pinned to one thread: on a loaded
    host an unpinned BLAS thread pool waits on its preempted workers (a
    1.5 ms forward then measures 40 ms), which times the scheduler, not
    the kernels."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, __file__, "--fp32-speedup"],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    speedup = float(done.stdout)
    assert speedup >= 1.3, f"fp32 kernel reference only {speedup:.2f}x fp64 at batch 1"


# --------------------------------------------------------------------------- #
# Oracle vs fabric parity
# --------------------------------------------------------------------------- #
class TestOracleFabricParity:
    @pytest.mark.parametrize("threshold", [0.0, 0.8, 1.0])
    def test_oracle_routes_like_the_fabric(self, trained_ddnn, tiny_test, threshold):
        """Every sample to the cloud, a mixed split, and every sample out at
        the local exit: the oracle's replay answers as the hierarchy runtime
        and the serving fabric do."""
        from repro.serving import DistributedServingFabric

        routed = ExitOracle.capture(trained_ddnn, tiny_test).route(threshold)
        runtime = HierarchyRuntime(partition_ddnn(trained_ddnn), threshold)
        result = runtime.run(tiny_test)
        np.testing.assert_array_equal(routed.predictions, result.predictions)
        np.testing.assert_array_equal(routed.exit_indices, result.exit_indices)
        fabric = DistributedServingFabric(partition_ddnn(trained_ddnn), threshold)
        responses = fabric.serve_dataset(tiny_test)
        np.testing.assert_array_equal(
            routed.predictions, [response.prediction for response in responses]
        )
        np.testing.assert_array_equal(
            routed.exit_indices, [response.exit_index for response in responses]
        )

    def test_exact_modes_route_identically_to_eager(self, trained_ddnn, tiny_test):
        eager = ExitOracle.capture(trained_ddnn, tiny_test, compile=False).route(0.8)
        for mode in ("float64", "bitpacked"):
            compiled = ExitOracle.capture(trained_ddnn, tiny_test, precision=mode).route(0.8)
            np.testing.assert_array_equal(eager.predictions, compiled.predictions)
            np.testing.assert_array_equal(eager.exit_indices, compiled.exit_indices)


# --------------------------------------------------------------------------- #
# One plan per (model, precision), kept on the model
# --------------------------------------------------------------------------- #
class TestPlanCachePerPrecision:
    def test_modes_coexist_and_follow_the_weights_together(self, untrained_ddnn, monkeypatch):
        import repro.compile.ddnn as module

        builds = []
        real = module.compile_ddnn

        def counting(model, precision="float64"):
            builds.append(precision)
            return real(model, precision=precision)

        monkeypatch.setattr(module, "compile_ddnn", counting)
        model = untrained_ddnn
        exact = compiled_plan_for(model)
        fp32 = compiled_plan_for(model, "float32")
        assert exact is not fp32
        # Hits: same objects come back, nothing new is compiled.
        assert compiled_plan_for(model) is exact
        assert compiled_plan_for(model, "float32") is fp32
        assert builds == ["float64", "float32"]
        # One weights change replaces every mode's plan for the model.
        model._weights_changed()
        assert compiled_plan_for(model) is not exact
        assert compiled_plan_for(model, "float32") is not fp32
        assert builds == ["float64", "float32"] * 2

    def test_bitpacked_shares_the_float64_plan(self, untrained_ddnn):
        model = untrained_ddnn
        assert compiled_plan_for(model, "bitpacked") is compiled_plan_for(model, "float64")
        assert len(model._compiled_plans) == 1

    def test_cache_rejects_unknown_mode(self, trained_ddnn):
        with pytest.raises(ValueError, match="unknown precision"):
            compiled_plan_for(trained_ddnn, "int8")


# --------------------------------------------------------------------------- #
# Consumer validation: the oracle rejects bad modes loudly
# --------------------------------------------------------------------------- #
class TestConsumerValidation:
    def test_oracle_rejects_unknown_mode(self, trained_ddnn, tiny_test):
        with pytest.raises(ValueError, match="unknown precision"):
            ExitOracle.capture(trained_ddnn, tiny_test, precision="tf32")

    @pytest.mark.parametrize(
        "build",
        [
            "fabric",
            "fabric_from_plan",
            "partition_plan",
            "hierarchy_runtime",
            "server",
            "service_model",
        ],
    )
    def test_serving_objects_take_no_mode(self, trained_ddnn, build):
        """Serving runs the model's ``"float64"`` plan; asking any serving or
        hierarchy object for another mode is an error, not a silent fp64."""
        from repro.hierarchy.plan import PartitionPlan
        from repro.serving import DDNNServer, DistributedServingFabric, ServiceModel

        builders = {
            "fabric": lambda: DistributedServingFabric(
                partition_ddnn(trained_ddnn), 0.8, precision="float32"
            ),
            "fabric_from_plan": lambda: DistributedServingFabric.from_plan(
                PartitionPlan(trained_ddnn), 0.8, precision="float32"
            ),
            "partition_plan": lambda: PartitionPlan(trained_ddnn, precision="float32"),
            "hierarchy_runtime": lambda: HierarchyRuntime(
                partition_ddnn(trained_ddnn), 0.8, precision="float32"
            ),
            "server": lambda: DDNNServer(trained_ddnn, 0.8, precision="float32"),
            "service_model": lambda: ServiceModel(precision="float32"),
        }
        with pytest.raises(TypeError, match="precision"):
            builders[build]()


if __name__ == "__main__":
    if sys.argv[1:] != ["--fp32-speedup"]:
        sys.exit(__doc__)
    print(_fp32_speedup())
