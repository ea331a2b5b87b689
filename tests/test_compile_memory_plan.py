"""The compiled stack's memory plan and the grouped device tier (PR 20).

Covers capacity-sized arenas (one set of buffers across batch sizes, borders
intact after growth), the batch passes of a plan (a forward equals itself at
any pass size), the three convolution strategies across the geometry grid in
every precision mode, the grouped device program against the per-branch
plans, the "valid until the next forward" output lifetime, and the compiled
exit logits of the benchmark's ``ci`` model against recorded values.

``python tests/test_compile_memory_plan.py --record`` rewrites
``tests/data/ci_parent_logits.npz`` from whatever ``repro`` is importable (it
was last run, with one BLAS thread, when BatchNorm stopped being folded
into compiled weights, which moved the logits by ulps onto the eager
model's);
``--canary`` exits non-zero when this host's BLAS does not round like the
recording host's, i.e. when the exact-logits test would skip.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compile import CompiledPlan, compile_ddnn, compile_plan, verify_compiled
from repro.compile.ddnn import CompiledBranch
from repro.compile.ops import Arena, CompileError, ConvOp
from repro.core.config import DDNNConfig
from repro.core.ddnn import build_ddnn
from repro.datasets import mvmc
from repro.experiments.runner import ci_scale
from repro.nn import functional as F
from repro.nn.blocks import ConvPBlock
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.nn.serialization import load_module
from repro.nn.tensor import Tensor, no_grad

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "data" / "ci_parent_logits.npz"
RNG = np.random.default_rng(29)

GEOMETRY = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 2)]
PRECISIONS = ("float64", "float32", "bitpacked")


def eager_forward(module, x: np.ndarray) -> np.ndarray:
    module.eval()
    with no_grad():
        return module(Tensor(x)).data


def small_passes(monkeypatch, nbytes: int) -> None:
    """Shrink the pass budget so small test inputs run in several passes."""
    monkeypatch.setattr("repro.compile.plan._IM2COL_BLOCK_BYTES", nbytes)


# --------------------------------------------------------------------------- #
# Convolution strategies across the geometry grid
# --------------------------------------------------------------------------- #
class TestConvGeometry:
    @pytest.mark.parametrize("stride,padding", GEOMETRY)
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_binary_block_bit_identical_to_eager(self, stride, padding, precision, monkeypatch):
        """Conv -> pool -> BatchNorm -> sign, the unit every DDNN section is
        made of: whatever strategy the conv takes (row runs for padded
        stride 1, window gather otherwise), the block's ±1 output equals
        eager's bit for bit — at batch sizes that are and are not a multiple
        of the pass size."""
        small_passes(monkeypatch, 8 << 10)
        block = ConvPBlock(3, 4, binary=True, rng=RNG)
        block.conv.stride, block.conv.padding = stride, padding
        warm = RNG.normal(size=(6, 3, 14, 14))
        block.train()
        with no_grad():
            block(Tensor(warm))
        plan = compile_plan(Sequential(block), precision=precision)
        for batch in (1, 5, 6):
            x = RNG.normal(size=(batch, 3, 14, 14))
            np.testing.assert_array_equal(plan(x), eager_forward(block, x))
        assert plan._arena.capacity < 5  # batch 5 and 6 took several passes

    @pytest.mark.parametrize("stride,padding", GEOMETRY)
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_raw_conv_matches_eager(self, stride, padding, precision):
        """The conv's own float output: equal to eager up to the rounding of
        BLAS edge kernels (the row-run GEMM is wider than eager's)."""
        conv = Conv2d(3, 5, kernel_size=3, stride=stride, padding=padding, rng=RNG)
        x = RNG.normal(size=(4, 3, 12, 12))
        tolerance = 1e-4 if precision == "float32" else 1e-12
        np.testing.assert_allclose(
            compile_plan(conv, precision=precision)(x),
            eager_forward(conv, x),
            rtol=tolerance,
            atol=tolerance,
        )

    @pytest.mark.parametrize("kernel", [(3, 5), (5, 2), (1, 3)])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_non_square_kernels(self, kernel, padding):
        """Built as ops (the layers only make square kernels): row runs and
        the window gather both index height and width separately."""
        weight = RNG.normal(size=(4, 3) + kernel)
        bias = RNG.normal(size=4)
        x = RNG.normal(size=(3, 3, 9, 11))
        op = ConvOp(weight, bias, stride=1, padding=padding)
        arena = Arena()
        arena.reserve(len(x))
        out = op.run(x[None], op.prepare((1,) + x.shape, arena, key=0))[0]
        with no_grad():
            expected = F.conv2d(Tensor(x), Tensor(weight), Tensor(bias), stride=1, padding=padding)
        np.testing.assert_allclose(out, expected.data, rtol=1e-12, atol=1e-12)

    def test_shift_add_strategy_matches_eager(self):
        conv = Conv2d(8, 3, kernel_size=3, stride=1, padding=1, rng=RNG)  # out < in
        plan = compile_plan(conv)
        assert plan.ops[0]._shift_add
        x = RNG.normal(size=(5, 8, 10, 10))
        np.testing.assert_allclose(plan(x), eager_forward(conv, x), rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------- #
# Capacity-sized arena, batch passes, output lifetime
# --------------------------------------------------------------------------- #
def _conv_pool_stack():
    return Sequential(
        Conv2d(2, 3, kernel_size=3, padding=1, rng=RNG), ReLU(), MaxPool2d(3, stride=2, padding=1)
    )


class TestArena:
    def test_growth_mid_stream_keeps_borders(self):
        """A batch larger than any before re-sizes the arena; the re-made
        padded buffers still carry 0 (conv) / -inf (max pool) borders and
        smaller batches afterwards run on their leading rows."""
        stack = _conv_pool_stack()
        plan = compile_plan(stack)
        for batch in (2, 5, 3, 1, 5):
            x = RNG.normal(size=(batch, 2, 9, 9))
            np.testing.assert_allclose(
                plan(x), eager_forward(stack, x), rtol=1e-12, atol=1e-12
            )
        assert plan._arena.capacity == 5
        # Keys are ((op index, name), per-sample shape, dtype): conv is op 0.
        pads = sorted(
            (key[0][0], buffer)
            for key, buffer in plan._arena._buffers.items()
            if key[0][1] == "pad"
        )
        assert [index for index, _ in pads] == [0, 1]
        for (_, buffer), fill in zip(pads, (0.0, -np.inf)):
            for edge in (buffer[..., 0, :], buffer[..., -1, :], buffer[..., :, 0], buffer[..., :, -1]):
                assert (edge == fill).all()

    def test_one_set_of_buffers_for_every_batch_size(self):
        plan = compile_plan(_conv_pool_stack())
        plan(RNG.normal(size=(8, 2, 9, 9)))
        held = plan.arena_bytes()
        for batch in range(1, 9):
            plan(RNG.normal(size=(batch, 2, 9, 9)))
        assert plan.arena_bytes() == held

    def test_forward_is_independent_of_the_pass_size(self, monkeypatch):
        stack = _conv_pool_stack()
        x = RNG.normal(size=(7, 2, 9, 9))
        whole = compile_plan(stack)(x).copy()
        small_passes(monkeypatch, 8 << 10)
        plan = compile_plan(stack)
        np.testing.assert_array_equal(plan(x), whole)
        # The arena only ever holds one pass; the whole-batch result is extra.
        assert plan._arena.capacity < 7

    def test_a_float_linear_layer_keeps_the_batch_in_one_pass(self, monkeypatch):
        """A linear GEMM has the batch as its rows, so splitting it could
        change last bits: conv -> flatten -> linear runs unsplit however
        small the pass budget, and equals the whole-batch forward."""
        stack = Sequential(
            Conv2d(2, 3, kernel_size=3, padding=1, rng=RNG), Flatten(), Linear(3 * 9 * 9, 4, rng=RNG)
        )
        x = RNG.normal(size=(7, 2, 9, 9))
        whole = compile_plan(stack)(x).copy()
        small_passes(monkeypatch, 8 << 10)
        plan = compile_plan(stack)
        np.testing.assert_array_equal(plan(x), whole)
        assert plan._arena.capacity == 7

    def test_ddnn_arena_after_batches_1_to_8_is_that_of_batch_8(self, trained_ddnn, tiny_test):
        views = np.concatenate([tiny_test.images] * 2)[:8]
        alone = compile_ddnn(trained_ddnn)
        alone(views)
        served = compile_ddnn(trained_ddnn)
        for batch in range(1, 9):
            served(views[:batch])
        assert served.arena_bytes() <= 1.25 * alone.arena_bytes()

    def test_outputs_live_until_the_next_forward(self, trained_ddnn, tiny_test):
        """Interleaved batch sizes through one bundle: every result, copied
        before the next forward, equals a fresh bundle's — and a result that
        was *not* copied is overwritten by the next forward."""
        views = np.concatenate([tiny_test.images] * 8)[:64]
        bundle = compile_ddnn(trained_ddnn)
        for batch in (1, 8, 3, 64, 1):
            output = bundle(views[:batch])
            kept = [np.array(logits) for logits in output.exit_logits]
            fresh = compile_ddnn(trained_ddnn)(views[:batch])
            for mine, theirs in zip(kept, fresh.exit_logits):
                np.testing.assert_array_equal(mine, theirs)
        first = bundle(views[:1]).final_logits  # a view into the cloud head's buffer
        before = first.copy()
        bundle(views[8:16])
        assert not np.array_equal(first, before)


# --------------------------------------------------------------------------- #
# The grouped device program
# --------------------------------------------------------------------------- #
class TestGroupedDeviceTier:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_group_equals_the_per_branch_plans(self, trained_ddnn, tiny_test, precision):
        views = np.concatenate([tiny_test.images] * 2)[:7]
        branches = [
            CompiledBranch(branch, precision=precision)
            for branch in trained_ddnn.device_branches
        ]
        group = CompiledBranch.stacked(branches)
        features, scores = group(np.moveaxis(views, 1, 0))
        for index, branch in enumerate(branches):
            own_features, own_scores = branch(views[:, index])
            if precision == "float32":
                np.testing.assert_allclose(features[index], own_features, rtol=1e-4, atol=1e-4)
                np.testing.assert_allclose(scores[index], own_scores, rtol=1e-4, atol=1e-4)
            else:
                np.testing.assert_array_equal(features[index], own_features)
                np.testing.assert_array_equal(scores[index], own_scores)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_compiled_ddnn_runs_the_group_and_keeps_its_contract(
        self, trained_ddnn, tiny_test, precision
    ):
        compiled = compile_ddnn(trained_ddnn, precision=precision)
        assert len(compiled.plans()) == 4  # device features/classifier, cloud features/head
        verify_compiled(trained_ddnn, compiled, tiny_test.images, precision=precision)

    def test_multi_block_branches_stack_their_conv_ops(self):
        config = DDNNConfig(
            num_devices=3, input_size=16, device_filters=4, device_conv_blocks=2, seed=5
        )
        model = build_ddnn(config)
        model.eval()
        views = RNG.normal(size=(5, 3, config.input_channels, 16, 16))
        compiled = compile_ddnn(model, precision="float64")
        group_ops = compiled.device_group.features.ops
        assert sum(isinstance(op, ConvOp) for op in group_ops) == 2
        with no_grad():
            eager = model(views)
        for mine, theirs in zip(compiled(views).exit_logits, eager.exit_logits):
            np.testing.assert_array_equal(mine, theirs.data)

    def test_structurally_different_plans_do_not_stack(self, trained_ddnn):
        features = CompiledBranch(trained_ddnn.device_branches[0]).features
        wider = compile_plan(ConvPBlock(3, 5, binary=True, rng=RNG))
        for odd in (compile_plan(Sequential(Flatten())), wider):
            with pytest.raises(CompileError):
                CompiledPlan.stacked([features, odd])


# --------------------------------------------------------------------------- #
# The benchmark's ci model against the parent commit
# --------------------------------------------------------------------------- #
def _blas_canary() -> np.ndarray:
    """A GEMM of the shape of the ci model's first conv, the one float GEMM
    left in its compiled forward (every later exit GEMM is an exact ±1
    sum): equal bits here and at recording time mean the same BLAS kernels
    did the rounding."""
    rng = np.random.default_rng(0)
    return (rng.standard_normal((4, 27)) @ rng.standard_normal((27, 67))).ravel()


def _ci_logits() -> dict:
    scale = ci_scale()
    model = load_module(
        build_ddnn(scale.ddnn_config()), ROOT / "bench" / "weights" / "ci-mpcc.npz"
    )
    model.eval()
    _, test = mvmc.load_mvmc_splits(
        train_samples=scale.train_samples,
        test_samples=scale.test_samples,
        profiles=mvmc.DEFAULT_DEVICE_PROFILES[: scale.num_devices],
        seed=scale.data_seed,
    )
    logits = {"canary": _blas_canary()}
    for precision in ("float64", "bitpacked"):
        compiled = compile_ddnn(model, precision=precision)
        for batch in (1, 7, 8, 64):
            output = compiled(test.images[:batch])
            logits[f"{precision}_b{batch}"] = np.stack(
                [np.array(exit_logits) for exit_logits in output.exit_logits]
            )
    return logits


def _same_blas_as_recorded() -> bool:
    return np.array_equal(_blas_canary(), np.load(RECORDED)["canary"])


def test_ci_model_logits_equal_the_parent_commits():
    """fp64 and bitpacked exit logits at batch 1, 7, 8 and 64 are
    bit-identical to the parent commit's.  That can only be asked where the
    same BLAS kernels round as at recording time (the canary): anywhere else
    the logits are held to 1e-9 and the test reports itself skipped, so the
    weaker check is never mistaken for the exact one."""
    recorded = np.load(RECORDED)
    current = _ci_logits()
    same_blas = np.array_equal(current.pop("canary"), recorded["canary"])
    for name, logits in current.items():
        if same_blas:
            np.testing.assert_array_equal(logits, recorded[name], err_msg=name)
        else:
            np.testing.assert_allclose(
                logits, recorded[name], rtol=1e-9, atol=1e-9, err_msg=name
            )
    if not same_blas:
        pytest.skip(
            "BLAS canary differs from the recording host's: logits checked to "
            "1e-9 only, bit equality with the parent commit NOT checked"
        )


if __name__ == "__main__":
    if sys.argv[1:] == ["--canary"]:
        # CI's pinned-BLAS step runs this first: a red step instead of a
        # silently weaker test when the runner's BLAS is not the recorded one.
        sys.exit(
            None
            if _same_blas_as_recorded()
            else "BLAS canary differs from tests/data/ci_parent_logits.npz: the "
            "exact-logits test would skip; re-record on this image from PR 20's parent"
        )
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    np.savez_compressed(RECORDED, **_ci_logits())
