"""The compiled binary block: exact sign thresholds, bool pooling, group tiles.

A binary block's tail — ``[max-pool ->] BatchNorm -> sign`` — compiles to one
comparison against per-channel thresholds found by bisection on the eager
arithmetic itself (:func:`repro.compile.ops.sign_thresholds`), hoisted above
the pool, which then ORs booleans.  Covered here: the thresholds reproduce
the eager chain bit for bit at and around the step (property test), the fused
block equals eager over the conv/pool geometry grid on real and ±1 inputs (both
the contiguous and the strided binding of its buffers), and a plan's
``(group range, batch range)`` tiles change nothing but the memory it holds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import CompiledPlan, compile_ddnn, compile_plan, verify_compiled
from repro.compile.ops import CompileError, sign_thresholds
from repro.core.ddnn import build_ddnn
from repro.nn.binary import BinaryActivation
from repro.nn.blocks import ConvPBlock, FCBlock
from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor, no_grad

RNG = np.random.default_rng(41)
TOP = np.finfo(np.float64).max


def eager_forward(module, x: np.ndarray) -> np.ndarray:
    module.eval()
    with no_grad():
        return module(Tensor(x)).data


def randomise_batch_norm(bn, negative_every: int = 2) -> None:
    """Non-trivial running statistics and affine terms, with every
    ``negative_every``-th channel's gamma negative (a falling step)."""
    count = bn.num_features
    bn._set_buffer("running_mean", RNG.normal(size=count))
    bn._set_buffer("running_var", RNG.uniform(0.3, 2.0, size=count))
    gamma = RNG.uniform(0.5, 1.5, size=count)
    gamma[::negative_every] *= -1.0
    bn.gamma.data = gamma
    bn.beta.data = RNG.normal(scale=0.5, size=count)


# --------------------------------------------------------------------------- #
# (a) The threshold search against the eager chain
# --------------------------------------------------------------------------- #
SCALES = st.sampled_from([1e-300, 1e-120, 1e-8, 1.0, 1e8, 1e120, 1e300])
SIGNED = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


def scaled(values=SIGNED):
    return st.builds(lambda value, scale: value * scale, values, SCALES)


CHANNEL = st.fixed_dictionaries(
    {
        "bias": scaled(),
        "mean": scaled(),
        # sqrt(var) is the divisor: keep var finite and positive.
        "std": st.builds(
            lambda value, scale: value * scale,
            st.floats(min_value=0.25, max_value=8.0),
            st.sampled_from([1e-120, 1e-8, 1.0, 1e8, 1e120]),
        ),
        "gamma": st.one_of(scaled(), st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324])),
        "beta": st.one_of(scaled(), st.sampled_from([0.0, -0.0])),
    }
)


def eager_chain(x: np.ndarray, bias, bn) -> tuple:
    """``(±1 output, pre-sign values)`` of the eager layers for ``(N, C)``
    raw GEMM outputs: bias add, BatchNorm1d, BinaryActivation."""
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        pre = bn(Tensor(x if bias is None else x + bias))
        return BinaryActivation()(pre).data, pre.data


@settings(max_examples=150, deadline=None)
@given(
    channels=st.lists(CHANNEL, min_size=1, max_size=5),
    with_bias=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_thresholds_reproduce_the_eager_chain_bit_for_bit(channels, with_bias, seed):
    column = {name: np.array([channel[name] for channel in channels]) for name in channels[0]}
    bias = column["bias"] if with_bias else None
    bn = BatchNorm1d(len(channels))
    bn.eps = 0.0
    bn._set_buffer("running_mean", column["mean"])
    bn._set_buffer("running_var", column["std"] ** 2)
    bn.gamma.data, bn.beta.data = column["gamma"], column["beta"]
    bn.eval()
    std = np.sqrt(bn.running_var + bn.eps)

    threshold, flipped = sign_thresholds(bias, bn.running_mean, std, bn.gamma.data, bn.beta.data)

    # Probe every channel at its step, one and two ulps to either side, at
    # both zeros, at the ends of the range and at random magnitudes.
    around = [threshold]
    for direction in (-np.inf, np.inf):
        one = np.nextafter(threshold, direction)
        around += [one, np.nextafter(one, direction)]
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(-300, 300, size=(24, len(channels)))
    probes = np.concatenate(
        [
            np.stack(around),
            np.full((1, len(channels)), 0.0),
            np.full((1, len(channels)), -0.0),
            np.full((1, len(channels)), TOP),
            np.full((1, len(channels)), -TOP),
            magnitudes * rng.choice([-1.0, 1.0], size=magnitudes.shape),
            np.abs(column["mean"]) * rng.normal(size=(8, len(channels))),
        ]
    )
    expected, pre = eager_chain(probes, bias, bn)
    fused = np.where((probes >= threshold) ^ flipped, 1.0, -1.0)
    # Compiled plans are specified for finite inputs whose eager arithmetic
    # stays defined: inf * 0 (gamma == 0 after an overflow) is not.
    defined = np.isfinite(probes) & ~np.isnan(pre)
    np.testing.assert_array_equal(fused[defined], expected[defined])
    assert defined[:5].any(axis=0).all() or not np.isfinite(threshold).all()


def test_threshold_orientation_and_constant_channels():
    """gamma > 0 rises, gamma < 0 falls (flipped), gamma == 0 is the sign of
    beta whatever x; -0.0 counts as non-negative throughout."""
    mean = np.zeros(6)
    std = np.ones(6)
    gamma = np.array([2.0, -2.0, 0.0, 0.0, -0.0, 1.0])
    beta = np.array([1.0, 1.0, -0.0, -1.0, 3.0, -0.0])
    threshold, flipped = sign_thresholds(None, mean, std, gamma, beta)
    assert flipped.tolist() == [False, True, False, False, False, False]
    assert threshold[0] == -0.5 and threshold[1] == np.nextafter(0.5, np.inf)
    assert threshold[2] == -np.inf and threshold[3] == np.inf and threshold[4] == -np.inf
    assert threshold[5] == 0.0 and np.signbit(threshold[5])  # -0.0: both zeros pass


# --------------------------------------------------------------------------- #
# (b) The fused block against eager over the geometry grid
# --------------------------------------------------------------------------- #
CONV_GEOMETRY = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 2)]
POOL_GEOMETRY = [(2, 2, 0), (3, 2, 1), (3, 1, 1)]


def binary_block(in_channels: int, stride: int, padding: int, pool) -> ConvPBlock:
    block = ConvPBlock(in_channels, 5, binary=True, rng=RNG)
    block.conv.stride, block.conv.padding = stride, padding
    block.pool = MaxPool2d(pool[0], stride=pool[1], padding=pool[2])
    randomise_batch_norm(block.batch_norm)
    return block


def binds_the_grid_contiguously(plan) -> bool:
    """Whether the (single) program of ``plan`` compares its conv's whole
    GEMM grid straight into the pool's padded buffer."""
    ((_, context),) = next(iter(plan._programs.values()))
    return context.sign.source is not None


class TestFusedBlockGeometry:
    @pytest.mark.parametrize("pool", POOL_GEOMETRY)
    @pytest.mark.parametrize("stride,padding", CONV_GEOMETRY)
    @pytest.mark.parametrize("signed", [False, True], ids=["real", "sign"])
    def test_conv_pool_block_bit_identical_to_eager(self, stride, padding, pool, signed):
        block = binary_block(3, stride, padding, pool)
        plan = compile_plan(block)
        assert [type(op).__name__ for op in plan.ops] == ["ConvOp"]
        for batch in (1, 4):
            x = RNG.normal(size=(batch, 3, 13, 15))
            if signed:
                x = np.where(x >= 0, 1.0, -1.0)
            np.testing.assert_array_equal(plan(x), eager_forward(block, x))
        # The conv grid's pitch equals the pool's padded pitch on the row-run
        # path under a pool padded by (kernel - 1) / 2, and wherever neither
        # has a margin; every other geometry runs on strided views.
        row_run = stride == 1 and padding > 0
        assert binds_the_grid_contiguously(plan) == (pool[2] == (1 if row_run else 0))

    @pytest.mark.parametrize("pool", POOL_GEOMETRY)
    def test_shift_add_conv_block(self, pool):
        block = binary_block(8, 1, 1, pool)  # out_channels < in_channels
        plan = compile_plan(block)
        assert plan.ops[0]._shift_add
        x = RNG.normal(size=(3, 8, 10, 12))
        np.testing.assert_array_equal(plan(x), eager_forward(block, x))

    @pytest.mark.parametrize("signed", [False, True], ids=["real", "sign"])
    def test_fc_block_bit_identical_to_eager(self, signed):
        block = FCBlock(37, 9, binary=True, rng=RNG)
        randomise_batch_norm(block.batch_norm)
        plan = compile_plan(block)
        assert [type(op).__name__ for op in plan.ops] == ["LinearOp"]
        x = RNG.normal(size=(6, 37))
        if signed:
            x = np.where(x >= 0, 1.0, -1.0)
        np.testing.assert_array_equal(plan(x), eager_forward(block, x))

    def test_conv_without_a_pool_and_a_tail_without_a_producer(self):
        """conv -> BatchNorm -> sign folds the same way with nothing to pool;
        behind anything else (here a ReLU, then a float max pool) the tail
        stands alone as a SignOp on the BatchNorm's thresholds."""
        block = binary_block(3, 1, 1, (3, 2, 1))
        no_pool = Sequential(block.conv, block.batch_norm, block.activation)
        x = RNG.normal(size=(4, 3, 9, 9))
        plan = compile_plan(no_pool)
        assert [type(op).__name__ for op in plan.ops] == ["ConvOp"]
        np.testing.assert_array_equal(plan(x), eager_forward(no_pool, x))

        bn = BatchNorm2d(3)
        randomise_batch_norm(bn)
        alone = Sequential(ReLU(), MaxPool2d(3, stride=2, padding=1), bn, BinaryActivation())
        plan = compile_plan(alone)
        assert [type(op).__name__ for op in plan.ops] == ["ReluOp", "MaxPoolOp", "SignOp"]
        np.testing.assert_array_equal(plan(x), eager_forward(alone, x))

    def test_zeros_and_subnormals_sit_on_the_right_side_of_the_step(self):
        """A threshold at exactly zero: both zeros are non-negative, the
        smallest subnormals are not both."""
        bn = BatchNorm1d(4)
        bn.eps = 0.0
        bn.gamma.data = np.array([1.0, -1.0, 1.0, -1.0])
        bn.beta.data = np.array([0.0, 0.0, -0.0, -0.0])
        tail = Sequential(bn, BinaryActivation())
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([[0.0] * 4, [-0.0] * 4, [tiny] * 4, [-tiny] * 4, [1.0] * 4, [-1.0] * 4])
        np.testing.assert_array_equal(compile_plan(tail)(x), eager_forward(tail, x))

    def test_float32_keeps_its_contract_with_falling_channels(self, tiny_config, tiny_test):
        """fp32 compares against the float64-derived thresholds cast down,
        under its unchanged tolerance contract."""
        model = build_ddnn(tiny_config)
        for module in model.modules():
            if isinstance(module, (BatchNorm1d, BatchNorm2d)):
                randomise_batch_norm(module, negative_every=3)
        model.eval()
        for precision in ("float32", "float64", "bitpacked"):
            verify_compiled(
                model, compile_ddnn(model, precision=precision), tiny_test.images, precision=precision
            )


# --------------------------------------------------------------------------- #
# (c) Tiles: group ranges as well as batch ranges
# --------------------------------------------------------------------------- #
GROUPS = 6


def group_stacks(with_linear: bool) -> list:
    """Six structurally identical stacks with their own weights."""
    stacks = []
    for _ in range(GROUPS):
        block = ConvPBlock(2, 3, binary=True, rng=RNG)
        randomise_batch_norm(block.batch_norm)
        stack = [block]
        if with_linear:
            stack += [Flatten(), Linear(3 * 6 * 6, 4, rng=RNG)]
        stacks.append(Sequential(*stack))
    return stacks


def grouped_plan(stacks) -> CompiledPlan:
    return CompiledPlan.stacked([compile_plan(stack) for stack in stacks])


class TestGroupRangeTiles:
    BUDGET = 72 << 10  # one 12x12 image takes 32 KB, a sample of all six groups 190 KB

    @pytest.mark.parametrize("with_linear", [False, True], ids=["conv", "conv+linear"])
    def test_tiles_equal_one_pass_bit_for_bit(self, with_linear, monkeypatch):
        stacks = group_stacks(with_linear)
        whole, tiled = grouped_plan(stacks), grouped_plan(stacks)
        for batch in (1, 7, 8, 64):
            x = RNG.normal(size=(GROUPS, batch, 2, 12, 12))
            monkeypatch.setattr("repro.compile.plan._IM2COL_BLOCK_BYTES", 1 << 30)
            expected = whole(x).copy()
            assert len(whole._programs) == 1  # one tile holds everything
            monkeypatch.setattr("repro.compile.plan._IM2COL_BLOCK_BYTES", self.BUDGET)
            np.testing.assert_array_equal(tiled(x), expected)
            tile_groups, tile_batch = tiled._tile(x.shape)
            # A sample of all groups exceeds the budget: two images fit, or —
            # a float linear layer keeps the batch whole — one group's batch.
            assert (tile_groups, tile_batch) == ((2, 1) if not with_linear or batch == 1 else (1, batch))
        first_groups = {first for _, first in tiled._programs}
        assert len(first_groups) == -(-GROUPS // tile_groups) > 1
        if not with_linear:
            assert tiled._arena.nbytes() <= 1.25 * self.BUDGET
            assert tiled.arena_bytes() == tiled._arena.nbytes() + tiled._outputs.nbytes()

    def test_a_sample_that_fits_is_one_tile_of_every_group(self):
        plan = grouped_plan(group_stacks(with_linear=False))
        x = RNG.normal(size=(GROUPS, 3, 2, 12, 12))
        plan(x)
        assert plan._tile(x.shape)[0] == GROUPS
        assert list(plan._programs) == [(x.shape, 0)]

    def test_group_count_is_checked(self):
        plan = grouped_plan(group_stacks(with_linear=False))
        with pytest.raises(CompileError):
            plan(RNG.normal(size=(GROUPS - 1, 2, 2, 12, 12)))
