"""Raw-``ndarray`` inference kernels and the per-plan buffer arena.

These ops are what a :class:`~repro.compile.plan.CompiledPlan` executes: no
autograd graph, no per-op :class:`~repro.nn.tensor.Tensor` wrapping.  Every
array an op sees has two leading axes, ``(groups, batch, ...)``: a plan
compiled from one module stack has ``groups == 1``, a plan *stacked* from N
structurally identical stacks (the DDNN's device branches) carries N sets
of parameters along the group axis and computes all of them in one pass.
Each op is *prepared* once per input shape — binding views of the plan's
:class:`Arena` into a context — and then *run* once per forward pass against
that context, writing into the pre-allocated buffers (``out=`` everywhere,
in-place epilogues for bias/ReLU/sign).

Memory plan: arena buffers are sized for the largest batch the plan has
run in one pass and a program for a smaller batch binds their leading rows,
so a plan that serves batches of 1..8 owns one set of buffers, not eight
(padded borders are per-image constants, valid under every such view).
Operands that are dead when their op returns — the im2col column matrix,
the shift-add per-position products — are not per-op at all: they are views
of the arena's one scratch block.  The plan keeps a pass small enough that
all of this stays cache-resident (see :class:`~repro.compile.plan.CompiledPlan`,
which owns the one blocking scheme: ``_IM2COL_BLOCK_BYTES`` per pass).

Numerical contract: elementwise ops, pooling, BatchNorm and the linear
layers replay the eager arithmetic bit for bit (same operation order, same
operand layouts handed to BLAS), and so does the window-gather im2col
convolution (strided or unpadded).  Three conv strategies are equivalent to
eager only up to float rounding — BatchNorm folded into the weights,
shift-add, and the *row-run* im2col used for padded stride-1 convolutions,
whose GEMM runs on the padded-width output grid (BLAS edge kernels may
round a column differently depending on where it sits in the matrix).  All
three remain *exact* on the binary interior blocks, whose ±1 arithmetic
stays integral in float64 under any summation order, and the sign that
ends every binary block absorbs last-bit differences in the first.

Precision modes: every op takes a ``dtype`` (float64 by default; float32
halves memory traffic at fp32 tolerance).  :class:`PackedConvOp` /
:class:`PackedLinearOp` are the ``"bitpacked"`` kernels for binary blocks
whose inputs are provably ±1: signs are packed 64-per-word into ``uint64``,
the GEMM becomes XNOR + popcount (``dot = K - 2 * popcount(a ^ b)``), and
zero padding is restored by a per-position integer correction precomputed
at prepare time.  Because ±1 dot products are exact small integers in
float64, the packed kernels are *bit-identical* to the float path — not
merely close.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..nn.functional import conv_output_size, sliding_windows

__all__ = [
    "Arena",
    "CompileError",
    "ConvOp",
    "LinearOp",
    "MaxPoolOp",
    "AvgPoolOp",
    "BatchNormOp",
    "PackedConvOp",
    "PackedLinearOp",
    "ReluOp",
    "SignOp",
    "SigmoidOp",
    "TanhOp",
    "FlattenOp",
    "PRECISIONS",
    "precision_dtype",
]


class CompileError(RuntimeError):
    """A module or module sequence that the plan compiler cannot handle."""


#: Supported compute precision modes for compiled plans, with their
#: documented guarantees (enforced by ``repro.compile.ddnn.verify_compiled``):
#:
#: * ``"float64"`` — the default.  Bit-identical to eager on binary (±1)
#:   blocks and on everything downstream of a sign; within 1e-12 of eager on
#:   a raw float convolution (the row-run GEMM's grid is wider than eager's,
#:   so BLAS may round the last bits of a column differently) and at
#:   float32-level tolerance where BatchNorm was folded.  Routing is
#:   byte-identical to eager as long as no pre-sign value of a float-input
#:   block lies within that last-bit distance of zero — true of every input
#:   the tests and benchmarks replay, not guaranteed by construction.
#: * ``"float32"`` — fp32 weights/buffers/GEMMs; routing agreement >= 99.9%
#:   vs the fp64 oracle, per-exit logits allclose at fp32 tolerance.
#: * ``"bitpacked"`` — float64 carriers everywhere, but binary blocks with
#:   provably-±1 inputs run the uint64 XNOR+popcount GEMM; bit-identical to
#:   the float sign path (±1 dots are exact integers in float64).
PRECISIONS = ("float64", "float32", "bitpacked")

#: Cache-block budget (bytes) for one pass of a plan over a slice of the
#: batch: every buffer the pass touches plus its im2col/shift-add scratch.
_IM2COL_BLOCK_BYTES = 1 << 20


def precision_dtype(precision: str) -> np.dtype:
    """The float carrier dtype of a precision mode (validates the name)."""
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )
    return np.dtype(np.float32 if precision == "float32" else np.float64)


#: Per-byte popcount lookup table for the bitpacked GEMM (fallback when the
#: native ``np.bitwise_count`` ufunc — numpy >= 2.0 — is unavailable).
_POPCOUNT8 = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _popcount_words(xor: np.ndarray, pop: np.ndarray, counts: np.ndarray) -> None:
    """Sum the 1-bits of each row of uint64 words into ``counts``.

    ``xor`` is ``(..., words)`` uint64; ``pop`` is the uint8 scratch —
    ``(..., words)`` with native popcount, ``(..., words * 8)`` (a byte view
    lookup) on the table fallback; ``counts`` is ``(...,)`` int64.  The
    last-axis reduction is unrolled: the word count is tiny (K/64), and a
    handful of full-array adds beats ``np.sum``'s short-axis reduction
    machinery by a wide margin.
    """
    if _HAS_BITWISE_COUNT:
        np.bitwise_count(xor, out=pop)
    else:
        np.take(_POPCOUNT8, xor.view(np.uint8), out=pop)
    np.copyto(counts, pop[..., 0])
    for word in range(1, pop.shape[-1]):
        counts += pop[..., word]


def _popcount_scratch_width(words: int) -> int:
    """Last-axis width of the uint8 popcount scratch for ``words`` words."""
    return words if _HAS_BITWISE_COUNT else words * 8


def _pack_sign_rows(weight_matrix: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pack the signs of a ±1 ``(rows, K)`` matrix into ``(rows, W)`` uint64.

    Bit convention: 1 iff the value is positive.  The byte tail past
    ``ceil(K/8)`` stays zero, so two operands packed this way never disagree
    on the padding bits and the popcount counts mismatches over the valid
    ``K`` positions only.
    """
    rows, k = weight_matrix.shape
    words = max(1, -(-k // 64))
    packed_u8 = np.zeros((rows, words * 8), dtype=np.uint8)
    bits = np.packbits(weight_matrix > 0, axis=-1)
    packed_u8[:, : bits.shape[-1]] = bits
    return packed_u8.view(np.uint64), words


class Arena:
    """Capacity-sized buffer pool owned by one compiled plan.

    Every buffer is requested with a ``(groups, batch, *sample)`` shape and
    allocated once for ``groups * capacity`` samples, where ``capacity`` is
    the largest batch the plan has reserved; the request returns the leading
    ``groups * batch`` samples viewed in the requested shape.  Programs for
    smaller batches therefore share the larger batch's memory instead of
    owning their own, and :meth:`reserve` drops everything when a larger
    batch arrives (the plan then re-prepares its programs — rare: capacity
    only ever grows, and no further than the plan's pass size).

    ``fill`` is applied only on allocation: padded buffers keep their
    constant border (zeros for convolution, ``-inf`` for max pooling)
    because ops only ever overwrite the interior, and the border sits at
    the same offsets of every sample whatever the batch view.  The arena
    carries the plan's float dtype (float64 by default, float32 in fp32
    mode); non-float buffers (sign masks, packed words, popcount bytes)
    request an explicit dtype.

    :meth:`scratch` hands out views of one shared block for operands that
    are dead when their op returns; every op that takes one fills it before
    reading it, so ops (and programs) can alias each other's scratch freely.
    """

    def __init__(self, dtype: np.dtype = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self.capacity = 0
        self._buffers: Dict[object, np.ndarray] = {}
        self._scratch = np.empty(0, dtype=np.uint8)

    def reserve(self, batch: int) -> bool:
        """Make room for ``batch`` samples; true when that dropped the buffers."""
        if batch <= self.capacity:
            return False
        self.capacity = int(batch)
        self._buffers.clear()
        return True

    def buffer(
        self,
        key: object,
        shape: Tuple[int, ...],
        fill: Optional[float] = None,
        dtype: Optional[np.dtype] = None,
    ) -> np.ndarray:
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        groups, batch = shape[:2]
        sample = tuple(shape[2:])
        pool_key = (key, (groups,) + sample, dtype.str)
        buf = self._buffers.get(pool_key)
        if buf is None:
            buf = np.empty((groups * self.capacity,) + sample, dtype=dtype)
            if fill is not None:
                buf.fill(fill)
            self._buffers[pool_key] = buf
        return buf[: groups * batch].reshape(shape)

    def bool_buffer(self, key: object, shape: Tuple[int, ...]) -> np.ndarray:
        return self.buffer(key, shape, dtype=bool)

    def scratch(self, shape: Tuple[int, ...]) -> np.ndarray:
        """An uninitialised float view of the shared scratch block."""
        nbytes = int(np.prod(shape, dtype=np.int64)) * self.dtype.itemsize
        if nbytes > self._scratch.nbytes:
            # Views bound by earlier programs keep the old block alive and
            # stay correct; only the sharing is lost until they re-prepare.
            self._scratch = np.empty(nbytes, dtype=np.uint8)
        return self._scratch[:nbytes].view(self.dtype).reshape(shape)

    def nbytes(self) -> int:
        """Bytes currently held (buffers plus the scratch block)."""
        return self._scratch.nbytes + sum(buf.nbytes for buf in self._buffers.values())


def _window_position_slices(source: np.ndarray, kernel: int, stride: int) -> list:
    """One strided sub-view of ``source`` per kernel position.

    ``slices[ky * kernel + kx][..., c, oy, ox]`` is the value the window at
    output position ``(oy, ox)`` sees at kernel offset ``(ky, kx)``.
    Average pooling accumulates over these views instead of reducing over
    the overlapping window view, which iterates with far better locality.
    """
    windows = sliding_windows(source, kernel, kernel, stride)
    return [windows[..., ky, kx] for ky in range(kernel) for kx in range(kernel)]


def _sign_inplace(buf: np.ndarray, mask: np.ndarray) -> None:
    """In-place ``x -> {-1, +1}`` with the eager ``x >= 0 -> +1`` convention."""
    np.greater_equal(buf, 0.0, out=mask)
    np.multiply(mask, 2.0, out=buf)
    buf -= 1.0


def _grouped(array: np.ndarray, ndim: int) -> np.ndarray:
    """``array`` with a leading group axis (added when it has ``ndim`` axes)."""
    return array[None] if array.ndim == ndim else array


class _Op:
    """One step of a compiled plan.

    ``prepare`` binds buffers for one ``(groups, batch, ...)`` input shape
    into a context namespace (with at least ``output_shape``); ``run``
    executes against a context.  Ops with parameters hold them with a
    leading group axis and implement :meth:`signature` / :meth:`stacked` so
    N structurally identical ops can be fused into one grouped op.
    """

    #: Parameter sets along the group axis (1 unless built by :meth:`stacked`).
    groups = 1

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        raise NotImplementedError

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        raise NotImplementedError

    def signature(self) -> tuple:
        """Everything about the op but its parameter values."""
        return (type(self),)

    def stacked(self, ops: Sequence["_Op"]) -> "_Op":
        """One op computing ``ops`` (all of this op's signature) side by side;
        an op without parameters is its own stack."""
        return self

    def _check_groups(self, shape: Tuple[int, ...]) -> None:
        if shape[0] != self.groups:
            raise CompileError(
                f"{type(self).__name__} holds {self.groups} parameter group(s), "
                f"got an input with {shape[0]}"
            )


def stack_ops(ops: Sequence[_Op]) -> _Op:
    """The grouped op for ``ops``, which must all have one signature."""
    first = ops[0]
    for op in ops[1:]:
        if op.signature() != first.signature():
            raise CompileError(
                f"cannot stack ops of different structure: {first.signature()} "
                f"vs {op.signature()}"
            )
    return first.stacked(ops)


class ConvOp(_Op):
    """2-D convolution on pre-packed weight matrices.

    ``weight`` is the (possibly binarized and/or BatchNorm-folded) 4-D
    kernel, or a 5-D stack of them (one per group).  Three strategies, each
    with its dead-on-return operand in the arena's scratch block:

    * **shift-add** (stride 1, ``out_channels < in_channels``): one GEMM of
      the per-position weight stack against the *unexpanded* padded image,
      followed by ``kh * kw`` strided accumulations — no im2col gather at
      all.  The gather/accumulate memory traffic is proportional to
      ``out_channels`` instead of ``in_channels``.
    * **row-run im2col** (other padded stride-1 convolutions): on the
      padded-width output grid the values one kernel offset contributes are
      *one contiguous run* of the padded image, so the gather copies
      ``C * kh * kw`` long runs per sample instead of ``out_h`` short rows
      for each.  The GEMM computes a few never-read columns per output row
      (the grid's right margin); the result is the valid-column view.
    * **window-gather im2col** otherwise: zero-copy strided window view
      gathered into the column matrix, then the same GEMM the eager path
      performs (bit-identical when nothing was folded).

    Bias add and the optional fused ReLU run in place on the GEMM output.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int,
        padding: int,
        relu: bool = False,
        dtype: np.dtype = np.float64,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.weight = np.ascontiguousarray(_grouped(np.asarray(weight), 4), dtype=self.dtype)
        (
            self.groups,
            self.out_channels,
            self.in_channels,
            self.kernel_h,
            self.kernel_w,
        ) = self.weight.shape
        self.bias = (
            None
            if bias is None
            else np.asarray(bias, dtype=self.dtype).reshape(self.groups, 1, self.out_channels, 1)
        )
        self.stride = int(stride)
        self.padding = int(padding)
        self.relu = bool(relu)
        self._shift_add = self.stride == 1 and self.out_channels < self.in_channels
        self._row_runs = not self._shift_add and self.stride == 1 and self.padding > 0
        if self._shift_add:
            # (G, 1, kh*kw*out, in): one (out, in) block per kernel position.
            self._weights = np.ascontiguousarray(
                self.weight.transpose(0, 3, 4, 1, 2).reshape(
                    self.groups, 1, -1, self.in_channels
                )
            )
        else:
            self._weights = self.weight.reshape(self.groups, 1, self.out_channels, -1)

    def signature(self) -> tuple:
        return (
            type(self),
            self.weight.shape,
            self.bias is None,
            self.stride,
            self.padding,
            self.relu,
            self.dtype,
        )

    def stacked(self, ops: Sequence["ConvOp"]) -> "ConvOp":
        return type(self)(
            np.concatenate([op.weight for op in ops]),
            None if self.bias is None else np.concatenate([op.bias for op in ops]),
            stride=self.stride,
            padding=self.padding,
            relu=self.relu,
            dtype=self.dtype,
        )

    def _output_size(self, shape: Tuple[int, ...]) -> Tuple[int, int]:
        self._check_groups(shape)
        channels, height, width = shape[2:]
        if channels != self.in_channels:
            raise CompileError(
                f"conv expects {self.in_channels} input channels, got {channels}"
            )
        out_h = conv_output_size(height, self.kernel_h, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_w, self.stride, self.padding)
        if out_h < 1 or out_w < 1:
            raise CompileError(f"conv output collapses to {out_h}x{out_w}")
        return out_h, out_w

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        groups, batch, channels, height, width = shape
        out_h, out_w = self._output_size(shape)
        pad = self.padding
        padded_h, padded_w = height + 2 * pad, width + 2 * pad
        lead = (groups, batch)
        ctx = SimpleNamespace(output_shape=lead + (self.out_channels, out_h, out_w))
        ctx.padded = (
            arena.buffer((key, "pad"), lead + (channels, padded_h, padded_w), fill=0.0)
            if pad
            else None
        )
        ctx.interior = ctx.padded[..., pad:-pad, pad:-pad] if pad else None
        # Width of the grid the GEMM computes: the padded width on the
        # row-run path (its right margin is never read), else the output's.
        grid_w = padded_w if self._row_runs else out_w
        # Columns computed per sample: the whole grid but the last row's
        # right margin (where a row run would leave the padded image); that
        # tail of ``out`` is never read.
        columns = (out_h - 1) * grid_w + out_w
        ctx.out = arena.buffer((key, "out"), lead + (self.out_channels, out_h * grid_w))
        ctx.result = ctx.out[..., :columns]
        ctx.out5 = ctx.out.reshape(lead + (self.out_channels, out_h, grid_w))[..., :out_w]
        if self._shift_add:
            positions = self.kernel_h * self.kernel_w
            ctx.products = arena.scratch(
                lead + (positions * self.out_channels, padded_h * padded_w)
            )
            per_position = ctx.products.reshape(
                lead + (positions, self.out_channels, padded_h, padded_w)
            )
            ctx.position_slices = [
                per_position[:, :, ky * self.kernel_w + kx, :, ky : ky + out_h, kx : kx + out_w]
                for ky in range(self.kernel_h)
                for kx in range(self.kernel_w)
            ]
            return ctx
        ctx.cols = arena.scratch(
            lead + (channels * self.kernel_h * self.kernel_w, columns)
        )
        grid = (columns,) if self._row_runs else (out_h, out_w)
        ctx.gathered = ctx.cols.reshape(
            lead + (channels, self.kernel_h, self.kernel_w) + grid
        )
        # Patch views over the persistent padded buffer never move; without
        # padding the source is the op's input and they are taken per run.
        ctx.patches = None
        if self._row_runs:
            ctx.patches = self._row_runs_of(ctx.padded, columns)
        elif pad:
            ctx.patches = self._windows_of(ctx.padded)
        return ctx

    def _row_runs_of(self, padded: np.ndarray, columns: int) -> np.ndarray:
        """``(G, B, C, kh, kw, columns)`` view: kernel offset ``(ky, kx)`` sees
        the padded image from element ``ky * padded_w + kx`` on, read straight
        through — one contiguous run per (sample, channel, offset)."""
        row, item = padded.strides[-2:]
        return np.lib.stride_tricks.as_strided(
            padded,
            shape=padded.shape[:3] + (self.kernel_h, self.kernel_w, columns),
            strides=padded.strides[:3] + (row, item, item),
            writeable=False,
        )

    def _windows_of(self, source: np.ndarray) -> np.ndarray:
        """``(G, B, C, kh, kw, out_h, out_w)`` view of every kernel offset's window."""
        windows = sliding_windows(source, self.kernel_h, self.kernel_w, self.stride)
        return windows.transpose(0, 1, 2, 5, 6, 3, 4)

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        if ctx.padded is not None:
            ctx.interior[...] = x
            source = ctx.padded
        else:
            source = x
        if self._shift_add:
            flat = source.reshape(source.shape[:3] + (-1,))
            np.matmul(self._weights, flat, out=ctx.products)
            np.copyto(ctx.out5, ctx.position_slices[0])
            for position in ctx.position_slices[1:]:
                np.add(ctx.out5, position, out=ctx.out5)
        else:
            patches = ctx.patches if ctx.patches is not None else self._windows_of(source)
            np.copyto(ctx.gathered, patches)
            np.matmul(self._weights, ctx.cols, out=ctx.result)
        if self.bias is not None:
            ctx.result += self.bias
        if self.relu:
            np.maximum(ctx.result, 0.0, out=ctx.result)
        return ctx.out5


class LinearOp(_Op):
    """Fully connected layer on a pre-packed (possibly folded) weight.

    The transposed-view operand layout matches the eager
    ``inputs.matmul(weight.transpose())`` call exactly, so unfolded results
    are bit-identical.  A stacked op holds ``(G, out, in)`` weights and runs
    ``(G, B, in) @ (G, in, out)``: one GEMM per group over that group's
    contiguous rows, each with the single op's operand layout.  The optional
    ReLU epilogue runs in place.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        relu: bool = False,
        dtype: np.dtype = np.float64,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.weight = np.ascontiguousarray(_grouped(np.asarray(weight), 2), dtype=self.dtype)
        self.groups, self.out_features, self.in_features = self.weight.shape
        self._weight_t = self.weight.transpose(0, 2, 1)
        self.bias = (
            None
            if bias is None
            else np.asarray(bias, dtype=self.dtype).reshape(self.groups, 1, self.out_features)
        )
        self.relu = bool(relu)

    def signature(self) -> tuple:
        return (type(self), self.weight.shape, self.bias is None, self.relu, self.dtype)

    def stacked(self, ops: Sequence["LinearOp"]) -> "LinearOp":
        return type(self)(
            np.concatenate([op.weight for op in ops]),
            None if self.bias is None else np.concatenate([op.bias for op in ops]),
            relu=self.relu,
            dtype=self.dtype,
        )

    def _check_input(self, shape: Tuple[int, ...]) -> None:
        self._check_groups(shape)
        if shape[2] != self.in_features:
            raise CompileError(
                f"linear expects {self.in_features} input features, got {shape[2]}"
            )

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        self._check_input(shape)
        output_shape = shape[:2] + (self.out_features,)
        return SimpleNamespace(
            output_shape=output_shape, out=arena.buffer((key, "out"), output_shape)
        )

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        np.matmul(x, self._weight_t, out=ctx.out)
        if self.bias is not None:
            ctx.out += self.bias
        if self.relu:
            np.maximum(ctx.out, 0.0, out=ctx.out)
        return ctx.out


class _PoolOp(_Op):
    """Shared scaffolding for max/average pooling."""

    pad_fill: float = 0.0

    def __init__(self, kernel_size: int, stride: Optional[int], padding: int) -> None:
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size
        self.padding = int(padding)

    def signature(self) -> tuple:
        return (type(self), self.kernel_size, self.stride, self.padding)

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        height, width = shape[-2:]
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)
        pad = self.padding
        ctx = SimpleNamespace(output_shape=shape[:3] + (out_h, out_w))
        ctx.padded = (
            arena.buffer(
                (key, "pad"),
                shape[:3] + (height + 2 * pad, width + 2 * pad),
                fill=self.pad_fill,
            )
            if pad
            else None
        )
        ctx.interior = ctx.padded[..., pad:-pad, pad:-pad] if pad else None
        ctx.out = arena.buffer((key, "out"), ctx.output_shape)
        return ctx


def _maximum_into(out: np.ndarray, operands: Sequence[np.ndarray]) -> None:
    """``out`` = elementwise maximum of ``operands`` (max is exact in any order)."""
    if len(operands) == 1:
        np.copyto(out, operands[0])
        return
    np.maximum(operands[0], operands[1], out=out)
    for operand in operands[2:]:
        np.maximum(out, operand, out=out)


class MaxPoolOp(_PoolOp):
    """2-D max pooling; padded border stays ``-inf`` so it never wins.

    Separable: first the maximum over the window's *rows*, taken on whole
    contiguous image rows at every column, then the maximum over the
    window's columns of that, which is also where the column stride is
    applied.  ``2k - 2`` elementwise passes (the first ``k - 1`` streaming
    contiguous rows) instead of ``k * k`` passes over doubly strided views;
    max is exact, so the result is bit-identical to any other order.
    """

    pad_fill = -np.inf

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        ctx = super().prepare(shape, arena, key)
        out_h, out_w = ctx.output_shape[-2:]
        source_w = shape[-1] + 2 * self.padding
        ctx.row_max = arena.buffer((key, "rows"), shape[:3] + (out_h, source_w))
        span = self.stride * (out_w - 1) + 1
        ctx.column_views = [
            ctx.row_max[..., offset : offset + span : self.stride]
            for offset in range(self.kernel_size)
        ]
        # Row views over the persistent padded buffer never move; without
        # padding the source is the op's input and they are taken per run.
        ctx.row_views = self._row_views(ctx.padded, out_h) if self.padding else None
        return ctx

    def _row_views(self, source: np.ndarray, out_h: int) -> list:
        span = self.stride * (out_h - 1) + 1
        return [
            source[..., offset : offset + span : self.stride, :]
            for offset in range(self.kernel_size)
        ]

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        if ctx.padded is not None:
            ctx.interior[...] = x
            row_views = ctx.row_views
        else:
            row_views = self._row_views(x, ctx.output_shape[-2])
        _maximum_into(ctx.row_max, row_views)
        _maximum_into(ctx.out, ctx.column_views)
        return ctx.out


class AvgPoolOp(_PoolOp):
    """2-D average pooling (``count_include_pad`` style, like the eager op).

    Accumulates over the ``k * k`` window-position views in the eager
    summation order (a separable sum would round differently).
    """

    pad_fill = 0.0

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        ctx = super().prepare(shape, arena, key)
        ctx.slices = (
            _window_position_slices(ctx.padded, self.kernel_size, self.stride)
            if self.padding
            else None
        )
        return ctx

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        if ctx.padded is not None:
            ctx.interior[...] = x
            slices = ctx.slices
        else:
            slices = _window_position_slices(x, self.kernel_size, self.stride)
        np.copyto(ctx.out, slices[0])
        for window in slices[1:]:
            np.add(ctx.out, window, out=ctx.out)
        ctx.out *= 1.0 / (self.kernel_size * self.kernel_size)
        return ctx.out


class BatchNormOp(_Op):
    """Inference batch norm replaying the eager op order bit for bit.

    Used when the BatchNorm could not be folded into a preceding linear op —
    in particular when a sign activation follows, where re-associated
    arithmetic could flip a borderline sign.  In exact (float64/bitpacked)
    modes it computes ``(x - mean) / std * gamma + beta`` with exactly the
    eager sequence of broadcast elementwise ops, then the optional fused
    sign/ReLU epilogue.

    In ``float32`` mode — where the guarantee is tolerance-based, not
    bitwise — the four broadcast ops collapse to the pre-computed affine
    ``x * scale + shift`` (two dispatches) and the 3-dispatch sign epilogue
    to a single ``np.copysign``; at serving batch sizes the per-op numpy
    dispatch cost rivals the array work, so halving the dispatch count is
    where much of fp32's batch-1 latency win comes from.

    Parameters arrive shaped to broadcast against ``(groups, batch, ...)``
    inputs — ``(G, 1, F)`` or ``(G, 1, F, 1, 1)``.
    """

    def __init__(
        self,
        mean: np.ndarray,
        std: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        sign: bool = False,
        relu: bool = False,
        dtype: np.dtype = np.float64,
    ) -> None:
        self.dtype = np.dtype(dtype)
        # Statistics stay float64 whatever the mode: the exact path computes
        # in float64, and the fp32 affine is folded before it is cast.
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        self.gamma = np.asarray(gamma, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)
        self.groups = self.mean.shape[0]
        self.sign = bool(sign)
        self.relu = bool(relu)
        self._exact = self.dtype == np.float64
        if not self._exact:
            # Affine fold in float64, cast once: y = x * scale + shift.
            scale = self.gamma / self.std
            self._scale = scale.astype(self.dtype)
            self._shift = (self.beta - self.mean * scale).astype(self.dtype)

    def signature(self) -> tuple:
        return (type(self), self.mean.shape, self.sign, self.relu, self.dtype)

    def stacked(self, ops: Sequence["BatchNormOp"]) -> "BatchNormOp":
        return type(self)(
            *(
                np.concatenate([getattr(op, name) for op in ops])
                for name in ("mean", "std", "gamma", "beta")
            ),
            sign=self.sign,
            relu=self.relu,
            dtype=self.dtype,
        )

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        self._check_groups(shape)
        return SimpleNamespace(
            output_shape=tuple(shape),
            out=arena.buffer((key, "out"), shape),
            mask=(
                arena.bool_buffer((key, "mask"), shape)
                if self.sign and self._exact
                else None
            ),
        )

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        if self._exact:
            np.subtract(x, self.mean, out=ctx.out)
            np.divide(ctx.out, self.std, out=ctx.out)
            np.multiply(ctx.out, self.gamma, out=ctx.out)
            np.add(ctx.out, self.beta, out=ctx.out)
            if self.sign:
                _sign_inplace(ctx.out, ctx.mask)
            elif self.relu:
                np.maximum(ctx.out, 0.0, out=ctx.out)
            return ctx.out
        np.multiply(x, self._scale, out=ctx.out)
        np.add(ctx.out, self._shift, out=ctx.out)
        if self.sign:
            # copysign(1, -0.0) is -1 where the eager rule gives +1; exact
            # zeros are vanishingly rare in fp32 BN output and covered by
            # the mode's routing-agreement tolerance.
            np.copysign(self.dtype.type(1.0), ctx.out, out=ctx.out)
        elif self.relu:
            np.maximum(ctx.out, 0.0, out=ctx.out)
        return ctx.out


class _ElementwiseOp(_Op):
    """Base for activations that write into their own same-shaped buffer."""

    needs_mask = False

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        return SimpleNamespace(
            output_shape=tuple(shape),
            out=arena.buffer((key, "out"), shape),
            mask=arena.bool_buffer((key, "mask"), shape) if self.needs_mask else None,
        )


class ReluOp(_ElementwiseOp):
    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        np.maximum(x, 0.0, out=ctx.out)
        return ctx.out


class SignOp(_ElementwiseOp):
    needs_mask = True

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        np.greater_equal(x, 0.0, out=ctx.mask)
        np.multiply(ctx.mask, 2.0, out=ctx.out)
        ctx.out -= 1.0
        return ctx.out


class SigmoidOp(_ElementwiseOp):
    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        np.negative(x, out=ctx.out)
        np.exp(ctx.out, out=ctx.out)
        ctx.out += 1.0
        np.divide(1.0, ctx.out, out=ctx.out)
        return ctx.out


class TanhOp(_ElementwiseOp):
    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        np.tanh(x, out=ctx.out)
        return ctx.out


class FlattenOp(_Op):
    """Flatten each sample (all axes after ``(groups, batch)``); a reshape view."""

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        flattened = int(np.prod(shape[2:], dtype=np.int64))
        return SimpleNamespace(output_shape=tuple(shape[:2]) + (flattened,))

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        return x.reshape(ctx.output_shape)


class PackedConvOp(_Op):
    """Bitpacked XNOR+popcount convolution for ±1 weights over ±1 inputs.

    Signs of the im2col windows are packed 64-per-word into ``uint64``; each
    output channel is then ``dot = K - 2 * popcount(act ^ weight)``, with
    popcount as a per-byte table lookup.  The packed operand is 64x smaller
    than either float layout, so the existing stride/channel memory-traffic
    rule that picks between shift-add and im2col collapses here: packed wins
    both regimes and is always used for eligible binary blocks.

    Zero padding cannot be represented in one bit, so padded window
    positions are packed as ``-1`` and repaired by an integer correction
    ``corr[o, p] = sum of w[o, k] over the padded positions of window p``,
    precomputed per shape.  All quantities are exact small integers in
    float64, making the op bit-identical to the float sign path.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int,
        padding: int,
        relu: bool = False,
        dtype: np.dtype = np.float64,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.weight = np.ascontiguousarray(_grouped(np.asarray(weight), 4), dtype=np.float64)
        (
            self.groups,
            self.out_channels,
            self.in_channels,
            self.kernel_h,
            self.kernel_w,
        ) = self.weight.shape
        self.bias = (
            None
            if bias is None
            else np.asarray(bias, dtype=self.dtype).reshape(self.groups, 1, self.out_channels, 1)
        )
        self.stride = int(stride)
        self.padding = int(padding)
        self.relu = bool(relu)
        self._weight_matrix = self.weight.reshape(self.groups, self.out_channels, -1)
        self.k_valid = self._weight_matrix.shape[-1]
        packed, self._words = _pack_sign_rows(self._weight_matrix.reshape(-1, self.k_valid))
        # Broadcasts against (G, B, 1, positions, words) packed activations.
        self._weight_packed = packed.reshape(self.groups, 1, self.out_channels, 1, self._words)

    signature = ConvOp.signature
    stacked = ConvOp.stacked
    _output_size = ConvOp._output_size

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        groups, batch, channels, height, width = shape
        out_h, out_w = self._output_size(shape)
        pad = self.padding
        padded_h, padded_w = height + 2 * pad, width + 2 * pad
        positions = out_h * out_w
        words = self._words
        lead = (groups, batch)
        ctx = SimpleNamespace(output_shape=lead + (self.out_channels, out_h, out_w))
        # Signs are taken on the compact (padded) source — kh*kw times fewer
        # elements than the expanded window view — and the im2col gather then
        # moves 1-byte bools instead of 8-byte floats.  The padded border is
        # pre-filled False (= the packed -1 the correction term repairs) and
        # never written again.
        ctx.source_bits = arena.buffer(
            (key, "sbits"), lead + (channels, padded_h, padded_w), fill=0, dtype=bool
        )
        ctx.interior_bits = (
            ctx.source_bits[..., pad:-pad, pad:-pad] if pad else ctx.source_bits
        )
        windows = sliding_windows(ctx.source_bits, self.kernel_h, self.kernel_w, self.stride)
        ctx.bit_windows = windows.transpose(0, 1, 3, 4, 2, 5, 6)
        ctx.bits = arena.bool_buffer(
            (key, "bits"), lead + (out_h, out_w, channels, self.kernel_h, self.kernel_w)
        )
        ctx.bits_flat = ctx.bits.reshape(lead + (positions, self.k_valid))
        # Packed activations: the byte tail past ceil(K/8) is zero-filled at
        # allocation and never written, so it XORs clean against the weights'
        # matching zero tail.
        ctx.act = arena.buffer(
            (key, "act"), lead + (1, positions, words), fill=0, dtype=np.uint64
        )
        ctx.act_u8 = ctx.act.view(np.uint8)[:, :, 0]
        ctx.xor = arena.buffer(
            (key, "xor"), lead + (self.out_channels, positions, words), dtype=np.uint64
        )
        ctx.pop = arena.buffer(
            (key, "pop"),
            lead + (self.out_channels, positions, _popcount_scratch_width(words)),
            dtype=np.uint8,
        )
        ctx.counts = arena.buffer(
            (key, "cnt"), lead + (self.out_channels, positions), dtype=np.int64
        )
        ctx.out = arena.buffer((key, "out"), lead + (self.out_channels, positions))
        ctx.out5 = ctx.out.reshape(ctx.output_shape)
        ctx.corr = self._pad_correction(channels, padded_h, padded_w, positions) if pad else None
        return ctx

    def _pad_correction(
        self, channels: int, padded_h: int, padded_w: int, positions: int
    ) -> np.ndarray:
        """Exact integer ``(G, 1, out_channels, positions)`` zero-padding repair."""
        pad = self.padding
        mask = np.ones((1, channels, padded_h, padded_w), dtype=np.float64)
        mask[:, :, pad:-pad, pad:-pad] = 0.0
        mask_windows = sliding_windows(mask, self.kernel_h, self.kernel_w, self.stride)
        mask_cols = np.ascontiguousarray(
            mask_windows.transpose(0, 1, 4, 5, 2, 3)
        ).reshape(self.k_valid, positions)
        return (self._weight_matrix @ mask_cols)[:, None]

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        np.greater(x, 0.0, out=ctx.interior_bits)
        np.copyto(ctx.bits, ctx.bit_windows)
        packed = np.packbits(ctx.bits_flat, axis=-1)
        ctx.act_u8[..., : packed.shape[-1]] = packed
        np.bitwise_xor(ctx.act, self._weight_packed, out=ctx.xor)
        _popcount_words(ctx.xor, ctx.pop, ctx.counts)
        np.multiply(ctx.counts, -2.0, out=ctx.out)
        ctx.out += float(self.k_valid)
        if ctx.corr is not None:
            ctx.out += ctx.corr
        if self.bias is not None:
            ctx.out += self.bias
        if self.relu:
            np.maximum(ctx.out, 0.0, out=ctx.out)
        return ctx.out5


class PackedLinearOp(_Op):
    """Bitpacked XNOR+popcount fully connected layer for ±1 weights/inputs.

    One broadcast XOR of the packed ``(G, B, 1, words)`` activations against
    the packed ``(G, 1, out_features, words)`` weights, then the same
    popcount reduction as :class:`PackedConvOp`.  Exact integers,
    bit-identical to the float path.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        relu: bool = False,
        dtype: np.dtype = np.float64,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.weight = np.ascontiguousarray(_grouped(np.asarray(weight), 2), dtype=np.float64)
        self.groups, self.out_features, self.in_features = self.weight.shape
        packed, self._words = _pack_sign_rows(self.weight.reshape(-1, self.in_features))
        self._weight_packed = packed.reshape(self.groups, 1, self.out_features, self._words)
        self.bias = (
            None
            if bias is None
            else np.asarray(bias, dtype=self.dtype).reshape(self.groups, 1, self.out_features)
        )
        self.relu = bool(relu)

    signature = LinearOp.signature
    stacked = LinearOp.stacked
    _check_input = LinearOp._check_input

    def prepare(self, shape: Tuple[int, ...], arena: Arena, key: object) -> SimpleNamespace:
        self._check_input(shape)
        lead = tuple(shape[:2])
        words = self._words
        ctx = SimpleNamespace(output_shape=lead + (self.out_features,))
        ctx.bits = arena.bool_buffer((key, "bits"), shape)
        ctx.act = arena.buffer((key, "act"), lead + (1, words), fill=0, dtype=np.uint64)
        ctx.act_u8 = ctx.act.view(np.uint8)[:, :, 0]
        ctx.xor = arena.buffer(
            (key, "xor"), lead + (self.out_features, words), dtype=np.uint64
        )
        ctx.pop = arena.buffer(
            (key, "pop"),
            lead + (self.out_features, _popcount_scratch_width(words)),
            dtype=np.uint8,
        )
        ctx.counts = arena.buffer((key, "cnt"), ctx.output_shape, dtype=np.int64)
        ctx.out = arena.buffer((key, "out"), ctx.output_shape)
        return ctx

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        np.greater(x, 0.0, out=ctx.bits)
        packed = np.packbits(ctx.bits, axis=-1)
        ctx.act_u8[..., : packed.shape[-1]] = packed
        np.bitwise_xor(ctx.act, self._weight_packed, out=ctx.xor)
        _popcount_words(ctx.xor, ctx.pop, ctx.counts)
        np.multiply(ctx.counts, -2.0, out=ctx.out)
        ctx.out += float(self.in_features)
        if self.bias is not None:
            ctx.out += self.bias
        if self.relu:
            np.maximum(ctx.out, 0.0, out=ctx.out)
        return ctx.out
