"""Raw-``ndarray`` inference kernels and the per-plan buffer arena.

These ops are what a :class:`~repro.compile.plan.CompiledPlan` executes: no
autograd graph, no per-op :class:`~repro.nn.tensor.Tensor` wrapping.  Every
array an op sees has two leading axes, ``(groups, batch, ...)``: a plan
compiled from one module stack has ``groups == 1``, a plan *stacked* from N
structurally identical stacks (the DDNN's device branches) carries N sets
of parameters along the group axis and computes all of them — or, a range of
them at a time — in one pass.  Each op is *prepared* once per input shape
and group range — binding views of the plan's :class:`Arena` and the range's
parameter rows into a context — and then *run* once per forward pass against
that context, writing into the pre-allocated buffers (``out=`` everywhere,
in-place epilogues for bias/ReLU).

Binary blocks: the paper's fused block (Fig. 3) — conv/linear -> [max-pool
->] BatchNorm -> sign — is one GEMM op with a :class:`SignOp` behind it: the
GEMM's output is compared against exact per-channel thresholds
(:func:`sign_thresholds`; the layer's bias is part of them), pooled as
booleans and materialised as ±1 once, so no float temporary survives the
block.

Memory plan: arena buffers are sized for the largest batch the plan has
run in one pass and a program for a smaller batch binds their leading rows,
so a plan that serves batches of 1..8 owns one set of buffers, not eight
(padded borders are per-image constants, valid under every such view).
Operands that are dead when their op returns — the im2col column matrix,
the shift-add per-position products, the bool pool's shifted ORs — are not
per-op at all: they are views of the arena's one scratch block.  The plan
keeps a pass small enough that all of this stays cache-resident (see
:class:`~repro.compile.plan.CompiledPlan`, which owns the one blocking
scheme: ``repro.nn.functional._IM2COL_BLOCK_BYTES`` per pass, the
budget the training convolution's batch tiles share).

Numerical contract, for *finite* inputs (``±0.0`` and subnormals included;
what a NaN or an infinity turns into is unspecified — eager max-pooling
carries a NaN through BatchNorm to a -1, an OR of comparisons does not):
elementwise ops, pooling, BatchNorm, the sign thresholds and the linear
layers replay the eager arithmetic bit for bit (same operation order, same
operand layouts handed to BLAS; a threshold is the exact position of the
step the eager chain makes), and so does the window-gather im2col
convolution (strided or unpadded).  Two conv strategies are equivalent to
eager only up to float rounding — shift-add, and the *row-run* im2col used
for padded stride-1 convolutions, whose GEMM runs on the padded-width
output grid (BLAS edge kernels may round a column differently depending on
where it sits in the matrix).  Both remain *exact* on the binary interior
blocks, whose ±1 arithmetic stays integral in float64 under any summation
order, and the sign that ends every binary block absorbs last-bit
differences in the first.  What is left order-dependent is a float sum:
the first conv's before its sign threshold, and a float-weight layer's
(the mixed-precision cloud's), whose linear GEMM BLAS may also round by the
batch's row count.

Precision modes: every op takes a ``dtype`` (float64 by default; float32
halves memory traffic at fp32 tolerance).  A binary block's ±1 GEMM is the
same float GEMM in every mode; in float64 its dot products are exact
integers.
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
    "BatchNormOp",
    "ReluOp",
    "SignOp",
    "FlattenOp",
    "PRECISIONS",
    "precision_dtype",
]


class CompileError(RuntimeError):
    """A module or module sequence that the plan compiler cannot handle."""


#: Supported compute precision modes for compiled plans, with their
#: documented guarantees (enforced by ``repro.compile.ddnn.verify_compiled``).
#: Every mode is specified for finite inputs — ``±0.0`` and subnormals
#: included; NaN and ±inf payloads are unspecified (a binary block is an OR
#: of comparisons, which does not propagate a NaN the way eager's max does):
#:
#: * ``"float64"`` — the default.  Bit-identical to eager on binary (±1)
#:   blocks, and so on a binary model's exit logits at any batch shape: an
#:   exit's ±1 GEMM is an exact integer sum and its BatchNorm replays the
#:   eager ops.  Within 1e-12 of eager on a float sum: a raw float
#:   convolution (the row-run GEMM's grid is wider than eager's, so BLAS may
#:   round the last bits of a column differently) or a float-weight linear
#:   layer at another batch row count than eager's.  Routing is
#:   byte-identical to eager as long as no pre-sign value of a float-input
#:   block lies within that last-bit distance of zero — true of every input
#:   the tests and benchmarks replay, not guaranteed by construction.
#: * ``"float32"`` — fp32 weights/buffers/GEMMs; routing agreement >= 99.9%
#:   vs the fp64 oracle, per-exit logits allclose at fp32 tolerance.  A
#:   binary block's sign is ``x >= threshold`` on the fp32 GEMM output, the
#:   threshold being the float64-derived one cast to float32.
#: * ``"bitpacked"`` — another name for ``"float64"``: the same dtype, and
#:   so the same plan.
PRECISIONS = ("float64", "float32", "bitpacked")

def precision_dtype(precision: str) -> np.dtype:
    """The float carrier dtype of a precision mode (validates the name)."""
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )
    return np.dtype(np.float32 if precision == "float32" else np.float64)


class Arena:
    """Capacity-sized buffer pool owned by one compiled plan.

    Every buffer is requested with a ``(groups, batch, *sample)`` shape and
    allocated once for ``groups * capacity`` samples, where ``capacity`` is
    the largest batch the plan has reserved; the request returns the leading
    ``groups * batch`` samples viewed in the requested shape.  Programs for
    smaller batches therefore share the larger batch's memory instead of
    owning their own, and :meth:`reserve` drops everything when a larger
    batch arrives (the plan then re-prepares its programs — rare: capacity
    only ever grows, and no further than the batch range of the plan's tiles).

    ``fill`` is applied only on allocation: padded buffers keep their
    constant border (zeros for convolution, ``-inf`` for max pooling,
    ``False`` for a binary block's bool pool) because ops only ever
    overwrite the interior, and the border sits at the same offsets of every
    sample whatever the batch view.  The arena carries the plan's float
    dtype (float64 by default, float32 in fp32 mode); non-float buffers
    (sign bits) request an explicit dtype.

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

    def scratch(self, shape: Tuple[int, ...], dtype: Optional[np.dtype] = None) -> np.ndarray:
        """An uninitialised view (float unless ``dtype`` says otherwise) of
        the shared scratch block."""
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes > self._scratch.nbytes:
            # Views bound by earlier programs keep the old block alive and
            # stay correct; only the sharing is lost until they re-prepare.
            self._scratch = np.empty(nbytes, dtype=np.uint8)
        return self._scratch[:nbytes].view(dtype).reshape(shape)

    def nbytes(self) -> int:
        """Bytes currently held (buffers plus the scratch block)."""
        return self._scratch.nbytes + sum(buf.nbytes for buf in self._buffers.values())


def _grouped(array: np.ndarray, ndim: int) -> np.ndarray:
    """``array`` with a leading group axis (added when it has ``ndim`` axes)."""
    return array[None] if array.ndim == ndim else array


class _Op:
    """One step of a compiled plan.

    ``prepare`` binds buffers for one ``(groups, batch, ...)`` input shape
    into a context namespace (with at least ``output_shape``); ``run``
    executes against a context.  Ops with parameters hold them with a
    leading group axis and implement :meth:`signature` / :meth:`stacked` so
    N structurally identical ops can be fused into one grouped op; a
    program over a *range* of the groups binds that range's parameter rows
    (``first_group`` on, as many as the input has) at prepare time.
    """

    #: Parameter sets along the group axis (1 unless built by :meth:`stacked`).
    groups = 1
    #: Whether the samples of a batch are computed independently of each
    #: other, so a plan may run the batch in several passes.
    splits_batch = True

    def prepare(
        self, shape: Tuple[int, ...], arena: Arena, key: object, first_group: int = 0
    ) -> SimpleNamespace:
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

    def _rows(self, shape: Tuple[int, ...], first_group: int) -> slice:
        """The parameter rows an input of ``shape`` takes when its first
        group is this op's ``first_group``-th."""
        stop = first_group + shape[0]
        if stop > self.groups:
            raise CompileError(
                f"{type(self).__name__} holds {self.groups} parameter group(s), "
                f"got an input for groups {first_group}..{stop - 1}"
            )
        return slice(first_group, stop)


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


#: XOR mask between a float64's bit pattern (read as int64) and an integer
#: ordered like the float: negative floats have their low 63 bits flipped.
_ORDER_FLIP = np.int64(np.iinfo(np.int64).max)


def _order_flip(words: np.ndarray) -> np.ndarray:
    """float64 bit patterns (as int64) <-> integers in the floats' order; an
    involution (``-0.0`` is -1, ``+0.0`` is 0, neighbours are 1 apart)."""
    return np.where(words < 0, words ^ _ORDER_FLIP, words)


def sign_thresholds(
    bias: Optional[np.ndarray],
    mean: np.ndarray,
    std: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel ``(threshold, flipped)`` with ``(x >= threshold) ^ flipped``
    equal, for every finite float64 ``x``, to what the eager binary block
    computes from it: ``(((x + bias) - mean) / std) * gamma + beta >= 0``.

    Each step of that chain is monotone in ``x`` under IEEE rounding, so per
    channel the whole chain is a step function (rising for ``gamma > 0``,
    falling for ``gamma < 0``, constant otherwise) and one comparison
    reproduces it *bit for bit* once the step's position is known to the
    last ulp.  It is found by bisecting the float64 bit patterns between
    ``-max`` and ``+max`` on the chain itself, 64 steps, all channels at
    once — no algebra on the parameters, so nothing is re-associated.  A
    channel whose chain never changes gets ``-inf`` (always +1) or ``+inf``
    (always -1); a falling channel gets the first ``x`` that yields -1 and
    ``flipped``.  ``gamma == 0`` is the sign of ``beta`` (the chain's value
    wherever its normalised term has not overflowed into ``inf * 0``).
    """
    mean, std, gamma, beta = (
        np.asarray(array, dtype=np.float64) for array in (mean, std, gamma, beta)
    )

    def positive(x) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            if bias is not None:
                x = x + bias
            return ((x - mean) / std) * gamma + beta >= 0

    top = np.finfo(np.float64).max
    at_low, at_high = positive(-top), positive(top)
    low = np.full(mean.shape, _order_flip(np.float64(-top).view(np.int64)))
    high = np.full(mean.shape, _order_flip(np.float64(top).view(np.int64)))
    for _ in range(64):
        middle = (low & high) + ((low ^ high) >> 1)  # floor mean, overflow-free
        below = positive(_order_flip(middle).view(np.float64)) == at_low
        low = np.where(below, middle, low)
        high = np.where(below, high, middle)
    steps = at_low != at_high
    constant = np.where(gamma == 0, beta >= 0, at_low)
    threshold = np.where(
        steps, _order_flip(high).view(np.float64), np.where(constant, -np.inf, np.inf)
    )
    return threshold, steps & at_low


class SignOp(_Op):
    """The tail of a binary block: ``x -> {-1, +1}`` by one comparison.

    A bare sign activation compares against zero (eager's ``x >= 0 -> +1``).
    Compiled from ``BatchNorm -> sign`` it compares against the thresholds of
    :func:`sign_thresholds` instead, and with ``pool`` — the paper's fused
    block, ``max-pool -> BatchNorm -> sign`` — the comparison is hoisted
    above the pooling: a monotone step commutes with max, so the maximum of
    floats becomes an OR of booleans (with a ``False`` border; a flipped
    channel's NOT-OR is eager's AND).  No float temporary survives the
    block: ±1 values are materialised once, at its output, with each
    channel's orientation.

    Every step runs on contiguous memory where the geometry allows.  The op
    is used on its own or *behind a GEMM op* (``ConvOp(..., sign=op)`` and
    the like), which then hands it its whole output grid: when that grid's
    row pitch equals the pool's padded pitch (``kernel - 1 == 2 *
    pool_padding``: every ConvPBlock) the grid is compared against a
    per-position threshold row straight into the padded ``bool`` buffer, the
    grid's never-read margin columns landing exactly on the border with a
    ``+inf`` threshold that writes ``False``.  Other geometries bind the
    strided valid/interior views instead; the calls are the same.  The pool
    is ``2k - 2`` flat byte-ORs over the whole buffer — ``k - 1`` shifts by
    one pitch, then ``k - 1`` unit shifts — whose wrap-around garbage only
    lands in rows and columns the strided subsample never reads.
    """

    def __init__(
        self,
        threshold: Optional[np.ndarray] = None,
        flipped: Optional[np.ndarray] = None,
        pool: Tuple[int, int, int] = (1, 1, 0),
        dtype: np.dtype = np.float64,
    ) -> None:
        self.dtype = np.dtype(dtype)
        #: ``(kernel, stride, padding)`` of the max pool the comparison was
        #: hoisted above; ``(1, 1, 0)`` pools nothing.
        self.pool = tuple(int(value) for value in pool)
        # (G, C); a bare sign broadcasts one zero over every channel.
        self.threshold = (
            np.zeros((1, 1)) if threshold is None else np.asarray(threshold, dtype=np.float64)
        )
        self.flipped = (
            np.zeros(self.threshold.shape, dtype=bool)
            if flipped is None
            else np.asarray(flipped, dtype=bool)
        )
        self.groups = self.threshold.shape[0]

    def signature(self) -> tuple:
        return (type(self), self.threshold.shape[1:], self.pool, self.dtype)

    def stacked(self, ops: Sequence["SignOp"]) -> "SignOp":
        return type(self)(
            np.concatenate([op.threshold for op in ops]),
            np.concatenate([op.flipped for op in ops]),
            pool=self.pool,
            dtype=self.dtype,
        )

    def prepare(
        self,
        shape: Tuple[int, ...],
        arena: Arena,
        key: object,
        first_group: int = 0,
        grid: Optional[np.ndarray] = None,
        grid_w: int = 0,
    ) -> SimpleNamespace:
        """``shape`` is that of the values to binarise; a GEMM op also passes
        its contiguous output ``grid`` (of which they are the valid view)
        and the grid's row pitch."""
        rows = self._rows(shape, first_group)
        lead, channels, spatial = tuple(shape[:2]), shape[2], tuple(shape[3:])
        kernel, stride, pad = self.pool
        padded = tuple(size + 2 * pad for size in spatial)
        pooled = tuple(conv_output_size(size, kernel, stride, pad) for size in spatial)
        if min(pooled, default=1) < 1:
            raise CompileError(f"pooling {spatial} collapses to {pooled}")
        ctx = SimpleNamespace(output_shape=lead + (channels,) + pooled)
        bits = arena.buffer(
            (key, "bits"), lead + (channels,) + padded, fill=False, dtype=bool
        )
        per_channel = (-1, 1, self.threshold.shape[1]) + (1,) * len(spatial)
        with np.errstate(over="ignore"):  # beyond float32's range: never / always
            threshold = self.threshold[rows].astype(self.dtype).reshape(per_channel)
        if spatial and grid is not None and grid_w == padded[1]:
            columns = grid.shape[-1]
            start = pad * grid_w + pad
            ctx.source = grid
            ctx.target = bits.reshape(lead + (channels, -1))[..., start : start + columns]
            in_margin = np.arange(columns) % grid_w >= spatial[1]
            ctx.threshold = np.where(
                in_margin, self.dtype.type(np.inf), threshold.reshape(per_channel[:4])
            )
        else:
            ctx.source = None
            ctx.target = bits[(Ellipsis,) + tuple(slice(pad, pad + size) for size in spatial)]
            ctx.threshold = threshold
        ctx.pool_steps = []
        if kernel > 1:
            flat = bits.reshape(-1)
            pitch = padded[1]
            scratch = arena.scratch((2, flat.size), dtype=bool)
            row_count = flat.size - (kernel - 1) * pitch
            column_count = row_count - (kernel - 1)
            row_or, column_or = scratch[0, :row_count], scratch[1, :column_count]
            # Window rows first (shifts by one pitch), then window columns.
            for source, count, shift, out in (
                (flat, row_count, pitch, row_or),
                (row_or, column_count, 1, column_or),
            ):
                for offset in range(1, kernel):
                    ctx.pool_steps.append(
                        (
                            source[:count] if offset == 1 else out,
                            source[offset * shift : offset * shift + count],
                            out,
                        )
                    )
            bits = scratch[1].reshape(bits.shape)
        ctx.pooled = bits[
            (Ellipsis,) + tuple(slice(0, stride * (size - 1) + 1, stride) for size in pooled)
        ]
        ctx.high = np.where(self.flipped[rows], -1.0, 1.0).astype(self.dtype).reshape(per_channel)
        ctx.low = -ctx.high
        ctx.out = arena.buffer((key, "out"), ctx.output_shape)
        return ctx

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        np.greater_equal(
            x if ctx.source is None else ctx.source, ctx.threshold, out=ctx.target
        )
        for left, right, out in ctx.pool_steps:
            np.bitwise_or(left, right, out=out)
        np.copyto(ctx.out, ctx.low)
        np.copyto(ctx.out, ctx.high, where=ctx.pooled)
        return ctx.out


class _GemmOp(_Op):
    """What the two GEMM ops — conv and linear — fuse behind the GEMM:
    bias add, ReLU, or the rest of a binary block."""

    def _set_tail(
        self,
        bias: Optional[np.ndarray],
        bias_shape: Tuple[int, ...],
        relu: bool,
        sign: Optional[SignOp],
    ) -> None:
        self.bias = (
            None if bias is None else np.asarray(bias, dtype=self.dtype).reshape(bias_shape)
        )
        self.relu = bool(relu)
        self.sign = sign

    def _tail_signature(self) -> tuple:
        return (
            self.bias is None,
            self.relu,
            None if self.sign is None else self.sign.signature(),
        )

    def _stacked_tail(self, ops: Sequence["_GemmOp"]) -> dict:
        return dict(
            bias=None if self.bias is None else np.concatenate([op.bias for op in ops]),
            relu=self.relu,
            sign=None if self.sign is None else self.sign.stacked([op.sign for op in ops]),
            dtype=self.dtype,
        )

    def _bind_tail(
        self, ctx: SimpleNamespace, arena: Arena, key: object, rows: slice, grid_w: int = 0
    ) -> None:
        """``ctx.result`` is the GEMM's contiguous output, ``ctx.valid`` the
        view of it that is the op's value."""
        ctx.bias = None if self.bias is None else self.bias[rows]
        ctx.output_shape = ctx.valid.shape
        ctx.sign = None
        if self.sign is not None:
            ctx.sign = self.sign.prepare(
                ctx.valid.shape, arena, (key, "sign"), rows.start, grid=ctx.result, grid_w=grid_w
            )
            ctx.output_shape = ctx.sign.output_shape

    def _finish(self, ctx: SimpleNamespace) -> np.ndarray:
        if ctx.bias is not None:
            ctx.result += ctx.bias
        if self.relu:
            np.maximum(ctx.result, 0.0, out=ctx.result)
        if ctx.sign is None:
            return ctx.valid
        return self.sign.run(ctx.valid, ctx.sign)


class ConvOp(_GemmOp):
    """2-D convolution on pre-packed weight matrices.

    ``weight`` is the (possibly binarized) 4-D kernel, or a 5-D stack of
    them (one per group).  Three strategies, each with its dead-on-return
    operand in the arena's scratch block:

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
      performs (bit-identical).

    Bias add and the optional fused ReLU run in place on the GEMM output;
    ``sign`` is the rest of a binary block (see :class:`SignOp`), run on the
    GEMM grid itself.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int,
        padding: int,
        relu: bool = False,
        dtype: np.dtype = np.float64,
        sign: Optional[SignOp] = None,
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
        self._set_tail(bias, (self.groups, 1, self.out_channels, 1), relu, sign)
        self.stride = int(stride)
        self.padding = int(padding)
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
            self.stride,
            self.padding,
            self.dtype,
        ) + self._tail_signature()

    def stacked(self, ops: Sequence["ConvOp"]) -> "ConvOp":
        return type(self)(
            np.concatenate([op.weight for op in ops]),
            stride=self.stride,
            padding=self.padding,
            **self._stacked_tail(ops),
        )

    def _output_size(self, shape: Tuple[int, ...]) -> Tuple[int, int]:
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

    def prepare(
        self, shape: Tuple[int, ...], arena: Arena, key: object, first_group: int = 0
    ) -> SimpleNamespace:
        groups, batch, channels, height, width = shape
        rows = self._rows(shape, first_group)
        out_h, out_w = self._output_size(shape)
        pad = self.padding
        padded_h, padded_w = height + 2 * pad, width + 2 * pad
        lead = (groups, batch)
        ctx = SimpleNamespace(weights=self._weights[rows])
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
        out = arena.buffer((key, "out"), lead + (self.out_channels, out_h * grid_w))
        ctx.result = out[..., :columns]
        ctx.valid = out.reshape(lead + (self.out_channels, out_h, grid_w))[..., :out_w]
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
        else:
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
        self._bind_tail(ctx, arena, key, rows, grid_w)
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
            np.matmul(ctx.weights, flat, out=ctx.products)
            np.copyto(ctx.valid, ctx.position_slices[0])
            for position in ctx.position_slices[1:]:
                np.add(ctx.valid, position, out=ctx.valid)
        else:
            patches = ctx.patches if ctx.patches is not None else self._windows_of(source)
            np.copyto(ctx.gathered, patches)
            np.matmul(ctx.weights, ctx.cols, out=ctx.result)
        return self._finish(ctx)


class LinearOp(_GemmOp):
    """Fully connected layer on a pre-packed (possibly binarized) weight.

    The transposed-view operand layout matches the eager
    ``inputs.matmul(weight.transpose())`` call exactly, so results are
    bit-identical to eager's at the same batch; a float-weight layer's row
    may round differently at another row count, a ±1 one's cannot.  A
    stacked op holds ``(G, out, in)`` weights and runs ``(G, B, in) @ (G,
    in, out)``: one GEMM per group over that group's
    contiguous rows, each with the single op's operand layout — which makes
    the groups independent of each other, but not the samples of a batch
    (they are the GEMM's rows).  The optional ReLU epilogue runs in place;
    ``sign`` is the rest of a binary FC block (see :class:`SignOp`).
    """

    splits_batch = False

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        relu: bool = False,
        dtype: np.dtype = np.float64,
        sign: Optional[SignOp] = None,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.weight = np.ascontiguousarray(_grouped(np.asarray(weight), 2), dtype=self.dtype)
        self.groups, self.out_features, self.in_features = self.weight.shape
        self._weight_t = self.weight.transpose(0, 2, 1)
        self._set_tail(bias, (self.groups, 1, self.out_features), relu, sign)

    def signature(self) -> tuple:
        return (type(self), self.weight.shape, self.dtype) + self._tail_signature()

    def stacked(self, ops: Sequence["LinearOp"]) -> "LinearOp":
        return type(self)(
            np.concatenate([op.weight for op in ops]), **self._stacked_tail(ops)
        )

    def _check_input(self, shape: Tuple[int, ...]) -> None:
        if shape[2] != self.in_features:
            raise CompileError(
                f"linear expects {self.in_features} input features, got {shape[2]}"
            )

    def prepare(
        self, shape: Tuple[int, ...], arena: Arena, key: object, first_group: int = 0
    ) -> SimpleNamespace:
        self._check_input(shape)
        rows = self._rows(shape, first_group)
        ctx = SimpleNamespace(weights=self._weight_t[rows])
        ctx.result = ctx.valid = arena.buffer(
            (key, "out"), tuple(shape[:2]) + (self.out_features,)
        )
        self._bind_tail(ctx, arena, key, rows)
        return ctx

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        np.matmul(x, ctx.weights, out=ctx.result)
        return self._finish(ctx)


def _maximum_into(out: np.ndarray, operands: Sequence[np.ndarray]) -> None:
    """``out`` = elementwise maximum of ``operands`` (max is exact in any order)."""
    if len(operands) == 1:
        np.copyto(out, operands[0])
        return
    np.maximum(operands[0], operands[1], out=out)
    for operand in operands[2:]:
        np.maximum(out, operand, out=out)


class MaxPoolOp(_Op):
    """2-D max pooling; padded border stays ``-inf`` so it never wins.

    Separable: first the maximum over the window's *rows*, taken on whole
    contiguous image rows at every column, then the maximum over the
    window's columns of that, which is also where the column stride is
    applied.  ``2k - 2`` elementwise passes (the first ``k - 1`` streaming
    contiguous rows) instead of ``k * k`` passes over doubly strided views;
    max is exact, so the result is bit-identical to any other order.
    """

    def __init__(self, kernel_size: int, stride: int, padding: int) -> None:
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)

    def signature(self) -> tuple:
        return (type(self), self.kernel_size, self.stride, self.padding)

    def prepare(
        self, shape: Tuple[int, ...], arena: Arena, key: object, first_group: int = 0
    ) -> SimpleNamespace:
        height, width = shape[-2:]
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)
        pad = self.padding
        ctx = SimpleNamespace(output_shape=shape[:3] + (out_h, out_w))
        ctx.padded = (
            arena.buffer(
                (key, "pad"), shape[:3] + (height + 2 * pad, width + 2 * pad), fill=-np.inf
            )
            if pad
            else None
        )
        ctx.interior = ctx.padded[..., pad:-pad, pad:-pad] if pad else None
        ctx.out = arena.buffer((key, "out"), ctx.output_shape)
        ctx.row_max = arena.buffer((key, "rows"), shape[:3] + (out_h, width + 2 * pad))
        span = self.stride * (out_w - 1) + 1
        ctx.column_views = [
            ctx.row_max[..., offset : offset + span : self.stride]
            for offset in range(self.kernel_size)
        ]
        # Row views over the persistent padded buffer never move; without
        # padding the source is the op's input and they are taken per run.
        ctx.row_views = self._row_views(ctx.padded, out_h) if pad else None
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


class BatchNormOp(_Op):
    """Inference batch norm replaying the eager op order bit for bit.

    Every BatchNorm with no sign behind it runs as this op, after its
    layer's GEMM (one with a sign behind it becomes a :class:`SignOp`'s
    thresholds).  In exact float64 it computes
    ``(x - mean) / std * gamma + beta`` with exactly the eager sequence of
    broadcast elementwise ops, then the optional fused ReLU.

    In ``float32`` mode — where the guarantee is tolerance-based, not
    bitwise — the four broadcast ops collapse to the pre-computed affine
    ``x * scale + shift`` (two dispatches); at serving batch sizes the
    per-op numpy dispatch cost rivals the array work.

    Parameters arrive shaped to broadcast against ``(groups, batch, ...)``
    inputs — ``(G, 1, F)`` or ``(G, 1, F, 1, 1)``.
    """

    def __init__(
        self,
        mean: np.ndarray,
        std: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
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
        self.relu = bool(relu)
        self._exact = self.dtype == np.float64
        if not self._exact:
            # Affine fold in float64, cast once: y = x * scale + shift.
            scale = self.gamma / self.std
            self._scale = scale.astype(self.dtype)
            self._shift = (self.beta - self.mean * scale).astype(self.dtype)

    def signature(self) -> tuple:
        return (type(self), self.mean.shape, self.relu, self.dtype)

    def stacked(self, ops: Sequence["BatchNormOp"]) -> "BatchNormOp":
        return type(self)(
            *(
                np.concatenate([getattr(op, name) for op in ops])
                for name in ("mean", "std", "gamma", "beta")
            ),
            relu=self.relu,
            dtype=self.dtype,
        )

    def prepare(
        self, shape: Tuple[int, ...], arena: Arena, key: object, first_group: int = 0
    ) -> SimpleNamespace:
        rows = self._rows(shape, first_group)
        names = ("mean", "std", "gamma", "beta") if self._exact else ("_scale", "_shift")
        return SimpleNamespace(
            output_shape=tuple(shape),
            out=arena.buffer((key, "out"), shape),
            **{name.lstrip("_"): getattr(self, name)[rows] for name in names},
        )

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        if self._exact:
            np.subtract(x, ctx.mean, out=ctx.out)
            np.divide(ctx.out, ctx.std, out=ctx.out)
            np.multiply(ctx.out, ctx.gamma, out=ctx.out)
            np.add(ctx.out, ctx.beta, out=ctx.out)
        else:
            np.multiply(x, ctx.scale, out=ctx.out)
            np.add(ctx.out, ctx.shift, out=ctx.out)
        if self.relu:
            np.maximum(ctx.out, 0.0, out=ctx.out)
        return ctx.out


class ReluOp(_Op):
    """A ReLU that no GEMM tail absorbed, into a same-shaped buffer of its own."""

    def prepare(
        self, shape: Tuple[int, ...], arena: Arena, key: object, first_group: int = 0
    ) -> SimpleNamespace:
        return SimpleNamespace(
            output_shape=tuple(shape), out=arena.buffer((key, "out"), shape)
        )

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        np.maximum(x, 0.0, out=ctx.out)
        return ctx.out


class FlattenOp(_Op):
    """Flatten each sample (all axes after ``(groups, batch)``); a reshape view."""

    def prepare(
        self, shape: Tuple[int, ...], arena: Arena, key: object, first_group: int = 0
    ) -> SimpleNamespace:
        flattened = int(np.prod(shape[2:], dtype=np.int64))
        return SimpleNamespace(output_shape=tuple(shape[:2]) + (flattened,))

    def run(self, x: np.ndarray, ctx: SimpleNamespace) -> np.ndarray:
        return x.reshape(ctx.output_shape)

