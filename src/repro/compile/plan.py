"""Compile module stacks into fused inference plans.

The compiler takes the modules the DDNN and its float-cloud variant are
built from (``_SUPPORTED_MODULES``; anything else raises
:class:`~repro.compile.ops.CompileError`).  It flattens a module tree
(``Sequential``, the fused ``ConvPBlock``/``FCBlock`` blocks, raw layers)
into a list of primitive layers, then runs a peephole pass that:

* **binarizes and pre-packs weights** — ``BinaryConv2d``/``BinaryLinear``
  latent weights are materialised to ``{-1, +1}`` once, at compile time;
* **turns the tail of a binary block into one comparison** — ``[MaxPool2d
  ->] BatchNorm -> sign`` behind a conv/linear layer (the paper's fused
  blocks, Fig. 3) becomes that layer's :class:`~repro.compile.ops.SignOp`:
  exact per-channel thresholds on the GEMM output (the layer's bias and the
  BatchNorm are inside them), hoisted above the pool, which then ORs
  booleans; a ``BatchNorm -> sign`` pair behind anything else becomes a
  ``SignOp`` of its own;
* **keeps every other BatchNorm an op of its own** — a
  :class:`~repro.compile.ops.BatchNormOp` after the layer's GEMM, replaying
  the eager elementwise ops on the running statistics.  Nothing is folded
  into the weights, so a binary exit's GEMM stays the exact ±1 one and its
  logits do not depend on how many rows the GEMM had;
* **fuses ReLU** into the preceding conv/linear/BatchNorm; a ReLU behind
  anything else becomes a :class:`~repro.compile.ops.ReluOp` of its own.

The resulting :class:`CompiledPlan` executes on raw ``np.ndarray``s,
depth-first in *tiles*: a forward runs in passes over as many groups and
samples as keep every buffer the ops touch cache-resident, each pass going
through all the ops before the next starts.  The buffer arena is therefore
sized for one tile, whatever the batch; programs (per-op bindings of the
arena's leading rows and a group range's parameter rows) are cached per
tile shape, so alternating shapes — a server interleaving batch-1 shed
forwards with micro-batches — pays the preparation cost once per shape and
owns one set of buffers, not one per shape.  :meth:`CompiledPlan.stacked`
fuses N structurally identical plans (the DDNN's device branches) into one
grouped plan that computes all of them side by side.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.binary import BinaryActivation, BinaryConv2d, BinaryLinear
from ..nn.blocks import ConvPBlock, FCBlock
from ..nn.functional import _IM2COL_BLOCK_BYTES
from ..nn.layers import (
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
from .ops import (
    Arena,
    BatchNormOp,
    CompileError,
    ConvOp,
    FlattenOp,
    LinearOp,
    MaxPoolOp,
    ReluOp,
    SignOp,
    _Op,
    precision_dtype,
    sign_thresholds,
    stack_ops,
)

__all__ = [
    "CompileError",
    "CompiledPlan",
    "OpTiming",
    "compile_plan",
    "flatten_modules",
]


@dataclass(frozen=True)
class OpTiming:
    """Accumulated wall time of one op position in a compiled plan."""

    plan: str  # owning plan's name
    index: int  # position in the op list
    op: str  # op class name, e.g. "ConvOp"
    calls: int
    total_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

ModuleLike = Union[Module, Sequence[Module]]

#: The module types :func:`flatten_modules` unpacks and :func:`build_ops`
#: lowers; a :class:`CompileError` lists their names.
_SUPPORTED_MODULES = (
    Sequential,
    ConvPBlock,
    FCBlock,
    Conv2d,
    BinaryConv2d,
    Linear,
    BinaryLinear,
    BatchNorm1d,
    BatchNorm2d,
    MaxPool2d,
    ReLU,
    BinaryActivation,
    Flatten,
)


def flatten_modules(module: ModuleLike) -> List[Module]:
    """Flatten a module (or list of modules) into primitive layers."""
    if isinstance(module, (list, tuple)):
        primitives: List[Module] = []
        for child in module:
            primitives.extend(flatten_modules(child))
        return primitives
    if isinstance(module, Sequential):
        primitives = []
        for child in module:
            primitives.extend(flatten_modules(child))
        return primitives
    if isinstance(module, ConvPBlock):
        return [module.conv, module.pool, module.batch_norm, module.activation]
    if isinstance(module, FCBlock):
        primitives = [module.linear, module.batch_norm]
        if not module.final:
            primitives.append(module.activation)
        return primitives
    return [module]


def _layer_weights(layer) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Snapshot (and binarize, for BNN layers) a conv/linear layer's weights
    at compile time."""
    weight = np.asarray(layer.weight.data, dtype=np.float64)
    if isinstance(layer, (BinaryConv2d, BinaryLinear)):
        weight = np.where(weight >= 0, 1.0, -1.0)
    else:
        weight = weight.copy()
    bias = None if layer.bias is None else np.asarray(layer.bias.data, dtype=np.float64).copy()
    return weight, bias


def build_ops(primitives: Sequence[Module], precision: str = "float64") -> List[_Op]:
    """Peephole pass: primitive layers -> fused op list.

    ``precision`` sets the ops' float dtype only (see
    :func:`~repro.compile.ops.precision_dtype`): every conv/linear layer,
    binary or not, compiles to one :class:`~repro.compile.ops.ConvOp` or
    :class:`~repro.compile.ops.LinearOp`.
    """
    dtype = precision_dtype(precision)
    primitives = list(primitives)
    ops: List[_Op] = []
    index = 0
    total = len(primitives)

    def _at(position: int) -> Optional[Module]:
        return primitives[position] if position < total else None

    def _binary_tail(cursor: int, batch_norm: type, bias: Optional[np.ndarray]):
        """``(SignOp, position after it)`` when the rest of a binary block —
        ``[MaxPool2d ->] BatchNorm -> sign`` — starts at ``cursor``, behind a
        conv/linear layer with ``bias`` (which becomes part of the
        thresholds: the caller drops its add) or behind nothing; else ``None``."""
        pool = _at(cursor) if batch_norm is BatchNorm2d else None
        if not isinstance(pool, MaxPool2d):
            pool = None
        at = cursor if pool is None else cursor + 1
        bn = _at(at)
        if not (isinstance(bn, batch_norm) and isinstance(_at(at + 1), BinaryActivation)):
            return None
        threshold, flipped = sign_thresholds(
            bias,
            np.asarray(bn.running_mean, dtype=np.float64),
            np.sqrt(np.asarray(bn.running_var, dtype=np.float64) + bn.eps),
            np.asarray(bn.gamma.data, dtype=np.float64),
            np.asarray(bn.beta.data, dtype=np.float64),
        )
        geometry = (1, 1, 0) if pool is None else (pool.kernel_size, pool.stride, pool.padding)
        return SignOp(threshold[None], flipped[None], pool=geometry, dtype=dtype), at + 2

    while index < total:
        module = primitives[index]

        if isinstance(module, (Conv2d, BinaryConv2d, Linear, BinaryLinear)):
            conv = isinstance(module, (Conv2d, BinaryConv2d))
            batch_norm = BatchNorm2d if conv else BatchNorm1d
            weight, bias = _layer_weights(module)
            cursor = index + 1
            tail = _binary_tail(cursor, batch_norm, bias)
            if tail is not None:
                sign, cursor = tail
                bias = None  # part of the thresholds
                relu = False
            else:
                sign = None
                relu = isinstance(_at(cursor), ReLU)
                if relu:
                    cursor += 1
            kwargs = dict(relu=relu, dtype=dtype, sign=sign)
            if conv:
                kwargs.update(stride=module.stride, padding=module.padding)
            ops.append((ConvOp if conv else LinearOp)(weight, bias, **kwargs))
            index = cursor
            continue

        if isinstance(module, (BatchNorm1d, BatchNorm2d)):
            tail = _binary_tail(index, type(module), None)
            if tail is not None:
                sign, index = tail
                ops.append(sign)
                continue
            relu = isinstance(_at(index + 1), ReLU)
            # Broadcasts against (groups, batch, features[, h, w]) inputs.
            shape = (
                (1, 1, module.num_features)
                if isinstance(module, BatchNorm1d)
                else (1, 1, module.num_features, 1, 1)
            )
            std = np.sqrt(np.asarray(module.running_var, dtype=np.float64) + module.eps)
            ops.append(
                BatchNormOp(
                    mean=np.asarray(module.running_mean, dtype=np.float64).reshape(shape),
                    std=std.reshape(shape),
                    gamma=np.asarray(module.gamma.data, dtype=np.float64).reshape(shape),
                    beta=np.asarray(module.beta.data, dtype=np.float64).reshape(shape),
                    relu=relu,
                    dtype=dtype,
                )
            )
            index += 2 if relu else 1
            continue

        if isinstance(module, MaxPool2d):
            ops.append(MaxPoolOp(module.kernel_size, module.stride, module.padding))
        elif isinstance(module, ReLU):
            ops.append(ReluOp())
        elif isinstance(module, BinaryActivation):
            ops.append(SignOp(dtype=dtype))
        elif isinstance(module, Flatten):
            ops.append(FlattenOp())
        else:
            raise CompileError(
                f"cannot compile module of type {type(module).__name__}; "
                f"supported: {', '.join(cls.__name__ for cls in _SUPPORTED_MODULES)}"
            )
        index += 1

    return ops


class CompiledPlan:
    """A fused inference program over raw ``np.ndarray``s.

    The plan snapshots the module's weights at compile time (inference
    semantics: BatchNorm always uses running statistics).

    **Passes.**  A forward runs in tiles of ``(group range, batch range)``
    — as many samples of every group as keep the ops' buffers plus their
    im2col scratch within ``_IM2COL_BLOCK_BYTES`` or, when one sample of all
    groups already exceeds that (the six device branches: 1.9 MB), as many
    *groups* of one sample as fit — and runs every op on one tile before the
    next tile starts, so intermediates are consumed while still in cache
    instead of streaming the whole batch through memory once per op.  This
    is the one blocking scheme of the compiled stack, the same in every
    precision, and it is exact: groups are independent in every op (a
    grouped linear layer is one GEMM per group), and every op a batch range
    goes through treats the samples of a batch independently (a conv is one
    GEMM per sample).  The one op that does not is the linear layer, whose
    GEMM has the batch as its row count (and BLAS may round a float-weight
    row differently in a shorter matrix), so a plan that contains one —
    alone or after convs — never splits its batch, only its groups; a
    sample of the DDNN's linear plans is a few hundred bytes.  Buffers live
    in a private :class:`Arena` sized for the largest tile so far, which every
    group range shares; the first forward with a new tile shape prepares a
    program per group range (binding the arena's leading rows and the
    range's parameter rows per op) which is then cached, so later forwards —
    also after other shapes in between — run with zero preparation work.

    **Output lifetime.**  The returned array is a view into a buffer that
    forwards of *every* batch size share: it is valid until the next
    forward call on this plan, whatever that call's shape.  Copy a result
    that must outlive it.

    A plan built by :meth:`stacked` is *grouped*: it holds N parameter sets
    and maps a ``(N, batch, ...)`` input to a ``(N, batch, ...)`` output,
    row ``n`` being what the ``n``-th source plan computes.
    """

    def __init__(self, module: ModuleLike, name: str = "", precision: str = "float64") -> None:
        self.name = name
        self.dtype = precision_dtype(precision)
        self._bind(build_ops(flatten_modules(module), precision=precision), groups=None)

    def _bind(self, ops: List[_Op], groups: Optional[int]) -> None:
        self.ops = ops
        #: Parameter sets the ops hold, which inputs then carry as their leading
        #: axis; ``None`` for a plan compiled from one module stack.
        self.groups = groups
        self._arena = Arena(dtype=self.dtype)
        #: Whole-batch outputs of forwards that ran in several tiles.
        self._outputs = Arena(dtype=self.dtype)
        #: (tile input shape, first group) -> list of (op, context) pairs
        self._programs: dict = {}
        #: (groups, *sample shape) -> bytes one sample of every group takes
        self._sample_bytes: dict = {}
        #: input shape -> its (groups, samples) tile, checked and sized once
        self._schedules: dict = {}
        #: A float linear GEMM takes the batch as rows: never split it.
        self._splits_batch = all(op.splits_batch for op in ops)
        self._planned_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None
        # Per-op wall-time accumulation (opt-in; the untimed forward loop
        # stays free of clock calls).
        self._timed = False
        self._op_seconds = np.zeros(len(self.ops))
        self._op_calls = np.zeros(len(self.ops), dtype=np.int64)

    @classmethod
    def stacked(cls, plans: Sequence["CompiledPlan"]) -> "CompiledPlan":
        """One grouped plan computing ``plans`` side by side; they must be
        structurally identical (op for op, shape for shape) or it raises
        :class:`CompileError`."""
        first = plans[0]
        if any(len(plan.ops) != len(first.ops) for plan in plans):
            raise CompileError(
                "cannot stack plans of different length: "
                f"{[len(plan.ops) for plan in plans]} ops"
            )
        ops = [stack_ops(column) for column in zip(*(plan.ops for plan in plans))]
        plan = cls.__new__(cls)
        plan.name = first.name
        plan.dtype = first.dtype
        plan._bind(ops, groups=len(plans))
        return plan

    def with_own_buffers(self) -> "CompiledPlan":
        """A plan running this plan's ops — the same weights and sign
        thresholds, compiled once — over an arena, program cache and timing
        counters of its own, so it and this plan can run concurrently and
        neither overwrites the other's outputs."""
        plan = copy.copy(self)
        plan._bind(self.ops, groups=self.groups)
        return plan

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"CompiledPlan({len(self.ops)} ops{label})"

    def arena_bytes(self) -> int:
        """Bytes of buffer memory the plan currently holds."""
        return self._arena.nbytes() + self._outputs.nbytes()

    def _program_for(self, shape: Tuple[int, ...], first_group: int) -> list:
        """The ``(op, context)`` steps for one tile: a ``(groups, batch, ...)``
        input holding the groups from ``first_group`` on."""
        if self._arena.reserve(shape[1]):
            self._programs.clear()  # they bind the dropped, smaller buffers
        steps = self._programs.get((shape, first_group))
        if steps is None:
            current = tuple(shape)
            steps = []
            for index, op in enumerate(self.ops):
                context = op.prepare(current, self._arena, index, first_group)
                steps.append((op, context))
                current = context.output_shape
            self._programs[shape, first_group] = steps
        return steps

    def _tile(self, shape: Tuple[int, ...]) -> Tuple[int, int]:
        """``(groups, samples)`` one pass over this kind of input takes: as
        many samples of every group as keep the pass's buffers and scratch
        inside the cache-block budget — sized by preparing a single-sample
        program on a throwaway arena — and, when not even one sample of
        every group fits, as many groups as do.  A float linear layer's GEMM
        is never split: the batch stays whole and only the groups divide."""
        groups, batch = shape[:2]
        kind = shape[:1] + shape[2:]
        sample = self._sample_bytes.get(kind)
        if sample is None:
            probe = Arena(dtype=self.dtype)
            probe.reserve(1)
            current = shape[:1] + (1,) + shape[2:]
            for index, op in enumerate(self.ops):
                current = op.prepare(current, probe, index).output_shape
            sample = self._sample_bytes[kind] = max(1, probe.nbytes())
        samples = batch
        if self._splits_batch:
            samples = min(batch, max(1, _IM2COL_BLOCK_BYTES // sample))
        # ``sample / groups`` bytes per image: every group when the samples fit.
        fitting = _IM2COL_BLOCK_BYTES * groups // (sample * samples)
        return min(groups, max(1, fitting)), samples

    def _run(self, x: np.ndarray, first_group: int) -> np.ndarray:
        out = x
        steps = self._program_for(x.shape, first_group)
        if self._timed:
            for index, (op, context) in enumerate(steps):
                started = time.perf_counter()
                out = op.run(out, context)
                self._op_seconds[index] += time.perf_counter() - started
        else:
            for op, context in steps:
                out = op.run(out, context)
        return out

    def _schedule(self, shape: Tuple[int, ...]) -> Tuple[int, int]:
        """:meth:`_tile` for a checked input shape, derived once per shape."""
        if len(shape) < 3:
            raise CompileError(
                "plan input needs a batch axis and at least one sample axis, "
                f"got shape {shape[1:]}"
            )
        if shape[0] != (self.groups or 1):
            raise CompileError(
                f"plan holds {self.groups} parameter groups, got an input with {shape[0]}"
            )
        self._schedules[shape] = tiles = self._tile(shape)
        return tiles

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if self.groups is None:
            x = x[None]
        tiles = self._schedules.get(x.shape)
        if tiles is None:
            tiles = self._schedule(x.shape)
        tile_groups, tile_batch = tiles
        groups, batch = x.shape[:2]
        if groups <= tile_groups and batch <= tile_batch:
            out = self._run(x, 0)
        else:
            # Depth-first over the tiles: every op on one cache-sized slice of
            # groups and samples before the next slice, rather than every
            # sample through one op (and out of the cache) before the next op.
            out = None
            for first in range(0, groups, tile_groups):
                for start in range(0, batch, tile_batch):
                    samples = slice(start, start + tile_batch)
                    part = self._run(x[first : first + tile_groups, samples], first)
                    if out is None:
                        self._outputs.reserve(batch)
                        out = self._outputs.buffer("out", (groups, batch) + part.shape[2:])
                    out[first : first + tile_groups, samples] = part
        if self._timed:
            self._op_calls += 1  # per forward, however many tiles it took
        if self.groups is None:
            x, out = x[0], out[0]
        self._planned_shape, self.output_shape = x.shape, out.shape
        return out

    __call__ = forward

    # -- operator timing hook ------------------------------------------- #
    def enable_timing(self) -> None:
        """Accumulate per-op wall time on every subsequent forward."""
        self._timed = True

    def disable_timing(self) -> None:
        self._timed = False

    def reset_timing(self) -> None:
        """Zero the accumulated per-op counters (keeps timing enabled/disabled)."""
        self._op_seconds[:] = 0.0
        self._op_calls[:] = 0

    def op_timings(self) -> List[OpTiming]:
        """Per-op accumulated timings, in op order."""
        return [
            OpTiming(
                plan=self.name,
                index=index,
                op=type(op).__name__,
                calls=int(self._op_calls[index]),
                total_s=float(self._op_seconds[index]),
            )
            for index, op in enumerate(self.ops)
        ]


def compile_plan(module: ModuleLike, name: str = "", precision: str = "float64") -> CompiledPlan:
    """Compile a module (or list of modules) into a :class:`CompiledPlan`.

    ``precision`` selects the compute dtype (see ``repro.compile.ops.
    PRECISIONS``).
    """
    return CompiledPlan(module, name=name, precision=precision)
