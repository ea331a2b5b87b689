"""``repro.compile`` — fused inference plans for the exit cascade.

The eager :mod:`repro.nn` stack is built for training: every op wraps its
result in an autograd :class:`~repro.nn.tensor.Tensor` and re-allocates its
intermediates.  This package provides the dedicated *inference* path the
serving stack runs on: an ahead-of-time compiler that takes a trained model
and emits plans executing on raw ``np.ndarray``s with

* the paper's fused binary block — conv/linear -> [max-pool ->] BatchNorm
  -> sign — as one GEMM plus one comparison against exact per-channel
  thresholds, pooled as booleans; any other BatchNorm runs after its layer's
  GEMM as the eager model's elementwise ops (running stats), never folded
  into the weights, so a binary exit's ±1 GEMM stays exact,
* conv/linear/BatchNorm + ReLU fusion,
* zero-copy strided-window (or contiguous row-run) im2col over pre-packed
  (pre-binarized) weight matrices,
* a cache-resident memory plan: forwards run depth-first in (group range,
  batch range) tiles over one tile-sized buffer arena per plan, with
  im2col scratch shared by every op, and the device tier's identical
  branches stacked into one grouped program, and
* selectable compute precision (``PRECISIONS``): exact ``"float64"``
  (default; ``"bitpacked"`` is another name for it) and tolerance-mode
  ``"float32"`` (fp32 weights/buffers/GEMMs) — each enforced by
  :func:`verify_compiled` with its own documented guarantee.

Entry points: :func:`compile_plan` for a single module stack,
:func:`compile_ddnn` for a whole multi-exit DDNN, :func:`compiled_plan_for`
for the plan a model keeps (compiled on first use, dropped whenever its
weights change, so no caller invalidates anything), and
:func:`verify_compiled` for the numerical-equivalence guarantee against the
eager path.  Every inference forward outside training runs through this
package: the serving fabric's tier sections and its shed path,
:class:`~repro.hierarchy.runtime.HierarchyRuntime` and
:class:`~repro.serving.server.DDNNServer` always do (at ``"float64"``), and
:class:`~repro.core.oracle.ExitOracle` does by default
(``capture(compile=False)`` is the eager reference the tests compare to).
"""

from .cache import compiled_plan_for
from .ddnn import (
    CompiledBranch,
    CompiledDDNN,
    CompiledDDNNOutput,
    CompiledTier,
    compile_aggregator,
    compile_ddnn,
    routing_agreement,
    verify_compiled,
)
from .ops import Arena, CompileError, PRECISIONS, precision_dtype
from .plan import CompiledPlan, OpTiming, compile_plan, flatten_modules

__all__ = [
    "Arena",
    "CompileError",
    "CompiledPlan",
    "OpTiming",
    "PRECISIONS",
    "precision_dtype",
    "compile_plan",
    "flatten_modules",
    "CompiledBranch",
    "CompiledTier",
    "CompiledDDNN",
    "CompiledDDNNOutput",
    "compile_aggregator",
    "compile_ddnn",
    "compiled_plan_for",
    "routing_agreement",
    "verify_compiled",
]
