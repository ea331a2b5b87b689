"""Compile a whole :class:`~repro.core.ddnn.DDNN` into raw-array plans.

:func:`compile_ddnn` mirrors the eager model structurally — per-device
branches, aggregators, optional edge tier, cloud tier — but every NN section
becomes a :class:`~repro.compile.plan.CompiledPlan` and every aggregator a
plain function over ``np.ndarray``s, so a full multi-exit forward pass never
touches the autograd :class:`~repro.nn.tensor.Tensor` machinery.

The paper's end devices all run the same block on their own view, so their
compiled branches *stack*: ``device_group`` is one grouped program computing
every device's features and class scores in a single pass.  The
sub-plans (``device_group``, ``edge_tiers``, ``cloud``) are exposed
individually so the hierarchy simulator can run each tier's section on its
own, and :func:`verify_compiled` provides the numerical-equivalence
guarantee against the eager path.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..core.aggregation import (
    Aggregator,
    AveragePoolAggregator,
    ConcatAggregator,
    MaxPoolAggregator,
)
from ..core.ddnn import DDNN, DeviceBranch, _UpperTier
from ..core.oracle import ExitOracle
from ..nn.layers import Flatten
from ..nn.tensor import Tensor, no_grad
from .ops import CompileError, precision_dtype
from .plan import CompiledPlan

__all__ = [
    "CompiledAggregator",
    "CompiledBranch",
    "CompiledTier",
    "CompiledDDNNOutput",
    "CompiledDDNN",
    "compile_ddnn",
    "compile_aggregator",
    "routing_agreement",
    "verify_compiled",
]

ViewsLike = Union[np.ndarray, Sequence[np.ndarray], Sequence[Tensor]]

#: A compiled aggregator: a ``(batch, sources, ...)`` array -> fused array.
CompiledAggregator = Callable[[np.ndarray], np.ndarray]


def compile_aggregator(aggregator: Aggregator) -> CompiledAggregator:
    """Compile an aggregation scheme into a plain-array function.

    The compiled form takes its sources stacked along axis 1 — a
    ``(batch, sources, ...)`` array, the layout a tier stages its arriving
    rows in — and replays the eager computation order exactly (max for MP,
    sequential sum for AP, concatenation along the feature axis + projection
    for CC), so fused outputs are bit-identical to the eager aggregators.
    In that layout a concatenation is a reshape: free for a staged,
    contiguous batch.
    """
    if isinstance(aggregator, MaxPoolAggregator):

        def run_max(stacked: np.ndarray) -> np.ndarray:
            return stacked.max(axis=1)

        return run_max

    if isinstance(aggregator, AveragePoolAggregator):

        def run_avg(stacked: np.ndarray) -> np.ndarray:
            sources = stacked.shape[1]
            if sources == 1:
                return stacked[:, 0]
            total = stacked[:, 0]
            for index in range(1, sources):
                total = total + stacked[:, index]
            return total * (1.0 / sources)

        return run_avg

    if isinstance(aggregator, ConcatAggregator):
        projection = aggregator.projection
        weight_t = None if projection is None else projection.weight.data.copy().transpose()
        bias = (
            None
            if projection is None or projection.bias is None
            else projection.bias.data.copy()
        )

        def run_concat(stacked: np.ndarray) -> np.ndarray:
            combined = stacked.reshape((len(stacked), -1) + stacked.shape[3:])
            if weight_t is not None:
                combined = combined @ weight_t
                if bias is not None:
                    combined = combined + bias
            return combined

        return run_concat

    raise CompileError(f"cannot compile aggregator of type {type(aggregator).__name__}")


class CompiledBranch:
    """A device branch: compiled feature extractor + exit classifier."""

    def __init__(self, branch: DeviceBranch, precision: str = "float64") -> None:
        self.features = CompiledPlan(
            branch.features, name="device-features", precision=precision
        )
        self.classify = CompiledPlan(
            [Flatten(), branch.classifier], name="device-classifier", precision=precision
        )

    @classmethod
    def stacked(cls, branches: Sequence["CompiledBranch"]) -> "CompiledBranch":
        """All ``branches`` as one grouped branch in device-major layout —
        ``(D, N, C, H, W)`` views in, ``(D, N, ...)`` feature maps and class
        scores out, so each device's rows stay contiguous.  Raises
        :class:`CompileError` when they are not structurally identical."""
        group = cls.__new__(cls)
        group.features = CompiledPlan.stacked([branch.features for branch in branches])
        group.classify = CompiledPlan.stacked([branch.classify for branch in branches])
        return group

    def __call__(self, view: np.ndarray):
        feature_map = self.features(view)
        return feature_map, self.classify(feature_map)


class CompiledTier:
    """An edge or cloud section: compiled ConvP stack + FC head."""

    def __init__(self, tier: _UpperTier, name: str = "tier", precision: str = "float64") -> None:
        self.features = CompiledPlan(tier.features, name=f"{name}-features", precision=precision)
        head = [Flatten()]
        if tier.hidden is not None:
            head.append(tier.hidden)
        head.append(tier.classifier)
        self.head = CompiledPlan(head, name=f"{name}-head", precision=precision)

    def __call__(self, aggregated: np.ndarray):
        feature_map = self.features(aggregated)
        return feature_map, self.head(feature_map)


def _with_own_buffers(part, *plans: str):
    """A copy of a branch or tier whose ``plans`` attributes are
    :meth:`CompiledPlan.with_own_buffers` copies."""
    part = copy.copy(part)
    for name in plans:
        setattr(part, name, getattr(part, name).with_own_buffers())
    return part


@dataclass
class CompiledDDNNOutput:
    """All exit and intermediate outputs of one compiled forward pass.

    Mirrors :class:`~repro.core.ddnn.DDNNOutput` but holds raw arrays.  The
    arrays are views into plan buffers that forwards of every batch size
    share: they are valid until the next forward call on the same
    :class:`CompiledDDNN`, whatever its batch size — copy what must outlive it.
    """

    exit_logits: List[np.ndarray]
    exit_names: List[str]
    device_scores: List[np.ndarray] = field(default_factory=list)
    device_features: List[np.ndarray] = field(default_factory=list)
    edge_features: List[np.ndarray] = field(default_factory=list)

    @property
    def final_logits(self) -> np.ndarray:
        return self.exit_logits[-1]


class CompiledDDNN:
    """Inference-only compiled counterpart of a trained :class:`DDNN`.

    Weights are snapshotted at compile time, and ``weights_version`` records
    the model's ``_weights_version`` they were taken at (bundles made by
    :meth:`with_own_buffers` keep it), so a holder can tell when the model
    has moved on.
    Every plan keeps one set of buffers sized for the largest batch it has
    met (see :class:`~repro.compile.plan.CompiledPlan`), so one bundle is
    for one caller at a time and its outputs live until its next forward.
    """

    def __init__(self, model: DDNN, precision: str = "float64") -> None:
        self.dtype = precision_dtype(precision)
        self.weights_version = model._weights_version
        self.num_devices = model.config.num_devices
        self.exit_names = list(model.exit_names)
        self.has_local_exit = model.has_local_exit
        self.has_edge = model.has_edge

        #: The whole device tier as one grouped program (a DDNN builds every
        #: branch from one config, so they always stack).
        self.device_group = CompiledBranch.stacked(
            [
                CompiledBranch(branch, precision=precision)
                for branch in model.device_branches
            ]
        )
        self.local_aggregator: Optional[CompiledAggregator] = (
            compile_aggregator(model.local_aggregator) if model.has_local_exit else None
        )

        self.edge_aggregators: List[CompiledAggregator] = []
        self.edge_tiers: List[CompiledTier] = []
        self.edge_device_groups: List[List[int]] = []
        self.edge_exit_aggregator: Optional[CompiledAggregator] = None
        if model.has_edge:
            self.edge_device_groups = [list(group) for group in model.edge_device_groups]
            for aggregator, edge in zip(model._edge_aggregators, model.edge_models):
                self.edge_aggregators.append(compile_aggregator(aggregator))
                self.edge_tiers.append(CompiledTier(edge, name="edge", precision=precision))
            self.edge_exit_aggregator = compile_aggregator(model.edge_exit_aggregator)

        self.cloud_aggregator = compile_aggregator(model.cloud_aggregator)
        self.cloud = CompiledTier(model.cloud, name="cloud", precision=precision)

    def with_own_buffers(self) -> "CompiledDDNN":
        """A bundle sharing this one's compiled ops — weights, BatchNorm
        statistics, sign thresholds and aggregators, all read-only after
        compilation — with arenas, program caches and timing counters of its
        own.  Nothing is compiled: it is how every serving worker that must
        not share buffers gets a bundle (one per simulated deployment, one
        per thread-worker slot) from the model's one
        :func:`~repro.compile.cache.compiled_plan_for` plan.
        Its outputs live until *its* next forward, and it runs concurrently
        with every other bundle over the same ops."""
        bundle = copy.copy(self)
        bundle.device_group = _with_own_buffers(self.device_group, "features", "classify")
        bundle.edge_tiers = [
            _with_own_buffers(tier, "features", "head") for tier in self.edge_tiers
        ]
        bundle.cloud = _with_own_buffers(self.cloud, "features", "head")
        return bundle

    # -- operator timing hook ------------------------------------------- #
    def plans(self) -> List[CompiledPlan]:
        """Every :class:`CompiledPlan` in the model, in forward order."""
        found = [self.device_group.features, self.device_group.classify]
        for tier in self.edge_tiers:
            found.extend([tier.features, tier.head])
        found.extend([self.cloud.features, self.cloud.head])
        return found

    def enable_timing(self) -> None:
        """Accumulate per-op wall time on every plan (aggregators are untimed)."""
        for plan in self.plans():
            plan.enable_timing()

    def disable_timing(self) -> None:
        for plan in self.plans():
            plan.disable_timing()

    def reset_timing(self) -> None:
        for plan in self.plans():
            plan.reset_timing()

    def op_timings(self):
        """Per-op accumulated timings across every plan, in forward order."""
        timings = []
        for plan in self.plans():
            timings.extend(plan.op_timings())
        return timings

    def arena_bytes(self) -> int:
        """Bytes of buffer memory every plan of the bundle currently holds."""
        return sum(plan.arena_bytes() for plan in self.plans())

    # ------------------------------------------------------------------ #
    def _device_major(self, views: ViewsLike) -> np.ndarray:
        """The multi-view batch as a ``(D, N, C, H, W)`` array (a view of a
        batch-major ``(N, D, C, H, W)`` array, a stack of per-device streams)."""
        if isinstance(views, (list, tuple)):
            array = np.stack(
                [np.asarray(v.data if isinstance(v, Tensor) else v) for v in views]
            )
        else:
            array = np.asarray(views)
            if array.ndim != 5:
                raise ValueError(f"expected views of shape (N, D, C, H, W), got {array.shape}")
            array = array.swapaxes(0, 1)
        if len(array) != self.num_devices:
            raise ValueError(
                f"model has {self.num_devices} devices but received "
                f"{len(array)} view streams"
            )
        return array

    def first_exit_logits(self, views: ViewsLike) -> np.ndarray:
        """The first exit's logits, computing no more of the model than they
        need: the device group and the local aggregator when the model has a
        local exit (the whole forward otherwise).  Bit-identical to
        ``forward(views).exit_logits[0]`` and, like it, valid until the
        bundle's next forward."""
        if not self.has_local_exit:
            return self.forward(views).exit_logits[0]
        _, scores = self.device_group(self._device_major(views))
        return self.local_aggregator(scores.swapaxes(0, 1))

    def forward(self, views: ViewsLike) -> CompiledDDNNOutput:
        """Compute every exit's logits for a multi-view batch, autograd-free."""
        feature_maps, scores = self.device_group(self._device_major(views))
        # Batch-major views: every compiled aggregator takes its sources on axis 1.
        by_sample = feature_maps.swapaxes(0, 1)

        exit_logits: List[np.ndarray] = []
        exit_names: List[str] = []

        if self.has_local_exit:
            exit_logits.append(self.local_aggregator(scores.swapaxes(0, 1)))
            exit_names.append("local")

        edge_features: List[np.ndarray] = []
        if self.has_edge:
            edge_scores: List[np.ndarray] = []
            for aggregator, tier, group in zip(
                self.edge_aggregators, self.edge_tiers, self.edge_device_groups
            ):
                aggregated = aggregator(by_sample[:, group])
                feature_map, logits = tier(aggregated)
                edge_features.append(feature_map)
                edge_scores.append(logits)
            if len(edge_scores) == 1:
                edge_logits = edge_scores[0]
            else:
                edge_logits = self.edge_exit_aggregator(np.stack(edge_scores, axis=1))
            exit_logits.append(edge_logits)
            exit_names.append("edge")
            cloud_sources = np.stack(edge_features, axis=1)
        else:
            cloud_sources = by_sample

        aggregated = self.cloud_aggregator(cloud_sources)
        _, cloud_logits = self.cloud(aggregated)
        exit_logits.append(cloud_logits)
        exit_names.append("cloud")

        return CompiledDDNNOutput(
            exit_logits=exit_logits,
            exit_names=exit_names,
            device_scores=list(scores),
            device_features=list(feature_maps),
            edge_features=edge_features,
        )

    __call__ = forward


def compile_ddnn(model: DDNN, precision: str = "float64") -> CompiledDDNN:
    """Compile a trained DDNN into an inference-only :class:`CompiledDDNN`.

    ``precision`` selects the compute mode — ``"float64"`` (exact default)
    or ``"float32"`` (fp32 buffers/GEMMs at fp32 tolerance); ``"bitpacked"``
    names the float64 plan.
    """
    return CompiledDDNN(model, precision=precision)


#: Default per-dtype allclose tolerances for :func:`verify_compiled`.
_VERIFY_TOLERANCES = {
    np.dtype(np.float64): (1e-5, 1e-6),
    np.dtype(np.float32): (1e-3, 1e-4),
}

#: Uniform entropy thresholds swept by the fp32 routing-agreement check
#: when the caller does not pin specific cascade thresholds.
_AGREEMENT_THRESHOLD_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


def routing_agreement(
    reference_logits: Sequence[np.ndarray],
    candidate_logits: Sequence[np.ndarray],
    thresholds: Optional[Sequence[float]] = None,
) -> float:
    """Fraction of (sample, threshold) routing decisions that agree.

    With ``thresholds=None`` the agreement is pooled over a uniform grid of
    entropy thresholds, exercising several decision boundaries instead of
    one; pass explicit cascade thresholds to check a specific deployment.
    """
    num_exits = len(reference_logits)
    if num_exits != len(candidate_logits):
        raise ValueError("reference and candidate must have the same exits")
    grids = (
        [[value] * (num_exits - 1) for value in _AGREEMENT_THRESHOLD_GRID]
        if thresholds is None
        else [list(thresholds)]
    )
    names = [f"exit{index}" for index in range(num_exits)]
    reference_oracle = ExitOracle(np.stack(reference_logits), names)
    candidate_oracle = ExitOracle(np.stack(candidate_logits), names)
    agree = 0
    total = 0
    for grid in grids:
        reference = reference_oracle.route(grid).exit_indices
        candidate = candidate_oracle.route(grid).exit_indices
        agree += int(np.count_nonzero(reference == candidate))
        total += reference.shape[0]
    return agree / total if total else 1.0


def verify_compiled(
    model: DDNN,
    compiled: CompiledDDNN,
    views: np.ndarray,
    rtol: Optional[float] = None,
    atol: Optional[float] = None,
    precision: Optional[str] = None,
    thresholds: Optional[Sequence[float]] = None,
    min_routing_agreement: float = 0.999,
) -> float:
    """Assert the compiled model honors its precision-mode guarantee.

    Returns the max abs per-exit logit difference vs the eager forward.
    ``views`` must be finite: compiled plans are specified for finite inputs
    (``±0.0`` and subnormals included) and what a NaN or an infinity turns
    into is not — a compiled binary block ORs comparisons where eager takes
    a maximum, and only the maximum carries a NaN through to a -1.
    Per-mode guarantees (each raises :class:`AssertionError` on violation):

    * ``"float64"`` — the default: per-exit logits allclose to eager at
      float32-level tolerance; only that is asserted here.  A binary
      model's logits are bit-identical to eager at any batch shape (its
      blocks are exact, and a BatchNorm with no sign behind it replays the
      eager ops after the GEMM) unless an input puts a first-conv sum
      within a last bit of its sign threshold: that float convolution is
      within 1e-12 of eager before its sign (see
      ``repro.compile.ops.PRECISIONS``), as is a float-weight layer of the
      mixed-precision cloud.
    * ``"float32"`` — per-exit logits allclose to eager at fp32 tolerance,
      plus entropy-threshold routing agreement >= ``min_routing_agreement``
      (99.9% by default) against the fp64 logits, pooled over a threshold
      grid (or the explicit ``thresholds``).  Binary blocks compare their
      fp32 GEMM output against the float64-derived sign thresholds cast to
      float32.
    * ``"bitpacked"`` — names the float64 plan, and verifies as it.
    """
    if precision is not None and precision_dtype(precision) != compiled.dtype:
        raise ValueError(
            f"verify_compiled(precision={precision!r}) does not match the "
            f"compiled model's dtype {compiled.dtype}"
        )
    default_rtol, default_atol = _VERIFY_TOLERANCES[compiled.dtype]
    rtol = default_rtol if rtol is None else rtol
    atol = default_atol if atol is None else atol

    model.eval()
    with no_grad():
        eager = model(views)
    fast = compiled(views)

    worst = 0.0
    for name, eager_logits, fast_logits in zip(
        eager.exit_names, eager.exit_logits, fast.exit_logits
    ):
        eager_data = eager_logits.data
        fast_data = np.asarray(fast_logits, dtype=np.float64)
        np.testing.assert_allclose(
            fast_data,
            eager_data,
            rtol=rtol,
            atol=atol,
            err_msg=f"compiled '{name}' exit logits diverged from eager",
        )
        diff = float(np.max(np.abs(fast_data - eager_data))) if eager_data.size else 0.0
        worst = max(worst, diff)

    if compiled.dtype == np.float32:
        agreement = routing_agreement(
            [logits.data for logits in eager.exit_logits],
            list(fast.exit_logits),
            thresholds=thresholds,
        )
        assert agreement >= min_routing_agreement, (
            f"float32 routing agreement {agreement:.6f} below the "
            f"{min_routing_agreement:.3%} floor vs the fp64 oracle"
        )
    return worst
