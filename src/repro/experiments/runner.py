"""Shared infrastructure for the experiment harness.

Every experiment needs a dataset and (usually) one or more trained DDNNs.
Because several tables/figures of the paper reuse the same trained model
(the MP-CC six-device DDNN), this module provides a small in-process cache so
benchmark runs train each configuration only once.

Experiments are parameterised by an :class:`ExperimentScale`:

* ``paper_scale()`` matches the paper (680/171 samples, 100 epochs);
* ``ci_scale()`` is a reduced setting that preserves the qualitative trends
  while keeping the full benchmark suite runnable on a laptop in minutes.

The active default scale is chosen by the ``REPRO_SCALE`` environment
variable (``ci`` or ``paper``), defaulting to ``ci``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..core.config import DDNNConfig, TrainingConfig
from ..core.ddnn import DDNN, build_ddnn
from ..core.training import DDNNTrainer
from ..datasets.mvmc import MVMCDataset, load_mvmc_splits

__all__ = [
    "ExperimentScale",
    "ci_scale",
    "paper_scale",
    "default_scale",
    "available_cpu_count",
    "get_dataset",
    "get_trained_ddnn",
    "train_fresh_ddnn",
    "capture_oracle",
    "clear_cache",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs shared by all experiments.

    Attributes
    ----------
    train_samples, test_samples:
        Dataset split sizes.
    epochs, batch_size:
        Joint-training hyper-parameters.
    num_devices:
        Number of end devices (6 in the paper).
    device_filters:
        Filters per device ConvP block (4 in the paper's threshold study).
    cloud_filters, cloud_conv_blocks, cloud_hidden_units:
        Cloud section geometry.
    individual_epochs:
        Epochs used for the per-device individual baselines.
    data_seed, model_seed:
        Seeds for the dataset generator and parameter initialisation.
    """

    name: str = "ci"
    train_samples: int = 200
    test_samples: int = 80
    epochs: int = 18
    batch_size: int = 32
    num_devices: int = 6
    device_filters: int = 4
    cloud_filters: int = 8
    cloud_conv_blocks: int = 2
    cloud_hidden_units: int = 32
    individual_epochs: int = 18
    data_seed: int = 7
    model_seed: int = 1

    def ddnn_config(self, **overrides) -> DDNNConfig:
        """A DDNN architecture config at this scale, with overrides applied."""
        base = dict(
            num_devices=self.num_devices,
            device_filters=self.device_filters,
            cloud_filters=self.cloud_filters,
            cloud_conv_blocks=self.cloud_conv_blocks,
            cloud_hidden_units=self.cloud_hidden_units,
            seed=self.model_seed,
        )
        base.update(overrides)
        return DDNNConfig(**base)

    def training_config(self, **overrides) -> TrainingConfig:
        """A training config at this scale, with overrides applied."""
        base = dict(epochs=self.epochs, batch_size=self.batch_size, seed=self.model_seed)
        base.update(overrides)
        return TrainingConfig(**base)


def ci_scale() -> ExperimentScale:
    """Reduced scale used by default for tests and benchmark harnesses."""
    return ExperimentScale(name="ci")


def paper_scale() -> ExperimentScale:
    """The paper's scale: 680/171 samples, 100 epochs, 6 devices."""
    return ExperimentScale(
        name="paper",
        train_samples=680,
        test_samples=171,
        epochs=100,
        batch_size=32,
        num_devices=6,
        device_filters=4,
        cloud_filters=16,
        cloud_conv_blocks=2,
        cloud_hidden_units=64,
        individual_epochs=100,
    )


def default_scale() -> ExperimentScale:
    """Scale selected by the ``REPRO_SCALE`` environment variable."""
    choice = os.environ.get("REPRO_SCALE", "ci").lower()
    if choice == "paper":
        return paper_scale()
    if choice == "ci":
        return ci_scale()
    raise ValueError(f"REPRO_SCALE must be 'ci' or 'paper', got '{choice}'")


def available_cpu_count() -> int:
    """CPUs this process may actually use (affinity-aware).

    Recorded in every serving table's metadata so wall-clock rows can be
    judged against the cores that were really available.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


# --------------------------------------------------------------------------- #
# In-process caches
# --------------------------------------------------------------------------- #
_DATASET_CACHE: Dict[Tuple, Tuple[MVMCDataset, MVMCDataset]] = {}
_MODEL_CACHE: Dict[Tuple, Tuple[DDNN, DDNNTrainer]] = {}
#: (id(model), id(dataset), eager flag, batch size) -> (model, dataset,
#: oracle), for datasets owned by _DATASET_CACHE only.  The model/dataset
#: references double-check identity against recycled ids and keep the key
#: owners alive, mirroring _MODEL_CACHE's lifetime.
_ORACLE_CACHE: Dict[Tuple, Tuple] = {}
#: Guards the oracle memo (lookup, cacheability probe, insert, clear) so
#: concurrent captures from worker threads can't corrupt the dict; the
#: capture itself runs outside the lock, so a lost race costs one extra
#: forward, never a stall.
_ORACLE_LOCK = threading.RLock()


def clear_cache() -> None:
    """Drop all cached datasets, trained models and captured oracles."""
    _DATASET_CACHE.clear()
    _MODEL_CACHE.clear()
    with _ORACLE_LOCK:
        _ORACLE_CACHE.clear()


def get_dataset(scale: ExperimentScale) -> Tuple[MVMCDataset, MVMCDataset]:
    """Train/test splits for a scale (cached)."""
    key = (scale.train_samples, scale.test_samples, scale.data_seed, scale.num_devices)
    if key not in _DATASET_CACHE:
        from ..datasets.mvmc import DEFAULT_DEVICE_PROFILES

        profiles = DEFAULT_DEVICE_PROFILES[: scale.num_devices]
        if len(profiles) < scale.num_devices:
            raise ValueError(
                f"scale requests {scale.num_devices} devices but only "
                f"{len(DEFAULT_DEVICE_PROFILES)} device profiles are defined"
            )
        _DATASET_CACHE[key] = load_mvmc_splits(
            train_samples=scale.train_samples,
            test_samples=scale.test_samples,
            profiles=profiles,
            seed=scale.data_seed,
        )
    return _DATASET_CACHE[key]


def _config_key(config: DDNNConfig, training: TrainingConfig, scale: ExperimentScale) -> Tuple:
    return (
        scale.train_samples,
        scale.test_samples,
        scale.data_seed,
        config.num_devices,
        config.num_classes,
        config.device_filters,
        config.device_conv_blocks,
        config.cloud_filters,
        config.cloud_conv_blocks,
        config.cloud_hidden_units,
        config.edge_filters,
        config.edge_conv_blocks,
        config.local_aggregation,
        config.cloud_aggregation,
        config.edge_aggregation,
        config.binary_devices,
        config.binary_cloud,
        config.binary_edge,
        config.topology.name,
        config.topology.num_edges,
        config.seed,
        training.epochs,
        training.batch_size,
        training.learning_rate,
        tuple(training.exit_weights) if training.exit_weights is not None else None,
        training.seed,
    )


def train_fresh_ddnn(
    scale: ExperimentScale,
    config: Optional[DDNNConfig] = None,
    training: Optional[TrainingConfig] = None,
    train_set: Optional[MVMCDataset] = None,
) -> Tuple[DDNN, DDNNTrainer]:
    """Train a DDNN without touching the cache (always retrains)."""
    config = config if config is not None else scale.ddnn_config()
    training = training if training is not None else scale.training_config()
    if train_set is None:
        train_set, _ = get_dataset(scale)
    model = build_ddnn(config)
    trainer = DDNNTrainer(model, training)
    trainer.fit(train_set)
    return model, trainer


def get_trained_ddnn(
    scale: ExperimentScale,
    config: Optional[DDNNConfig] = None,
    training: Optional[TrainingConfig] = None,
) -> Tuple[DDNN, DDNNTrainer]:
    """Train (or fetch from cache) a DDNN for the given configuration."""
    config = config if config is not None else scale.ddnn_config()
    training = training if training is not None else scale.training_config()
    key = _config_key(config, training, scale)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = train_fresh_ddnn(scale, config, training)
    return _MODEL_CACHE[key]


def capture_oracle(
    model: DDNN, dataset: MVMCDataset, batch_size: int = 64, precision: str = "float64"
):
    """Forward-once :class:`~repro.core.oracle.ExitOracle` for an experiment.

    The offline harness defaults to the compiled fast path (one
    :mod:`repro.compile` plan forward per dataset, plans memoized
    process-wide); set ``REPRO_EAGER_EVAL=1`` to force the eager forward,
    e.g. when bisecting a compiled-path discrepancy.  Compiled logits agree
    with eager at float32-level tolerance, and routing has matched
    byte-for-byte on every model and table in this suite (the experiment
    benchmarks assert table identity).

    Captures over the splits :func:`get_dataset` owns are memoized per
    (model, dataset) identity, so experiments sharing the cached default
    model and test split (``run all``, the benchmark suite in one process)
    pay the forward once, like :func:`get_trained_ddnn` pays training once.
    Throwaway datasets (failed-device copies, device subsets) are captured
    without caching — a fresh object per call could never hit and would pin
    its logit block forever.  The harness never retrains a cached model in
    place; :func:`clear_cache` drops captured oracles along with the models
    they describe.
    """
    from ..core.oracle import ExitOracle

    eager = os.environ.get("REPRO_EAGER_EVAL", "").lower() in ("1", "true", "yes")
    # The weights version (bumped by DDNNTrainer.train_epoch) keys retrained
    # models away from their pre-training captures.
    key = (
        id(model),
        id(dataset),
        eager,
        batch_size,
        precision,
        getattr(model, "_weights_version", 0),
    )
    # The whole lookup-capture-insert runs under one lock: the capture
    # forwards through the process-wide compiled plan for ``model``, whose
    # preallocated scratch arenas are single-threaded, so concurrent
    # captures of the same model would corrupt each other's logits.
    # Serializing here also means a memo stampede pays the forward once.
    with _ORACLE_LOCK:
        cacheable = any(
            dataset is split for pair in _DATASET_CACHE.values() for split in pair
        )
        if cacheable:
            entry = _ORACLE_CACHE.get(key)
            if entry is not None and entry[0] is model and entry[1] is dataset:
                return entry[2]
        oracle = ExitOracle.capture(
            model,
            dataset,
            batch_size=batch_size,
            compile=not eager,
            precision=precision,
        )
        if cacheable:
            _ORACLE_CACHE[key] = (model, dataset, oracle)
        return oracle
