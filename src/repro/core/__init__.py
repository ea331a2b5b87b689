"""``repro.core`` — the DDNN framework (the paper's primary contribution).

Public surface:

* :class:`DDNNConfig`, :class:`TrainingConfig`, :class:`DDNNTopology` —
  architecture and training hyper-parameters;
* :func:`build_ddnn` / :class:`DDNN` — the multi-exit, multi-device model;
* aggregation schemes (MP / AP / CC);
* :class:`ExitCriterion` and :func:`normalized_entropy` — the confidence rule;
* :class:`DDNNTrainer` — joint multi-exit training;
* :func:`build_exit_criteria` — threshold rules and the exit criteria they build;
* :class:`ExitOracle` — forward-once logit cache and the untimed exit rule:
  routing (:class:`InferenceResult`), vectorized threshold sweeps,
  exit-rate quantile calibration and accuracy reports;
* :class:`CommunicationModel` — the paper's Eq. 1 byte accounting;
* threshold search.
"""

from .cascade import build_exit_criteria, normalize_thresholds
from .aggregation import (
    AGGREGATION_SCHEMES,
    Aggregator,
    AveragePoolAggregator,
    ConcatAggregator,
    MaxPoolAggregator,
    make_aggregator,
)
from .communication import (
    CommunicationModel,
    ddnn_communication_bytes,
    raw_offload_bytes,
)
from .config import DDNNConfig, DDNNTopology, TrainingConfig
from .ddnn import DDNN, CloudModel, DDNNOutput, DeviceBranch, EdgeModel, build_ddnn
from .exits import ExitCriterion, ExitDecision, normalized_entropy, softmax_probabilities
from .oracle import ExitOracle, InferenceResult, SweepPoint, SweepTable
from .threshold import (
    ThresholdSearchResult,
    search_threshold,
    threshold_for_exit_rate,
)
from .training import DDNNTrainer, EpochStats, TrainingHistory

__all__ = [
    "DDNNConfig",
    "DDNNTopology",
    "TrainingConfig",
    "DDNN",
    "DDNNOutput",
    "DeviceBranch",
    "EdgeModel",
    "CloudModel",
    "build_ddnn",
    "Aggregator",
    "MaxPoolAggregator",
    "AveragePoolAggregator",
    "ConcatAggregator",
    "make_aggregator",
    "AGGREGATION_SCHEMES",
    "ExitCriterion",
    "ExitDecision",
    "normalized_entropy",
    "softmax_probabilities",
    "normalize_thresholds",
    "build_exit_criteria",
    "DDNNTrainer",
    "EpochStats",
    "TrainingHistory",
    "InferenceResult",
    "ExitOracle",
    "SweepPoint",
    "SweepTable",
    "CommunicationModel",
    "ddnn_communication_bytes",
    "raw_offload_bytes",
    "ThresholdSearchResult",
    "search_threshold",
    "threshold_for_exit_rate",
]
