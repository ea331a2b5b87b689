"""Joint training of DDNNs (paper Section III-C).

The whole network — every device branch, the aggregators, the optional edge
tier and the cloud — is trained as a single model: the softmax cross-entropy
loss is computed at every exit point, the per-exit losses are combined as a
weighted sum (equal weights by default, as in the paper), and Adam updates
all parameters jointly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..datasets.mvmc import MVMCDataset
from ..nn.losses import joint_exit_loss
from ..nn.metrics import accuracy
from ..nn.optim import Adam
from .config import TrainingConfig
from .ddnn import DDNN

__all__ = ["EpochStats", "TrainingHistory", "DDNNTrainer"]


@dataclass
class EpochStats:
    """Loss and per-exit training accuracy for one epoch."""

    epoch: int
    loss: float
    exit_accuracy: Dict[str, float]


@dataclass
class TrainingHistory:
    """Record of a full training run."""

    epochs: List[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    @property
    def final_loss(self) -> float:
        if not self.epochs:
            raise ValueError("training history is empty")
        return self.epochs[-1].loss

    def losses(self) -> List[float]:
        return [stats.loss for stats in self.epochs]


class DDNNTrainer:
    """Trains a DDNN on a multi-view dataset with the joint multi-exit loss.

    Parameters
    ----------
    model:
        The DDNN to train.
    config:
        Training hyper-parameters (defaults follow the paper).
    """

    def __init__(self, model: DDNN, config: Optional[TrainingConfig] = None) -> None:
        self.model = model
        self.config = config if config is not None else TrainingConfig()
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            betas=(self.config.beta1, self.config.beta2),
            eps=self.config.eps,
        )
        self.history = TrainingHistory()
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    def fit(self, dataset: MVMCDataset) -> TrainingHistory:
        """Run the configured number of epochs over the dataset."""
        for epoch in range(self.config.epochs):
            stats = self.train_epoch(dataset, epoch)
            self.history.append(stats)
            if self.config.verbose and (epoch % self.config.log_every == 0 or epoch == self.config.epochs - 1):
                exits = ", ".join(f"{k}={v:.3f}" for k, v in stats.exit_accuracy.items())
                print(f"epoch {epoch:3d}  loss={stats.loss:.4f}  {exits}")
        return self.history

    def train_epoch(self, dataset: MVMCDataset, epoch: int = 0) -> EpochStats:
        """One pass over the dataset in shuffled mini-batches."""
        self.model.train()
        indices = np.arange(len(dataset))
        if self.config.shuffle:
            self._rng.shuffle(indices)

        total_loss = 0.0
        total_samples = 0
        exit_correct: Dict[str, int] = {name: 0 for name in self.model.exit_names}

        for start in range(0, len(indices), self.config.batch_size):
            batch_indices = indices[start : start + self.config.batch_size]
            views = dataset.images[batch_indices]
            targets = dataset.labels[batch_indices]

            output = self.model(views)
            loss = joint_exit_loss(
                output.exit_logits, targets, exit_weights=self.config.exit_weights
            )
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()

            batch_size = len(batch_indices)
            total_loss += loss.item() * batch_size
            total_samples += batch_size
            for name, logits in zip(output.exit_names, output.exit_logits):
                exit_correct[name] += int(
                    np.sum(logits.data.argmax(axis=1) == targets)
                )

        exit_accuracy = {
            name: exit_correct[name] / total_samples for name in self.model.exit_names
        }
        # The epoch mutated the weights in place: any compiled plan cached
        # for this model now serves a stale snapshot — evict it, and bump
        # the weights version so snapshot caches keyed on the model (e.g.
        # the experiment harness's oracle memo) can tell old from new.
        from ..compile.cache import invalidate_plan

        invalidate_plan(self.model)
        self.model._weights_version = getattr(self.model, "_weights_version", 0) + 1
        return EpochStats(epoch=epoch, loss=total_loss / total_samples, exit_accuracy=exit_accuracy)

    # ------------------------------------------------------------------ #
    def evaluate_exits(
        self,
        dataset: MVMCDataset,
        batch_size: Optional[int] = None,
        compile: bool = False,
    ) -> Dict[str, float]:
        """Accuracy of every exit when 100% of samples exit at that point
        (one :class:`~repro.core.oracle.ExitOracle` forward pass)."""
        from .oracle import ExitOracle

        return ExitOracle.capture(
            self.model,
            dataset,
            batch_size=batch_size or self.config.batch_size,
            compile=compile,
        ).exit_accuracies()
