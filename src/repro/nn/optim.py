"""The Adam optimiser that trains every model of the ``repro.nn`` substrate."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

import numpy as np

from .layers import Parameter

__all__ = ["Adam"]


class Adam:
    """Adam optimiser (Kingma & Ba).

    Defaults match the hyper-parameters used throughout the paper:
    ``lr=0.001``, ``betas=(0.9, 0.999)``, ``eps=1e-8``.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer got an empty parameter list")
        if not (math.isfinite(lr) and lr > 0.0):
            raise ValueError(f"Adam: lr must be finite and positive, got {lr}")
        for name, beta in zip(("betas[0]", "betas[1]"), betas):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"Adam: {name} must be in [0, 1), got {beta}")
        if not eps > 0.0:
            raise ValueError(f"Adam: eps must be positive, got {eps}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step_count
        bias_correction2 = 1.0 - self.beta2 ** self._step_count
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            key = id(param)
            first = self._first_moment.get(key)
            second = self._second_moment.get(key)
            if first is None:
                first = np.zeros_like(param.data)
                second = np.zeros_like(param.data)
            first = self.beta1 * first + (1.0 - self.beta1) * grad
            second = self.beta2 * second + (1.0 - self.beta2) * grad * grad
            self._first_moment[key] = first
            self._second_moment[key] = second
            corrected_first = first / bias_correction1
            corrected_second = second / bias_correction2
            update = self.lr * corrected_first / (np.sqrt(corrected_second) + self.eps)
            param.data = param.data - update
