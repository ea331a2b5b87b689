"""Weight initialisation helpers for the ``repro.nn`` substrate."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["glorot_uniform", "he_normal"]


def glorot_uniform(
    shape: Tuple[int, ...],
    fan_in: int,
    fan_out: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    rng = rng if rng is not None else np.random.default_rng()
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(
    shape: Tuple[int, ...],
    fan_in: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """He/Kaiming normal initialisation suited to ReLU-like nonlinearities."""
    rng = rng if rng is not None else np.random.default_rng()
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)
