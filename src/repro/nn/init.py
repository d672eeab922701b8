"""Weight initializers.

All initializers take an explicit ``numpy.random.Generator`` so that model
construction is fully deterministic given a seed — a requirement for
reproducible routing traces.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def kaiming_uniform(rng: np.random.Generator, shape: Tuple[int, ...],
                    gain: float = np.sqrt(5.0)) -> np.ndarray:
    """Kaiming-uniform init matching ``torch.nn.Linear``'s default.

    ``shape`` is ``(fan_out, fan_in)`` for a weight matrix.
    """
    fan_in = shape[-1]
    bound = gain * np.sqrt(3.0 / ((1.0 + gain ** 2 / 3.0) * fan_in))
    # Simplify to the standard torch bound: sqrt(1 / fan_in) scaled uniform.
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def normal(rng: np.random.Generator, shape: Tuple[int, ...],
           std: float = 0.02, mean: float = 0.0) -> np.ndarray:
    """Gaussian init (GPT-style embeddings use std=0.02)."""
    return rng.normal(mean, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """Zero-filled tensor/array of the given shape."""
    return np.zeros(shape)
