"""Learning-rate schedules.

Standard fine-tuning infrastructure: linear warmup then cosine decay,
wrapping any :class:`~repro.nn.optim.Optimizer` whose ``lr`` attribute the
scheduler rewrites before each step.
"""

from __future__ import annotations

import math
from typing import Optional

from .optim import Optimizer


class LRScheduler:
    """Base scheduler: computes a learning rate per step index."""

    def __init__(self, optimizer: Optimizer, base_lr: Optional[float] = None):
        self.optimizer = optimizer
        self.base_lr = base_lr if base_lr is not None else optimizer.lr
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        self._step = 0

    def lr_at(self, step: int) -> float:  # pragma: no cover - interface
        """Learning rate for a step index."""
        raise NotImplementedError

    def step(self) -> float:
        """Advance one step; sets and returns the new learning rate."""
        lr = self.lr_at(self._step)
        self.optimizer.lr = lr
        self._step += 1
        return lr


class WarmupCosineLR(LRScheduler):
    """Linear warmup followed by cosine decay to ``min_lr``."""

    def __init__(self, optimizer: Optimizer, total_steps: int,
                 warmup_steps: int = 0, min_lr: float = 0.0,
                 base_lr: Optional[float] = None):
        super().__init__(optimizer, base_lr)
        if total_steps < 1:
            raise ValueError("total_steps must be positive")
        if not 0 <= warmup_steps < total_steps:
            raise ValueError("warmup_steps must be in [0, total_steps)")
        if min_lr < 0 or min_lr > self.base_lr:
            raise ValueError("min_lr must be in [0, base_lr]")
        self.total_steps = total_steps
        self.warmup_steps = warmup_steps
        self.min_lr = min_lr

    def lr_at(self, step: int) -> float:
        """Learning rate for a step index."""
        if step < self.warmup_steps:
            return self.base_lr * (step + 1) / self.warmup_steps
        progress = (step - self.warmup_steps) / \
            max(self.total_steps - self.warmup_steps, 1)
        progress = min(progress, 1.0)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine

