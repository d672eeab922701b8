"""The LoRA adapter layer.

Implements ``y = W x + (alpha/r) * B A x`` from Hu et al. (LoRA), wrapping an
existing frozen :class:`~repro.nn.layers.Linear`.  ``A`` is Gaussian-
initialized and ``B`` starts at zero, so the wrapped layer's initial output
is bit-identical to the base layer — a property the tests assert.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.functional import dropout_mask, lora_linear
from ..nn.layers import Linear, Module, Parameter
from ..nn.tensor import Tensor
from .config import LoRAConfig


class LoRALinear(Module):
    """A frozen linear layer with a trainable low-rank residual branch.

    The forward is one :func:`~repro.nn.functional.lora_linear` graph node.
    ``ordinal`` is the adapter's position in its injection pass: it keys
    the adapter's own dropout stream, so no two adapters of one model draw
    the same masks.
    """

    def __init__(self, base: Linear, config: LoRAConfig,
                 rng: Optional[np.random.Generator] = None, ordinal: int = 0):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.base = base
        self.config = config
        in_features = base.in_features
        out_features = base.out_features
        # Freeze the pre-trained weight; only A/B train.
        for p in base.parameters():
            p.requires_grad = False
        self.lora_a = Parameter(rng.normal(0.0, 1.0 / config.rank,
                                           size=(config.rank, in_features)))
        self.lora_b = Parameter(np.zeros((out_features, config.rank)))
        # Seeded from the ordinal, not drawn from ``rng``: every A keeps
        # the value a shared injection generator gives it.
        self._dropout_rng = np.random.default_rng(
            np.random.SeedSequence(config.seed + 1, spawn_key=(ordinal,)))

    @property
    def in_features(self) -> int:
        """Input feature size."""
        return self.base.in_features

    @property
    def out_features(self) -> int:
        """Output feature size."""
        return self.base.out_features

    def factors(self, shape: tuple, dtype) -> tuple:
        """The kernel entry ``(A, B, scaling, mask)`` for an input of
        ``shape``: ``mask`` is a dropout mask drawn from this adapter's
        stream in training mode with dropout on, else ``None``."""
        mask = None
        if self.training and self.config.dropout > 0:
            mask = dropout_mask(self._dropout_rng, shape,
                                self.config.dropout, dtype)
        return self.lora_a, self.lora_b, self.config.scaling, mask

    def forward(self, x: Tensor) -> Tensor:
        """``x Wᵀ + b + ((x·mask) Aᵀ) Bᵀ · s`` as one graph node."""
        return lora_linear(x, self.base.weight,
                           *self.factors(x.shape, x.dtype),
                           bias=self.base.bias)

