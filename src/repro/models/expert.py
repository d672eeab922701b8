"""Expert feed-forward networks.

Each expert is a SwiGLU FFN, the variant used by the Mistral/Mixtral family:
``out = W2 (silu(W1 x) * W3 x)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..lora.adapter import LoRALinear
from ..nn.functional import fused_swiglu
from ..nn.layers import Linear, Module
from ..nn.tensor import Tensor


class ExpertFFN(Module):
    """A single SwiGLU expert.

    The three projection matrices give the expert ``3 * hidden * ffn_hidden``
    parameters — the quantity the cluster memory model uses to derive worker
    capacities ``C_n``.
    """

    def __init__(self, hidden_size: int, ffn_hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        # Deterministic fallback keeps standalone expert construction
        # reproducible (seed hygiene for benchmarks).
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.ffn_hidden_size = ffn_hidden_size
        self.w_gate = Linear(hidden_size, ffn_hidden_size, bias=False, rng=rng)
        self.w_up = Linear(hidden_size, ffn_hidden_size, bias=False, rng=rng)
        self.w_down = Linear(ffn_hidden_size, hidden_size, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Apply the expert to tokens of shape ``(n, hidden_size)``."""
        return self.w_down(self.w_gate(x).silu() * self.w_up(x))

    def _fusable(self) -> bool:
        # LoRA injection swaps the projections for LoRALinear modules (and
        # future variants may add biases); the plain kernel reads the
        # weight matrices directly, so it only applies to the stock layout.
        # Spelled out: the inference path asks every block on every step.
        gate, up, down = self.w_gate, self.w_up, self.w_down
        return (type(gate) is Linear and type(up) is Linear
                and type(down) is Linear and gate.bias is None
                and up.bias is None and down.bias is None)

    def _lora_fusable(self) -> bool:
        """Whether all three projections are LoRA over bias-free Linears."""
        return all(type(p) is LoRALinear and type(p.base) is Linear
                   and p.base.bias is None
                   for p in (self.w_gate, self.w_up, self.w_down))

    def forward_fused(self, x: Tensor) -> Tensor:
        """Apply the expert through the single-node SwiGLU kernel.

        Stock experts run :func:`fused_swiglu` on their weights; LoRA
        experts pass their adapter factors too, with the dropout masks
        drawn in gate, up, down order as the layered forward draws them.
        Any other layout falls back to the layer-by-layer :meth:`forward`,
        so callers can use this unconditionally.
        """
        if self._fusable():
            return fused_swiglu(x, self.w_gate.weight, self.w_up.weight,
                                self.w_down.weight)
        if not self._lora_fusable():
            return self.forward(x)
        hidden_shape = x.shape[:-1] + (self.ffn_hidden_size,)
        lora = (self.w_gate.factors(x.shape, x.dtype),
                self.w_up.factors(x.shape, x.dtype),
                self.w_down.factors(hidden_shape, x.dtype))
        return fused_swiglu(x, self.w_gate.base.weight, self.w_up.base.weight,
                            self.w_down.base.weight, lora=lora)

    def num_params(self) -> int:
        """Parameter count."""
        return 3 * self.hidden_size * self.ffn_hidden_size

    def nbytes(self, bytes_per_param: int = 2) -> int:
        """Footprint at a given precision (2 bytes = fp16, as in the paper)."""
        return self.num_params() * bytes_per_param

