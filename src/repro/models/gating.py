"""The MoE gating mechanism (softmax top-k router).

The gate is the object the whole paper revolves around: its softmax scores
define expert locality (Section III), its stability under fine-tuning is the
subject of Theorem 1, and its per-token decisions generate the communication
workload that VELA's placement optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn.functional import one_hot, softmax, take_along_rows, top_k
from ..nn.layers import Linear, Module
from ..nn.tensor import Tensor


@dataclass
class GateOutput:
    """Result of routing a batch of tokens through one gate.

    Attributes
    ----------
    probs:
        Softmax scores over experts, shape ``(tokens, num_experts)``
        (a :class:`Tensor`, gradient-carrying).
    expert_indices:
        Selected expert ids per token, shape ``(tokens, top_k)``, ordered by
        descending score.
    combine_weights:
        Normalized weights of the selected experts (``p_i / sum p_i`` from
        Eq. (1) of the paper), gradient-carrying, shape ``(tokens, top_k)``.
    aux_loss:
        Switch-style load-balancing loss (scalar Tensor) or None.
    """

    probs: Tensor
    expert_indices: np.ndarray
    combine_weights: Tensor
    aux_loss: Optional[Tensor] = None

    @property
    def num_tokens(self) -> int:
        """Token count."""
        return self.expert_indices.shape[0]

    @property
    def top_k(self) -> int:
        """Selections per token."""
        return self.expert_indices.shape[1]

    def selected_score_sums(self) -> np.ndarray:
        """Per-token sum of softmax scores of the selected experts.

        This is the statistic plotted in the paper's Fig. 3(b): a value close
        to 1 means the gate is highly confident in its selection.
        """
        rows = np.arange(self.num_tokens)[:, None]
        return self.probs.data[rows, self.expert_indices].sum(axis=1)

    def access_counts(self, num_experts: int) -> np.ndarray:
        """Number of tokens dispatched to each expert."""
        return np.bincount(self.expert_indices.reshape(-1),
                           minlength=num_experts).astype(np.int64)


class TopKGate(Module):
    """Linear router + softmax + top-k selection.

    Parameters
    ----------
    hidden_size:
        Token feature size.
    num_experts:
        Number of experts this gate routes over.
    top_k:
        Experts selected per token (2 for Mixtral/TinyMistral).
    aux_loss_weight:
        If positive, :meth:`forward` also computes the load-balancing loss
        ``E * sum_e(f_e * m_e)`` (Switch Transformers, Eq. 4) scaled by this
        weight.  The paper keeps the gate frozen during fine-tuning, so the
        aux loss only matters in the pre-training helper.
    """

    def __init__(self, hidden_size: int, num_experts: int, top_k: int,
                 aux_loss_weight: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 1 <= top_k <= num_experts:
            raise ValueError(f"top_k={top_k} out of range for {num_experts} experts")
        self.hidden_size = hidden_size
        self.num_experts = num_experts
        self.top_k = top_k
        self.aux_loss_weight = aux_loss_weight
        self.router = Linear(hidden_size, num_experts, bias=False, rng=rng)

    def forward(self, tokens: Tensor) -> GateOutput:
        """Route ``tokens`` of shape ``(num_tokens, hidden_size)``."""
        if tokens.ndim != 2:
            raise ValueError(f"gate expects flattened tokens, got shape {tokens.shape}")
        logits = self.router(tokens)
        probs = softmax(logits, axis=-1)

        _, indices = top_k(probs.data, self.top_k, axis=-1)
        # (tokens, top_k), differentiable; top-k columns are distinct per row
        # so the backward is an assignment scatter, not np.add.at.
        selected = take_along_rows(probs, indices)
        denom = selected.sum(axis=-1, keepdims=True)
        combine = selected / denom

        aux = None
        if self.aux_loss_weight > 0:
            # f_e: fraction of tokens whose top-1 choice is e;
            # m_e: mean router probability of e.  Loss = E * sum_e f_e * m_e.
            top1 = indices[:, 0]
            fractions = one_hot(top1, self.num_experts).mean(axis=0)
            mean_probs = probs.mean(axis=0)
            aux = (mean_probs * Tensor(fractions)).sum() * \
                (self.num_experts * self.aux_loss_weight)

        return GateOutput(probs=probs, expert_indices=indices,
                          combine_weights=combine, aux_loss=aux)

    def route(self, tokens: np.ndarray):
        """Route plain-array ``tokens`` of shape ``(num_tokens, hidden_size)``.

        Inference-only: :meth:`forward`'s arithmetic (router GEMM, stable
        softmax, :func:`top_k`, normalized weights) without ``Tensor``
        wrappers and without the aux loss.  Returns ``(probs, indices,
        selected, combine)``: the softmax matrix, the selected expert ids,
        their raw scores and their normalized combine weights.
        """
        probs = self.router.infer(tokens)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        selected, indices = top_k(probs, self.top_k, axis=-1)
        combine = selected / selected.sum(axis=-1, keepdims=True)
        return probs, indices, selected, combine
