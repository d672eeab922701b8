"""Functionally-detached expert execution for live models.

The paper's convergence argument (Section V-A) is that VELA "maintains
identical computation logic to single-device fine-tuning" — experts live
elsewhere, but the math is unchanged, so convergence is bit-identical.

This module makes that claim *checkable* on the live tiny models: it
restructures each MoE block's forward into the broker's execution order —
group tokens by the worker that hosts their expert, run each worker's
experts as a separate batch (as the real Expert Manager would), then combine
— and the test suite asserts outputs and gradients match the monolithic
forward exactly.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..models.moe_block import MoEBlock, fused_dispatch
from ..models.transformer import MoETransformer
from ..nn.layers import Module
from ..nn.tensor import Tensor
from ..placement.base import Placement


class BrokeredMoEBlock(Module):
    """An MoE block executing in master-worker order.

    Wraps an existing :class:`MoEBlock`, sharing its gate and expert
    modules; only the *order* of computation changes (per-worker grouping),
    which must be numerically irrelevant.
    """

    def __init__(self, block: MoEBlock, layer_assignment: np.ndarray):
        super().__init__()
        if len(layer_assignment) != block.num_experts:
            raise ValueError("assignment length must equal num_experts")
        self.block = block
        self.layer_assignment = np.asarray(layer_assignment, dtype=np.int64)
        self.tokens_per_worker_last: Dict[int, int] = {}

    # MoEBlock API passthroughs so trainers/profilers work unchanged.
    @property
    def last_record(self):
        """Most recent routing record (delegated)."""
        return self.block.last_record

    @property
    def last_aux_loss(self):
        """Most recent aux loss (delegated)."""
        return self.block.last_aux_loss

    @property
    def gate(self):
        """The shared gate module (delegated)."""
        return self.block.gate

    @property
    def experts(self):
        """The shared expert modules (delegated)."""
        return self.block.experts

    def forward(self, x: Tensor) -> Tensor:
        """Run the forward computation (a plain array in, as from
        ``forward_slots``, gives a plain array out)."""
        if isinstance(x, np.ndarray):
            return self.forward(Tensor(x)).data
        batch, seq, hidden = x.shape
        tokens = x.reshape(batch * seq, hidden)
        gate_out = self.block.gate(tokens)
        self.block.last_aux_loss = gate_out.aux_loss
        if self.block.record_routing:
            self.block.last_record = self.block.make_record(gate_out)

        # Broker view: tokens-per-worker from the per-expert access counts
        # (all top-k slots merged — a worker receives each routed token once
        # per selected hosted expert).
        counts = np.bincount(gate_out.expert_indices.reshape(-1),
                             minlength=self.block.num_experts)
        worker_experts: Dict[int, List[int]] = {}
        for expert_id, worker in enumerate(self.layer_assignment):
            worker_experts.setdefault(int(worker), []).append(expert_id)
        self.tokens_per_worker_last = {
            worker: int(counts[experts].sum())
            for worker, experts in worker_experts.items()
            if counts[experts].sum() > 0
        }

        # One "Expert Manager" per worker processes its hosted experts, one
        # contiguous sub-batch per expert (slots merged).  The shared fused
        # dispatch guarantees worker-order execution is bit-identical to the
        # monolithic block — the paper's convergence-equivalence claim.
        expert_order = [expert_id for worker in sorted(worker_experts)
                        for expert_id in worker_experts[worker]]
        total = fused_dispatch(self.block.experts, tokens, gate_out,
                               expert_order)
        return total.reshape(batch, seq, hidden)


def detach_experts(model: MoETransformer, placement: Placement) -> int:
    """Swap every MoE block for its brokered equivalent, in place.

    Returns the number of blocks rewired.  The model's parameters are
    untouched (the brokered block shares the original modules), so
    checkpoints, LoRA state, and the optimizer keep working.
    """
    if placement.num_layers != model.config.num_layers or \
            placement.num_experts != model.config.num_experts:
        raise ValueError("placement shape does not match the model")
    count = 0
    for layer, block in enumerate(model.blocks):
        moe = block.moe
        if isinstance(moe, BrokeredMoEBlock):
            moe = moe.block
        block.moe = BrokeredMoEBlock(moe, placement.assignment[layer])
        count += 1
    return count


def reattach_experts(model: MoETransformer) -> int:
    """Undo :func:`detach_experts`, restoring the monolithic blocks."""
    count = 0
    for block in model.blocks:
        if isinstance(block.moe, BrokeredMoEBlock):
            block.moe = block.moe.block
            count += 1
    return count
