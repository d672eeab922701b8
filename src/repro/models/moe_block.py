"""The MoE block: gate + experts + dispatch/combine.

The forward pass mirrors the paper's Fig. 1 description: the input
``(batch, seq, hidden)`` tensor is flattened to tokens, each token is routed
to its top-k experts, expert outputs are combined with the normalized softmax
weights of Eq. (1), and the output is reshaped back.

Two dispatch implementations are provided:

``fused`` (default)
    One ``argsort`` of the flattened token→expert assignments across all
    top-k slots, one contiguous gather per expert (so each expert runs
    exactly one forward per step, slots merged), and a single-pass combine
    that applies the gate weights and accumulates every contribution into
    one output buffer — the same sort → segment-GEMM → scatter-add layout
    real grouped-GEMM MoE kernels use, and the in-process stand-in for the
    expert-parallel all-to-all the paper's placement work optimizes.

``reference``
    The original per-(slot, expert) loop, kept selectable for A/B testing;
    the equivalence tests pin the two paths to each other.

Under ``no_grad`` the fused dispatch runs on plain arrays
(:func:`array_dispatch`): route → permute → expert GEMM → unpermute, the
same stages and arithmetic for a one-token decode step as for a long
prefill, with no autograd graph.

Every forward pass can emit a :class:`BlockRoutingRecord`, the raw material
for locality profiling and for the communication simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..nn.functional import index_select, swiglu_infer, top_k
from ..nn.layers import Module
from ..nn.tensor import Tensor, is_grad_enabled
from .expert import ExpertFFN
from .gating import GateOutput, TopKGate

DISPATCH_MODES = ("fused", "reference")


@dataclass
class BlockRoutingRecord:
    """Routing decisions of one MoE block for one batch.

    ``expert_indices`` has shape ``(tokens, top_k)``;
    ``selected_scores`` are the raw (unnormalized) softmax scores of the
    selected experts; ``probs`` is the full ``(tokens, num_experts)`` softmax
    matrix (detached numpy copies — records never hold autograd graphs), or
    ``None`` when the emitting block had ``record_probs`` disabled.
    """

    layer: int
    expert_indices: np.ndarray
    selected_scores: np.ndarray
    probs: Optional[np.ndarray] = None

    @property
    def num_tokens(self) -> int:
        """Token count."""
        return self.expert_indices.shape[0]

    def access_counts(self, num_experts: int) -> np.ndarray:
        """Token selections per expert."""
        return np.bincount(self.expert_indices.reshape(-1),
                           minlength=num_experts).astype(np.int64)

    def tokens_per_expert(self, num_experts: int) -> np.ndarray:
        """Alias for :meth:`access_counts` (the ``K_{n,l}`` inputs of Eq. (6))."""
        return self.access_counts(num_experts)


def _combine_segments(seg_outputs: List[Tensor], combine_weights: Tensor,
                      order: np.ndarray, inv_order: np.ndarray,
                      top_k: int, num_tokens: int) -> Tensor:
    """Weighted combine of per-expert output segments, in one pass.

    ``seg_outputs`` are the expert outputs in expert-sorted order (their
    concatenation covers all ``num_tokens * top_k`` dispatch slots);
    ``order`` is the expert-sort permutation of the flattened
    ``(tokens, top_k)`` assignment matrix and ``inv_order`` its inverse.

    Forward applies the gate weights and folds the sorted rows back to
    token-major order, where the top-k contributions of each token are
    adjacent — so the scatter-add over tokens is a reshape + sum, with no
    ``np.add.at``.  Backward is the mirror single pass: one gather of the
    output grad per sorted row, one segment split, one inverse permutation
    for the weight grads.
    """
    cat = (seg_outputs[0].data if len(seg_outputs) == 1 else
           np.concatenate([t.data for t in seg_outputs], axis=0))
    w_sorted = combine_weights.data.reshape(-1)[order]
    hidden = cat.shape[1]
    weighted = cat * w_sorted[:, None]
    out_data = weighted[inv_order].reshape(num_tokens, top_k, hidden).sum(axis=1)
    token_ids = order // top_k
    bounds = np.cumsum([t.data.shape[0] for t in seg_outputs])[:-1]

    def backward(g: np.ndarray):
        g_rows = g[token_ids]                       # (tokens*top_k, hidden)
        g_weights_sorted = np.einsum("ij,ij->i", g_rows, cat)
        g_weights = np.empty(order.size, dtype=g_weights_sorted.dtype)
        g_weights[order] = g_weights_sorted
        g_cat = g_rows * w_sorted[:, None]
        seg_grads = (np.split(g_cat, bounds, axis=0) if len(seg_outputs) > 1
                     else [g_cat])
        return (*seg_grads, g_weights.reshape(num_tokens, top_k))

    return Tensor._make(out_data, (*seg_outputs, combine_weights), backward)


def _scatter_rows_reference(values: Tensor, row_ids: np.ndarray,
                            num_rows: int) -> Tensor:
    """The seed implementation's scatter-add combine (``np.add.at`` based).

    Kept verbatim so ``dispatch="reference"`` A/B-tests against the exact
    original per-(slot, expert) path, including its scatter primitive —
    :func:`repro.nn.functional.scatter_rows` itself has since been
    vectorized.
    """
    row_ids = np.asarray(row_ids, dtype=np.int64)
    out_data = np.zeros((num_rows, values.data.shape[1]),
                        dtype=values.data.dtype)
    np.add.at(out_data, row_ids, values.data)

    def backward(g: np.ndarray):
        return (g[row_ids],)

    return Tensor._make(out_data, (values,), backward)


def fused_dispatch(experts: List[ExpertFFN], tokens: Tensor,
                   gate_out: GateOutput,
                   expert_order: Optional[List[int]] = None) -> Tensor:
    """Run the fused sort → segment-GEMM → combine dispatch.

    ``expert_order`` permutes which expert's segment runs first (the
    runtime's brokered execution iterates experts grouped by hosting
    worker); every ordering feeds each expert the identical contiguous
    batch and sums per-token contributions in the identical slot order, so
    outputs are bit-identical across orderings — the property the paper's
    convergence-equivalence claim (Section V-A) rests on.
    """
    num_tokens = tokens.shape[0]
    num_experts = len(experts)
    top_k = gate_out.top_k
    flat_experts = gate_out.expert_indices.reshape(-1)  # token-major
    sort_order = np.argsort(flat_experts, kind="stable")
    counts = np.bincount(flat_experts, minlength=num_experts)
    starts = np.concatenate([[0], np.cumsum(counts)])
    token_ids_sorted = sort_order // top_k

    seg_outputs: List[Tensor] = []
    seg_slots: List[np.ndarray] = []
    for expert_id in (expert_order if expert_order is not None
                      else range(num_experts)):
        lo, hi = starts[expert_id], starts[expert_id + 1]
        if lo == hi:
            continue
        # Tokens within one expert's segment are pairwise distinct (top-k
        # picks distinct experts per token), so the gather's backward is an
        # assignment scatter.
        expert_in = index_select(tokens, token_ids_sorted[lo:hi],
                                 unique_rows=True)
        run = getattr(experts[expert_id], "forward_fused", experts[expert_id])
        seg_outputs.append(run(expert_in))
        seg_slots.append(sort_order[lo:hi])
    order = (seg_slots[0] if len(seg_slots) == 1
             else np.concatenate(seg_slots))
    inv_order = np.empty_like(order)
    inv_order[order] = np.arange(order.size)
    return _combine_segments(seg_outputs, gate_out.combine_weights,
                             order, inv_order, top_k, num_tokens)


def array_dispatch(experts: List[ExpertFFN], tokens: np.ndarray,
                   indices: np.ndarray, combine: np.ndarray) -> np.ndarray:
    """:func:`fused_dispatch` on plain arrays, for inference.

    ``tokens`` is ``(num_tokens, hidden)``; ``indices`` and ``combine`` are
    the gate's ``(num_tokens, top_k)`` expert ids and normalized weights.
    The stages of a grouped-GEMM MoE kernel, for any token count:
    *permute* the flattened assignments into expert order (one stable
    sort), run each expert once on its contiguous segment through
    :func:`swiglu_infer`, then *unpermute* the weighted rows back to
    token-major order and fold the ``top_k`` contributions of each token.
    Every expert reads the stock bias-free ``Linear`` weights.  The sort,
    the segment shapes and the fold are :func:`fused_dispatch`'s, so the
    output matches it bit for bit.
    """
    num_tokens, top_k = indices.shape
    flat = indices.reshape(-1)
    order = flat.argsort(kind="stable")
    ends = np.bincount(flat, minlength=len(experts)).cumsum()
    permuted = tokens[order // top_k]
    segments = []
    start = 0
    for expert, end in zip(experts, ends):
        if end > start:
            segments.append(swiglu_infer(
                permuted[start:end], expert.w_gate.weight.data,
                expert.w_up.weight.data, expert.w_down.weight.data))
        start = end
    out = segments[0] if len(segments) == 1 else np.concatenate(segments)
    out *= combine.reshape(-1)[order][:, None]
    unpermuted = np.empty_like(out)
    unpermuted[order] = out
    return unpermuted.reshape(num_tokens, top_k, -1).sum(axis=1)


class MoEBlock(Module):
    """Sparsely activated FFN layer with ``num_experts`` experts.

    Parameters mirror :class:`repro.models.config.MoEModelConfig`.  Set
    ``layer_index`` so emitted routing records identify their block.
    ``dispatch`` selects the token dispatch implementation (``"fused"`` or
    ``"reference"``); ``record_probs`` controls whether routing records copy
    the full ``(tokens, num_experts)`` probability matrix (the trainer turns
    this off on unmonitored layers to cut per-step allocation).
    """

    def __init__(self, hidden_size: int, ffn_hidden_size: int, num_experts: int,
                 top_k: int, layer_index: int = 0, aux_loss_weight: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 dispatch: str = "fused", record_probs: bool = True):
        super().__init__()
        if dispatch not in DISPATCH_MODES:
            raise ValueError(f"dispatch must be one of {DISPATCH_MODES}, "
                             f"got {dispatch!r}")
        # Deterministic fallback: expert init must be reproducible even when
        # callers omit the generator (seed hygiene for benchmark runs).
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_experts = num_experts
        self.top_k = top_k
        self.layer_index = layer_index
        self.dispatch = dispatch
        self.gate = TopKGate(hidden_size, num_experts, top_k,
                             aux_loss_weight=aux_loss_weight, rng=rng)
        self.experts = [ExpertFFN(hidden_size, ffn_hidden_size, rng=rng)
                        for _ in range(num_experts)]
        self.last_record: Optional[BlockRoutingRecord] = None
        self.last_aux_loss: Optional[Tensor] = None
        self.record_routing = True
        self.record_probs = record_probs
        # Optional repro.parallel.ExpertExecutor; when set (and bound for
        # this layer) the fused dispatch fans expert segments out to it.
        self.executor = None

    def make_record(self, gate_out: GateOutput) -> BlockRoutingRecord:
        """Build a routing record from one forward's gate output."""
        rows = np.arange(gate_out.num_tokens)[:, None]
        return BlockRoutingRecord(
            layer=self.layer_index,
            expert_indices=gate_out.expert_indices.copy(),
            selected_scores=gate_out.probs.data[rows, gate_out.expert_indices].copy(),
            probs=gate_out.probs.data.copy() if self.record_probs else None,
        )

    def forward(self, x):
        """Apply the block to ``(batch, seq, hidden)`` input.

        With gradients enabled this is the Tensor gate plus the selected
        dispatch.  Under ``no_grad`` the fused dispatch runs on plain
        arrays (:meth:`_forward_array`) unless the block needs the graph
        path: ``dispatch="reference"``, an attached executor that can run
        this layer, LoRA-injected experts, or a gate with an aux loss.
        ``x`` may then be a plain array (``forward_slots`` passes one) and
        the output has the input's type.
        """
        array_in = isinstance(x, np.ndarray)
        if not is_grad_enabled() and self._array_ready():
            out = self._forward_array(x if array_in else x.data)
            return out if array_in else Tensor(out)
        if array_in:
            return self._forward_graph(Tensor(x)).data
        return self._forward_graph(x)

    def _forward_graph(self, x: Tensor) -> Tensor:
        """The Tensor gate and dispatch (the only path under gradients)."""
        batch, seq, hidden = x.shape
        tokens = x.reshape(batch * seq, hidden)
        gate_out: GateOutput = self.gate(tokens)
        self.last_aux_loss = gate_out.aux_loss

        if self.record_routing:
            self.last_record = self.make_record(gate_out)

        output = self._dispatch_combine(tokens, gate_out)
        return output.reshape(batch, seq, hidden)

    def _array_ready(self) -> bool:
        """Whether :meth:`_forward_array` can stand in for the graph path."""
        executor = self.executor
        if executor is not None and executor.can_run(self.layer_index):
            return False
        return (self.dispatch == "fused" and self.gate.aux_loss_weight <= 0
                and all(e._fusable() for e in self.experts))

    def _forward_array(self, x: np.ndarray) -> np.ndarray:
        """The inference-only block on plain arrays, for any token count.

        Routes with :meth:`TopKGate.route` and dispatches with
        :func:`array_dispatch`; routing records keep flowing, so decode
        streams still feed locality profiling.
        """
        batch, seq, hidden = x.shape
        tokens = x.reshape(batch * seq, hidden)
        probs, indices, selected, combine = self.gate.route(tokens)
        self.last_aux_loss = None
        if self.record_routing:
            self.last_record = BlockRoutingRecord(
                layer=self.layer_index, expert_indices=indices,
                selected_scores=selected,
                probs=probs if self.record_probs else None)
        out = array_dispatch(self.experts, tokens, indices, combine)
        return out.reshape(batch, seq, hidden)

    def _dispatch_combine(self, tokens: Tensor, gate_out: GateOutput) -> Tensor:
        """Send tokens through their selected experts and combine the results."""
        if self.dispatch == "reference":
            return self._dispatch_combine_reference(tokens, gate_out)
        return self._dispatch_combine_fused(tokens, gate_out)

    def _dispatch_combine_fused(self, tokens: Tensor,
                                gate_out: GateOutput) -> Tensor:
        """Sort-by-expert fused dispatch: one forward per expert, one combine.

        The flattened ``(tokens, top_k)`` assignment matrix is argsorted once
        (stable, so same-expert rows keep token order); each expert's rows
        are then a contiguous segment, gathered in one :func:`index_select`
        per expert with all slots merged.  The weighted contributions are
        accumulated by :func:`_combine_segments` in a single pass.

        With an attached :attr:`executor` (see :mod:`repro.parallel`) that
        can serve this layer, the per-expert segments run through the
        executor instead — same structure, workers do the GEMMs.  The
        executor declines (int8 store under gradients, unbound layer) by
        returning ``False`` from ``can_run``, which falls back here.
        """
        executor = self.executor
        if executor is not None and executor.can_run(self.layer_index):
            from ..parallel.dispatch import executor_dispatch
            return executor_dispatch(executor, self.layer_index,
                                     self.experts, tokens, gate_out)
        return fused_dispatch(self.experts, tokens, gate_out)

    def _dispatch_combine_reference(self, tokens: Tensor,
                                    gate_out: GateOutput) -> Tensor:
        """Reference per-(slot, expert) dispatch, kept for A/B testing.

        Tokens are grouped per (slot, expert) so each expert runs once per
        slot on a contiguous batch; every pair materializes a full
        ``(tokens, hidden)`` scatter buffer, summed by a Python reduction.
        """
        num_tokens = tokens.shape[0]
        contributions: List[Tensor] = []
        for slot in range(self.top_k):
            slot_experts = gate_out.expert_indices[:, slot]
            slot_weights = gate_out.combine_weights[(np.arange(num_tokens),
                                                     np.full(num_tokens, slot))]
            for expert_id in np.unique(slot_experts):
                token_ids = np.nonzero(slot_experts == expert_id)[0]
                expert_in = tokens[token_ids]
                expert_out = self.experts[int(expert_id)](expert_in)
                weights = slot_weights[token_ids].reshape(-1, 1)
                contributions.append(_scatter_rows_reference(
                    expert_out * weights, token_ids, num_tokens))
        total = contributions[0]
        for extra in contributions[1:]:
            total = total + extra
        return total

    def expert_modules(self) -> List[ExpertFFN]:
        """The expert submodules, in id order."""
        return list(self.experts)
