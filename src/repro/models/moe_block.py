"""The MoE block: gate + experts + dispatch/combine.

The forward pass mirrors the paper's Fig. 1 description: the input
``(batch, seq, hidden)`` tensor is flattened to tokens, each token is routed
to its top-k experts, expert outputs are combined with the normalized softmax
weights of Eq. (1), and the output is reshaped back.

Dispatch runs the stages of a grouped-GEMM MoE kernel — the in-process
stand-in for the expert-parallel all-to-all the paper's placement work
optimizes — and both dispatch paths share one copy of their index
math:

* :func:`dispatch_plan` *permutes*: one stable sort of the flattened
  ``(tokens, top_k)`` token→expert assignments, so every expert's rows form
  one contiguous segment and each expert runs exactly once per step, slots
  merged;
* :func:`unpermute_fold` *unpermutes*: it applies the gate weights, puts
  the expert-ordered rows back in token-major order and folds the ``top_k``
  contributions of each token into one output row;
* :func:`combine_backward` is the mirror single pass for gradients.

:func:`fused_dispatch` (the Tensor path, under gradients) and
:func:`array_dispatch` (plain arrays, under ``no_grad``, for a one-token
decode step as for a long prefill) differ only in how they run the expert
GEMMs.

Every forward pass can emit a :class:`BlockRoutingRecord`, the raw material
for locality profiling and for the communication simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.functional import index_select, swiglu_infer
from ..nn.layers import Module
from ..nn.tensor import Tensor, is_grad_enabled
from .expert import ExpertFFN
from .gating import GateOutput, TopKGate


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


def routing_counts(records: Sequence[BlockRoutingRecord],
                   num_experts: int) -> np.ndarray:
    """One step's ``(layers, experts)`` token-selection matrix.

    Row ``i`` is ``records[i].access_counts(num_experts)``, built by one
    ``np.bincount`` over the stacked expert indices with ``i * num_experts``
    added to record ``i``'s.  Raises ``ValueError`` on an expert id outside
    ``[0, num_experts)``, which would otherwise count toward a neighbouring
    row.
    """
    if not records:
        return np.zeros((0, num_experts), dtype=np.int64)
    flat = np.concatenate([record.expert_indices.ravel()
                           for record in records])
    if flat.size and (flat.min() < 0 or flat.max() >= num_experts):
        raise ValueError(f"expert ids must lie in [0, {num_experts}), got "
                         f"{flat.min()}..{flat.max()}")
    sizes = np.array([record.expert_indices.size for record in records])
    flat = flat + np.repeat(np.arange(len(records)) * num_experts, sizes)
    counts = np.bincount(flat, minlength=len(records) * num_experts)
    return counts.reshape(len(records), num_experts).astype(np.int64,
                                                          copy=False)


Segment = Tuple[int, int, int]


def dispatch_plan(expert_indices: np.ndarray, num_experts: int,
                  expert_order: Optional[Sequence[int]] = None
                  ) -> Tuple[np.ndarray, List[Segment]]:
    """Permute: group the dispatch slots by expert with one stable sort.

    ``expert_indices`` is the gate's ``(tokens, top_k)`` assignment matrix;
    slot ``s`` of its flattened, token-major view belongs to token
    ``s // top_k``.  Returns ``(order, segments)``: ``order`` lists every
    slot grouped by expert, each group in token order and the groups in
    ``expert_order`` (a permutation of the expert ids; default id order),
    and ``segments`` holds one ``(expert, lo, hi)`` per expert with
    tokens, whose slots are ``order[lo:hi]``.  Every ordering hands each
    expert the identical contiguous batch.
    """
    flat = expert_indices.reshape(-1)
    experts: Sequence[int] = range(num_experts)
    if expert_order is not None:
        experts = expert_order
        rank = np.empty(num_experts, dtype=np.int64)
        rank[np.asarray(expert_order)] = np.arange(num_experts)
        flat = rank[flat]
    order = flat.argsort(kind="stable")
    counts = np.bincount(flat, minlength=num_experts).tolist()
    segments: List[Segment] = []
    lo = 0
    for expert, count in zip(experts, counts):
        if count:
            segments.append((int(expert), lo, lo + count))
            lo += count
    return order, segments


def unpermute_fold(rows: np.ndarray, order: np.ndarray, weights: np.ndarray,
                   top_k: int) -> np.ndarray:
    """Unpermute: weight the expert-ordered ``rows`` and fold them per token.

    ``rows[i]`` is the expert output of slot ``order[i]`` and ``weights``
    the gate's ``(tokens, top_k)`` combine matrix.  Back in slot order the
    ``top_k`` contributions of a token are adjacent, so the scatter-add
    over tokens is a reshape + sum, with no ``np.add.at``, and its
    summation order does not depend on the expert order.
    """
    out = np.empty(rows.shape, dtype=np.result_type(rows, weights))
    out[order] = rows
    out *= weights.reshape(-1, 1)
    return out.reshape(-1, top_k, rows.shape[1]).sum(axis=1)


def combine_backward(g: np.ndarray, rows: np.ndarray, order: np.ndarray,
                     weights: np.ndarray, top_k: int,
                     segments: List[Segment]
                     ) -> Tuple[List[np.ndarray], np.ndarray]:
    """The backward of :func:`unpermute_fold`, in one pass.

    One gather of the output grad ``g`` per expert-ordered row; returns
    the row gradients split into ``segments`` and the gradient of the
    ``(tokens, top_k)`` ``weights``.
    """
    g_rows = g[order // top_k]
    g_weights_sorted = np.einsum("ij,ij->i", g_rows, rows)
    g_weights = np.empty_like(g_weights_sorted)
    g_weights[order] = g_weights_sorted
    g_rows = g_rows * weights.reshape(-1)[order][:, None]
    return ([g_rows[lo:hi] for _, lo, hi in segments],
            g_weights.reshape(weights.shape))


def fused_dispatch(experts: List[ExpertFFN], tokens: Tensor,
                   gate_out: GateOutput,
                   expert_order: Optional[Sequence[int]] = None) -> Tensor:
    """The Tensor dispatch: one gather and one fused expert forward per
    segment of :func:`dispatch_plan`, then one combine node.

    ``expert_order`` permutes which expert's segment runs first (the
    runtime's brokered execution iterates experts grouped by hosting
    worker); every ordering feeds each expert the identical contiguous
    batch and sums per-token contributions in the identical slot order, so
    outputs are bit-identical across orderings — the property the paper's
    convergence-equivalence claim (Section V-A) rests on.  So are the
    parameter gradients; the input gradient adds a token's ``top_k``
    gather gradients in execution order, bit-identical for ``top_k <= 2``.
    """
    top_k = gate_out.top_k
    order, segments = dispatch_plan(gate_out.expert_indices, len(experts),
                                    expert_order)
    token_ids = order // top_k
    # Tokens within one expert's segment are pairwise distinct (top-k picks
    # distinct experts per token), so each gather's backward is an
    # assignment scatter.
    seg_outputs = [experts[expert].forward_fused(
        index_select(tokens, token_ids[lo:hi], unique_rows=True))
        for expert, lo, hi in segments]
    rows = np.concatenate([t.data for t in seg_outputs])
    weights = gate_out.combine_weights

    def backward(g: np.ndarray):
        seg_grads, g_weights = combine_backward(g, rows, order, weights.data,
                                                top_k, segments)
        return (*seg_grads, g_weights)

    return Tensor._make(unpermute_fold(rows, order, weights.data, top_k),
                        (*seg_outputs, weights), backward)


def array_dispatch(experts: List[ExpertFFN], tokens: np.ndarray,
                   indices: np.ndarray, combine: np.ndarray) -> np.ndarray:
    """:func:`fused_dispatch` on plain arrays, for inference.

    ``tokens`` is ``(num_tokens, hidden)``; ``indices`` and ``combine`` are
    the gate's ``(num_tokens, top_k)`` expert ids and normalized weights.
    Each expert runs once on its contiguous segment through
    :func:`swiglu_infer`, reading the stock bias-free ``Linear`` weights.
    The plan, the segment shapes and the fold are :func:`fused_dispatch`'s,
    so the output matches it bit for bit.
    """
    top_k = indices.shape[1]
    order, segments = dispatch_plan(indices, len(experts))
    permuted = tokens[order // top_k]
    rows = np.concatenate([swiglu_infer(
        permuted[lo:hi], experts[expert].w_gate.weight.data,
        experts[expert].w_up.weight.data, experts[expert].w_down.weight.data)
        for expert, lo, hi in segments])
    return unpermute_fold(rows, order, combine, top_k)


class MoEBlock(Module):
    """Sparsely activated FFN layer with ``num_experts`` experts.

    Parameters mirror :class:`repro.models.config.MoEModelConfig`.  Set
    ``layer_index`` so emitted routing records identify their block.
    ``record_probs`` controls whether routing records copy the full
    ``(tokens, num_experts)`` probability matrix (the trainer turns this
    off on unmonitored layers to cut per-step allocation).
    """

    def __init__(self, hidden_size: int, ffn_hidden_size: int, num_experts: int,
                 top_k: int, layer_index: int = 0, aux_loss_weight: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 record_probs: bool = True):
        super().__init__()
        # Deterministic fallback: expert init must be reproducible even when
        # callers omit the generator (seed hygiene for benchmark runs).
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_experts = num_experts
        self.top_k = top_k
        self.layer_index = layer_index
        self.gate = TopKGate(hidden_size, num_experts, top_k,
                             aux_loss_weight=aux_loss_weight, rng=rng)
        self.experts = [ExpertFFN(hidden_size, ffn_hidden_size, rng=rng)
                        for _ in range(num_experts)]
        self.last_record: Optional[BlockRoutingRecord] = None
        self.last_aux_loss: Optional[Tensor] = None
        self.record_routing = True
        self.record_probs = record_probs

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

        With gradients enabled this is the Tensor gate plus
        :func:`fused_dispatch`.  Under ``no_grad`` the dispatch runs on
        plain arrays (:meth:`_forward_array`) unless the block needs the
        graph path: LoRA-injected experts, or a gate with an aux loss.
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

        output = fused_dispatch(self.experts, tokens, gate_out)
        return output.reshape(batch, seq, hidden)

    def _array_ready(self) -> bool:
        """Whether :meth:`_forward_array` can stand in for the graph path."""
        return (self.gate.aux_loss_weight <= 0
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

    def expert_modules(self) -> List[ExpertFFN]:
        """The expert submodules, in id order."""
        return list(self.experts)
