"""The executor-backed MoE dispatch: one autograd node per layer.

:func:`executor_dispatch` is the drop-in counterpart of
:func:`repro.models.moe_block.fused_dispatch` when an
:class:`~repro.parallel.executor.ExpertExecutor` is attached: the same
:func:`~repro.models.moe_block.dispatch_plan`,
:func:`~repro.models.moe_block.unpermute_fold` and
:func:`~repro.models.moe_block.combine_backward`, but the per-expert SwiGLU
segments run through ``executor.run_forward`` / ``run_backward`` (one
pooled round trip each way per layer) instead of in-process autograd
sub-nodes, and the whole layer collapses into a single
:class:`~repro.nn.tensor.Tensor` graph node whose parents are
``(tokens, combine_weights, *trainable weights)``.

The worker kernels replay ``fused_swiglu``'s operation order, so for
native-format plain-Linear experts the node is bit-identical to the
in-process fused path; for LoRA experts the workers materialize
``W + s·BA`` (the merged weight), which agrees with the layered in-process
computation to float64 rounding.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..models.moe_block import combine_backward, dispatch_plan, unpermute_fold
from ..nn.tensor import Tensor, _segment_sum_rows

def _adapter_payload(expert):
    """Per-projection ``(A, B, scaling)`` triples, or ``None`` if plain.

    The arrays are the live parameter buffers (no copies); tasks pickle
    them on their way to the workers, so the workers always see the
    adapters as of the current step.
    """
    projections = (expert.w_gate, expert.w_up, expert.w_down)
    if not any(hasattr(p, "lora_a") for p in projections):
        return None
    return tuple((p.lora_a.data, p.lora_b.data, p.config.scaling)
                 for p in projections)


def executor_dispatch(executor, layer: int, experts, tokens: Tensor,
                      gate_out,
                      expert_order: Optional[Sequence[int]] = None) -> Tensor:
    """Run one MoE layer's dispatch/combine through ``executor``.

    Arguments mirror :func:`~repro.models.moe_block.fused_dispatch` plus
    the ``executor`` and its ``layer`` id.  ``expert_order`` (the runtime
    broker's per-worker grouping) only permutes task submission order;
    outputs are bit-identical across orderings, same as the in-process
    path.
    """
    num_tokens = tokens.shape[0]
    top_k = gate_out.top_k
    weights = gate_out.combine_weights
    order, segments = dispatch_plan(gate_out.expert_indices, len(experts),
                                    expert_order)
    token_ids = order // top_k
    tasks = [(layer, expert, tokens.data[token_ids[lo:hi]],
              _adapter_payload(experts[expert]))
             for expert, lo, hi in segments]
    rows = np.concatenate(executor.run_forward(layer, tasks))

    # One graph node for the whole layer: map every trainable weight of the
    # active experts to a parent slot, so executor-computed gradients land
    # exactly where the in-process sub-graphs would put them.
    parents = [tokens, weights]
    slots = []  # (segment index, "w"|"a"|"b", projection index)
    need_w = [False] * len(tasks)
    need_lora = [False] * len(tasks)
    for i, (expert_id, _, _) in enumerate(segments):
        expert = experts[expert_id]
        for pi, proj in enumerate((expert.w_gate, expert.w_up,
                                   expert.w_down)):
            base = getattr(proj, "base", proj)
            if base.weight.requires_grad:
                parents.append(base.weight)
                slots.append((i, "w", pi))
                need_w[i] = True
            if hasattr(proj, "lora_a"):
                if proj.lora_a.requires_grad:
                    parents.append(proj.lora_a)
                    slots.append((i, "a", pi))
                    need_lora[i] = True
                if proj.lora_b.requires_grad:
                    parents.append(proj.lora_b)
                    slots.append((i, "b", pi))
                    need_lora[i] = True

    def backward(g: np.ndarray):
        seg_gys, g_weights = combine_backward(g, rows, order, weights.data,
                                              top_k, segments)
        need_gx = tokens.requires_grad
        btasks = [(layer, expert, x, gy, lora, need_gx, need_w[i],
                   need_lora[i])
                  for i, ((_, expert, x, lora), gy)
                  in enumerate(zip(tasks, seg_gys))]
        results = executor.run_backward(layer, btasks)
        g_tokens = None
        if need_gx:
            g_tokens = _segment_sum_rows(
                np.concatenate([r[0] for r in results]), token_ids,
                num_tokens)
        param_grads = []
        for i, kind, pi in slots:
            grads = results[i][1]
            if kind == "w":
                param_grads.append(grads["w"][pi])
            elif kind == "a":
                param_grads.append(grads["lora"][pi][0])
            else:
                param_grads.append(grads["lora"][pi][1])
        return (g_tokens, g_weights, *param_grads)

    return Tensor._make(unpermute_fold(rows, order, weights.data, top_k),
                        tuple(parents), backward)
