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

The worker tasks run :func:`~repro.nn.functional.swiglu_forward` and
:func:`~repro.nn.functional.swiglu_backward`, the array kernel inside the
in-process :func:`~repro.nn.functional.fused_swiglu` node, with the same
adapter factors, so for native-format experts — plain or LoRA — the node
is bit-identical to the in-process fused path.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..lora.adapter import LoRALinear
from ..models.moe_block import combine_backward, dispatch_plan, unpermute_fold
from ..nn.tensor import Tensor, _segment_sum_rows


def _kernel_operands(expert):
    """``(lora, params)`` of one expert's SwiGLU kernel call.

    ``lora`` is ``None`` for a plain expert, else one ``(A, B, scaling,
    None)`` entry per LoRA projection (``None`` for a plain one), over the
    live adapter buffers: tasks pickle them on their way to the workers,
    so the workers always see the adapters as of the current step.
    ``params`` lists the parameter Tensors in
    :func:`~repro.nn.functional.swiglu_backward`'s gradient order after
    ``x`` (the three base weights, then ``A``, ``B`` per projection),
    ``None`` where a plain projection has no adapter.
    """
    projections = (expert.w_gate, expert.w_up, expert.w_down)
    params = [getattr(p, "base", p).weight for p in projections]
    if not any(isinstance(p, LoRALinear) for p in projections):
        return None, params
    lora = tuple((p.lora_a.data, p.lora_b.data, p.config.scaling, None)
                 if isinstance(p, LoRALinear) else None for p in projections)
    for p in projections:
        params += ((p.lora_a, p.lora_b) if isinstance(p, LoRALinear)
                   else (None, None))
    return lora, params


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
    operands = [_kernel_operands(experts[expert]) for expert, _, _ in segments]
    tasks = [(layer, expert, tokens.data[token_ids[lo:hi]], lora)
             for (expert, lo, hi), (lora, _) in zip(segments, operands)]
    rows = np.concatenate(executor.run_forward(layer, tasks))

    # One graph node for the whole layer: every trainable kernel parameter
    # of the active experts is a parent, so executor-computed gradients land
    # exactly where the in-process sub-graphs would put them.
    needs = [tuple(p is not None and p.requires_grad for p in params)
             for _, params in operands]
    parents = [tokens, weights]
    slots = []  # (segment index, gradient index)
    for i, (_, params) in enumerate(operands):
        for j, p in enumerate(params):
            if needs[i][j]:
                parents.append(p)
                slots.append((i, j + 1))

    def backward(g: np.ndarray):
        seg_gys, g_weights = combine_backward(g, rows, order, weights.data,
                                              top_k, segments)
        need_gx = tokens.requires_grad
        results = executor.run_backward(layer, [
            (layer, expert, x, gy, lora, (need_gx,) + need)
            for (_, expert, x, lora), gy, need in zip(tasks, seg_gys, needs)])
        g_tokens = None
        if need_gx:
            g_tokens = _segment_sum_rows(
                np.concatenate([r[0] for r in results]), token_ids,
                num_tokens)
        return (g_tokens, g_weights, *(results[i][j] for i, j in slots))

    return Tensor._make(unpermute_fold(rows, order, weights.data, top_k),
                        tuple(parents), backward)
