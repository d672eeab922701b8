"""Reference implementations the optimized library paths are checked against.

Each oracle is the plain, readable form of a computation whose fast form
lives in ``src/``; the equivalence tests and the benchmarks that time the
speedup import them from here.

* :func:`reference_dispatch` — the per-(slot, expert) MoE dispatch loop
  with an ``np.add.at`` scatter, against
  :func:`repro.models.moe_block.fused_dispatch` (same signature, so a test
  can swap it in with ``monkeypatch.setattr(moe_block, "fused_dispatch",
  reference_dispatch)``).
* :func:`replay_per_step` — a trace replay one step at a time through the
  per-step loops over layers and workers (:func:`master_worker_step`,
  :func:`overlapped_step`, :func:`expert_parallel_step`), against the one
  batched replay behind each step engine's ``run_step`` and ``run_trace``.
  The expert-parallel loop prices each block through the
  :mod:`repro.comm.collective` functions, so their ``comm.*.bytes``
  counters are compared too.
* :class:`ScanLocalSearchRefiner` — local search scoring every candidate
  of every layer one at a time on every round, against
  :class:`repro.placement.local_search.LocalSearchRefiner`, whose rounds
  re-score only the layers the last action changed.
* :func:`reference_build_placement_lp` — the placement LP assembled by
  Python loops appending one COO entry at a time, against the index arrays
  of :func:`repro.placement.lp.build_placement_lp`.
* :func:`reference_lora_forward` — the layered LoRA chain (base ``Linear``,
  dropout, two adapter matmuls, scale, add: one graph node each), against
  the one-node :func:`repro.nn.functional.lora_linear` that
  :meth:`repro.lora.LoRALinear.forward` runs and the LoRA path of
  :func:`repro.nn.functional.fused_swiglu`.  It has ``forward``'s
  signature: ``monkeypatch.setattr(LoRALinear, "forward",
  reference_lora_forward)`` swaps it in, and the layer-by-layer
  :meth:`repro.models.expert.ExpertFFN.forward` then composes it into the
  layered LoRA SwiGLU.
* :func:`reference_attention_forward` and :func:`reference_rms_norm_forward`
  — ``MultiHeadAttention.forward`` and ``RMSNorm.forward`` as chains of
  ``Tensor`` ops (18 and 7 graph nodes), against the one-node
  :func:`repro.nn.functional.attention` and
  :func:`repro.nn.functional.rms_norm`.  Each has its ``forward``'s
  signature, so ``monkeypatch.setattr`` swaps it in.
* :func:`reference_adamw_step` — ``AdamW.step`` as a loop over tensors,
  against the flat-buffer step.
* :func:`retained_backward` — ``Tensor.backward`` keeping the whole graph
  (every closure, saved array and parent link) until the caller drops the
  output, against the one-pass backward that frees each interior node as
  it passes it.  It has ``backward``'s signature, so
  ``monkeypatch.setattr`` swaps it in.
* :class:`ReferenceTransitionPredictor` and :class:`ReferenceFetchScheduler`
  — the transition predictor and the overlapped fetch scheduler on
  per-layer Python sets of expert ids, one layer and one key at a time,
  against the ``(layers, experts)`` masks of
  :class:`repro.serving.prefetch.TransitionPredictor` and
  :class:`repro.serving.prefetch.OverlappedFetchScheduler`;
  :func:`mask_sets` converts a mask to the sets and
  :func:`reference_lookahead` flattens a set stream into the cache's
  access order.
* :func:`reference_step_comm_time_replicated` and
  :class:`ReferenceReplicationStrategy` — the replicated Eq. (7) objective
  and the replication move search as loops over layers, experts and
  holders, against the one share tensor of
  :mod:`repro.placement.replication`.
* :func:`reference_sample_counts` — one step of synthetic routing as a
  single ``rng.gumbel`` draw over ``(layers, tokens, experts)``, an
  ``argpartition`` top-k and a flat ``bincount``, against the per-layer
  uniform draws and top-k threshold of
  ``repro.routing.synthetic.SyntheticRouter._sample_counts``.  It has that
  method's signature, so ``monkeypatch.setattr`` swaps it in.
* :func:`reference_top_k_counts` — each token's top-k threshold by
  ``k - 1`` rounds of max-and-mask over the expert rows (the ``k``-th
  largest distinct score), against the running k-best of
  ``repro.routing.synthetic._top_k_counts`` (the ``k``-th largest score
  counting ties).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro.comm import (CommCostModel, all_to_all_time,
                        cross_node_bytes_all_to_all, ring_all_reduce_time,
                        status_sync_time)
from repro.nn import causal_mask
from repro.nn.functional import dropout, softmax
from repro.nn.tensor import Tensor
from repro.placement.base import Placement, PlacementProblem
from repro.placement.local_search import RefinementReport
from repro.placement.lp import PlacementLP, comm_coefficients
from repro.placement.replication import (ReplicatedPlacement,
                                         ReplicationStrategy)
from repro.runtime.engine import (ExpertParallelEngine, MasterWorkerEngine,
                                  lora_backbone_param_count,
                                  lora_expert_param_count, replay_limit)
from repro.runtime.metrics import RunMetrics, StepMetrics
from repro.runtime.overlap import OverlappedMasterWorkerEngine
from repro.serving.cache import ExpertKey, safe_ratio
from repro.serving.prefetch import OverlappedFetchScheduler, StepFetchReport


def _scatter_rows_add_at(values: Tensor, row_ids: np.ndarray,
                         num_rows: int) -> Tensor:
    """Scatter-add ``values`` into ``num_rows`` zero rows (``np.add.at``)."""
    row_ids = np.asarray(row_ids, dtype=np.int64)
    out_data = np.zeros((num_rows, values.data.shape[1]),
                        dtype=values.data.dtype)
    np.add.at(out_data, row_ids, values.data)

    def backward(g: np.ndarray):
        return (g[row_ids],)

    return Tensor._make(out_data, (values,), backward)


def reference_dispatch(experts, tokens: Tensor, gate_out,
                       expert_order=None) -> Tensor:
    """The per-(slot, expert) MoE dispatch.

    Tokens are grouped per (slot, expert) so each expert runs once per
    slot on a contiguous batch through its layer-by-layer ``forward``;
    every pair materializes a full ``(tokens, hidden)`` scatter buffer,
    summed by a Python reduction.  ``expert_order`` is accepted for
    signature compatibility and ignored: the loop order is fixed.
    """
    num_tokens = tokens.shape[0]
    contributions: List[Tensor] = []
    for slot in range(gate_out.top_k):
        slot_experts = gate_out.expert_indices[:, slot]
        slot_weights = gate_out.combine_weights[(np.arange(num_tokens),
                                                 np.full(num_tokens, slot))]
        for expert_id in np.unique(slot_experts):
            token_ids = np.nonzero(slot_experts == expert_id)[0]
            expert_out = experts[int(expert_id)](tokens[token_ids])
            weights = slot_weights[token_ids].reshape(-1, 1)
            contributions.append(_scatter_rows_add_at(
                expert_out * weights, token_ids, num_tokens))
    total = contributions[0]
    for extra in contributions[1:]:
        total = total + extra
    return total


def reference_lora_forward(self, x: Tensor) -> Tensor:
    """``LoRALinear.forward`` as a chain of graph nodes.

    The frozen base layer, then the branch ``dropout(x) @ Aᵀ @ Bᵀ · s``
    op by op, added to the base output.  The dropout mask comes from the
    adapter's own generator, as in the kernel path.
    """
    out = self.base(x)
    branch_in = x
    if self.config.dropout > 0:
        branch_in = dropout(branch_in, self.config.dropout,
                            self._dropout_rng, training=self.training)
    update = (branch_in @ self.lora_a.T) @ self.lora_b.T
    return out + update * self.config.scaling


def reference_attention_forward(self, x: Tensor) -> Tensor:
    """``MultiHeadAttention.forward`` op by op: each projection through its
    module, then split heads, scores, scale, causal mask, softmax, context
    and head merge as ``Tensor`` ops."""
    batch, seq, _ = x.shape
    heads, hd = self.num_heads, self.head_dim

    def split_heads(t: Tensor) -> Tensor:
        return t.reshape(batch, seq, heads, hd).transpose(0, 2, 1, 3)

    q = split_heads(self.q_proj(x))
    k = split_heads(self.k_proj(x))
    v = split_heads(self.v_proj(x))
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(hd))
    if self.causal:
        scores = scores + causal_mask(seq, scores.dtype)
    context = softmax(scores, axis=-1) @ v
    merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
    return self.o_proj(merged)


def reference_rms_norm_forward(self, x: Tensor) -> Tensor:
    """``RMSNorm.forward`` op by op."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x / (ms + self.eps).sqrt() * self.weight


def reference_adamw_step(self) -> None:
    """``AdamW.step`` one tensor at a time, on the optimizer's own
    per-parameter moment views."""
    self._step += 1
    bias1 = 1.0 - self.beta1 ** self._step
    bias2 = 1.0 - self.beta2 ** self._step
    for p, m, v in zip(self.params, self._m, self._v):
        if p.grad is None:
            continue
        grad = p.grad
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        update = m_hat / (np.sqrt(v_hat) + self.eps)
        if self.weight_decay:
            update = update + self.weight_decay * p.data
        p.data = p.data - self.lr * update


def retained_backward(self: Tensor, grad=None) -> None:
    """``Tensor.backward`` with the graph retained: the same topological
    walk and accumulation order, with no node freed, so the graph can be
    backpropagated again."""
    if not self.requires_grad:
        raise RuntimeError("backward() called on a tensor that does not "
                           "require grad")
    if grad is None:
        if self.data.size != 1:
            raise RuntimeError("grad must be provided for non-scalar "
                               "backward()")
        grad = np.ones_like(self.data)
    grad = np.asarray(grad, dtype=self.data.dtype)
    if grad.shape != self.data.shape:
        grad = np.broadcast_to(grad, self.data.shape).copy()

    topo: List[Tensor] = []
    visited: Set[int] = set()
    stack: List[Tuple[Tensor, bool]] = [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    grads = {id(self): grad}
    owned: Set[int] = set()
    for node in reversed(topo):
        node_grad = grads.pop(id(node), None)
        owned.discard(id(node))
        if node_grad is None:
            continue
        if node._backward is None:
            node._accumulate(node_grad)
        else:
            node._push_to_parents(node_grad, grads, owned)


def _master_device(engine):
    return engine.topology.workers[engine.topology.master_worker_id].device


def _worker_optimizer_time(engine) -> float:
    """Slowest worker's adapter update over the experts it hosts."""
    per_expert = lora_expert_param_count(engine.config, engine.lora_rank)
    loads = engine.placement.worker_loads(engine.topology.num_workers)
    return max(engine.flops.optimizer_time(w.device, per_expert * int(load))
               for w, load in zip(engine.topology.workers, loads))


def _fork_join_span(engine, layer_tokens: np.ndarray,
                    backward: bool) -> Tuple[float, float, float]:
    """Fork-join span of one block's exchange+compute.

    ``layer_tokens`` is one block's ``K[n]`` column of the broker's plan;
    each token travels as ``config.token_feature_nbytes()`` bytes.
    Returns ``(span, comm_part, compute_part)`` where the span is the
    slowest worker chain (dispatch -> expert compute -> gather).
    """
    token_bytes = engine.config.token_feature_nbytes()
    span = 0.0
    comm_part = 0.0
    compute_part = 0.0
    for worker_id, tokens in enumerate(layer_tokens):
        if tokens <= 0:
            continue
        nbytes = float(tokens) * token_bytes
        link = engine.topology.master_link(worker_id)
        dispatch = link.transfer_time(nbytes)
        gather = link.transfer_time(nbytes)
        compute = engine.flops.expert_time(
            engine.topology.workers[worker_id].device,
            float(tokens), backward=backward)
        chain = dispatch + compute + gather
        if chain > span:
            span = chain
            comm_part = dispatch + gather
            compute_part = compute
    return span, comm_part, compute_part


def _step_bytes(engine, tokens: np.ndarray) -> Tuple[float, float]:
    """Total and cross-node bytes of one master-worker step (Eq. (6))."""
    cost = CommCostModel(engine.config, engine.topology)
    return (float(cost.step_bytes_per_worker(tokens).sum()),
            cost.cross_node_bytes(tokens))


def master_worker_step(engine: MasterWorkerEngine, step_counts: np.ndarray,
                       step: int = 0) -> StepMetrics:
    """One :class:`MasterWorkerEngine` step, serialized block by block."""
    plan = engine.broker.plan_step(step_counts)
    if engine.monitor is not None:
        engine.monitor.observe_step(step_counts, step=step)
    tokens = float(engine.tokens_per_step)
    telemetry = engine.telemetry
    t0 = engine._telemetry_now
    master = _master_device(engine)
    flops = engine.flops

    total = comm = compute = 0.0
    for backward in (False, True):
        direction = "bwd" if backward else "fwd"
        for layer in range(engine.config.num_layers):
            backbone = flops.backbone_layer_time(master, tokens,
                                                 engine.seq_len,
                                                 backward=backward)
            span, comm_part, compute_part = _fork_join_span(
                engine, plan[:, layer], backward)
            if telemetry is not None:
                cursor = t0 + total
                telemetry.record_span(
                    "mw.backbone", cursor, backbone, category="backbone",
                    track="master", step=step, layer=layer,
                    direction=direction)
                telemetry.record_span(
                    "mw.fork_join", cursor + backbone, span,
                    category="fork_join", track="master", step=step,
                    layer=layer, direction=direction, comm_s=comm_part,
                    compute_s=compute_part)
            total += backbone + span
            comm += comm_part
            compute += backbone + compute_part

    head = flops.head_time(master, tokens) + \
        flops.head_time(master, tokens, backward=True)
    optimizer = flops.optimizer_time(
        master, lora_backbone_param_count(engine.config, engine.lora_rank))
    worker_opt = _worker_optimizer_time(engine)
    if telemetry is not None:
        cursor = t0 + total
        telemetry.record_span("mw.head", cursor, head, category="head",
                              track="master", step=step)
        telemetry.record_span("mw.optimizer.master", cursor + head,
                              optimizer, category="optimizer",
                              track="master", step=step)
        telemetry.record_span("mw.optimizer.worker",
                              cursor + head + optimizer, worker_opt,
                              category="optimizer", track="master",
                              step=step)
    total += head + optimizer + worker_opt
    compute += head + optimizer + worker_opt
    if telemetry is not None:
        engine._telemetry_now = t0 + total

    total_bytes, cross = _step_bytes(engine, plan)
    return StepMetrics(step=step, total_time=total, comm_time=comm,
                       compute_time=compute, sync_time=0.0,
                       allreduce_time=0.0, total_bytes=total_bytes,
                       cross_node_bytes=cross,
                       num_nodes=engine.topology.num_nodes)


def overlapped_step(engine: OverlappedMasterWorkerEngine,
                    step_counts: np.ndarray, step: int = 0) -> StepMetrics:
    """One :class:`OverlappedMasterWorkerEngine` step: forward serialized,
    backward expert round-trips concurrent with the master's chain."""
    plan = engine.broker.plan_step(step_counts)
    if engine.monitor is not None:
        engine.monitor.observe_step(step_counts, step=step)
    tokens = float(engine.tokens_per_step)
    telemetry = engine.telemetry
    t0 = engine._telemetry_now
    master = _master_device(engine)
    flops = engine.flops

    total = comm = compute = 0.0

    # Forward: unchanged — gating dependencies force serialization.
    for layer in range(engine.config.num_layers):
        backbone = flops.backbone_layer_time(master, tokens, engine.seq_len,
                                             backward=False)
        span, comm_part, compute_part = _fork_join_span(
            engine, plan[:, layer], backward=False)
        if telemetry is not None:
            cursor = t0 + total
            telemetry.record_span(
                "mw.backbone", cursor, backbone, category="backbone",
                track="master", step=step, layer=layer, direction="fwd")
            telemetry.record_span(
                "mw.fork_join", cursor + backbone, span,
                category="fork_join", track="master", step=step,
                layer=layer, direction="fwd", comm_s=comm_part,
                compute_s=compute_part)
        total += backbone + span
        comm += comm_part
        compute += backbone + compute_part

    head = flops.head_time(master, tokens) + \
        flops.head_time(master, tokens, backward=True)
    if telemetry is not None:
        telemetry.record_span("mw.head", t0 + total, head,
                              category="head", track="master", step=step)
    total += head
    compute += head

    # Backward: the master's chain is the sum of backbone backward
    # times; each block's expert round-trip starts when the master
    # passes that block and completes independently.
    master_clock = total
    outstanding_finish = total
    for layer in reversed(range(engine.config.num_layers)):
        # Master reaches block `layer`, computes the combine gradient
        # and dispatches expert gradients, then continues immediately.
        span, comm_part, compute_part = _fork_join_span(
            engine, plan[:, layer], backward=True)
        outstanding_finish = max(outstanding_finish, master_clock + span)
        comm += comm_part
        compute += compute_part
        backbone = flops.backbone_layer_time(master, tokens, engine.seq_len,
                                             backward=True)
        if telemetry is not None:
            telemetry.record_span(
                "mw.fork_join", t0 + master_clock, span,
                category="fork_join", track="exchange", step=step,
                layer=layer, direction="bwd", comm_s=comm_part,
                compute_s=compute_part)
            telemetry.record_span(
                "mw.backbone", t0 + master_clock, backbone,
                category="backbone", track="master", step=step,
                layer=layer, direction="bwd")
        master_clock += backbone
        compute += backbone
    total = max(master_clock, outstanding_finish)

    optimizer = flops.optimizer_time(
        master, lora_backbone_param_count(engine.config, engine.lora_rank))
    worker_opt = _worker_optimizer_time(engine)
    if telemetry is not None:
        cursor = t0 + total
        telemetry.record_span("mw.optimizer.master", cursor, optimizer,
                              category="optimizer", track="master",
                              step=step)
        telemetry.record_span("mw.optimizer.worker", cursor + optimizer,
                              worker_opt, category="optimizer",
                              track="master", step=step)
    total += optimizer + worker_opt
    compute += optimizer + worker_opt
    if telemetry is not None:
        engine._telemetry_now = t0 + total

    total_bytes, cross = _step_bytes(engine, plan)
    return StepMetrics(step=step, total_time=total, comm_time=comm,
                       compute_time=compute, sync_time=0.0,
                       allreduce_time=0.0, total_bytes=total_bytes,
                       cross_node_bytes=cross,
                       num_nodes=engine.topology.num_nodes)


def _ep_byte_matrix(engine, layer: int,
                    layer_counts: np.ndarray) -> np.ndarray:
    """Expected all-to-all payloads for one block's dispatch.

    Inputs are sharded uniformly, so each device originates ``1/N`` of
    every expert's token selections.
    """
    n = engine.topology.num_workers
    dest_tokens = np.bincount(engine.placement.assignment[layer],
                              weights=layer_counts, minlength=n)
    # Every source shard contributes equally to every destination.
    return np.tile(dest_tokens / n, (n, 1)) * engine.token_bytes


def expert_parallel_step(engine: ExpertParallelEngine,
                         step_counts: np.ndarray,
                         step: int = 0) -> StepMetrics:
    """One :class:`ExpertParallelEngine` step, block by block, through the
    :mod:`repro.comm.collective` cost functions."""
    config = engine.config
    topology = engine.topology
    n = topology.num_workers
    shard_tokens = engine.tokens_per_step / n
    sync_unit = status_sync_time(topology) + engine.sync_software_overhead_s
    telemetry = engine.telemetry
    t0 = engine._telemetry_now
    if telemetry is not None:
        engine.broker._record_dispatch_bytes(np.asarray(step_counts))
    if engine.monitor is not None:
        # The EP per-step loop never builds a dispatch plan, so feed
        # the monitor (and the broker's worker-load gauges) explicitly.
        engine.monitor.observe_step(step_counts, step=step)
        engine.broker._publish_worker_load(
            engine.placement.tokens_per_worker(np.asarray(step_counts), n))

    total = comm = compute = sync = 0.0
    cross_bytes = 0.0
    total_bytes = 0.0
    for backward in (False, True):
        mult = 2.0 if backward else 1.0
        direction = "bwd" if backward else "fwd"
        for layer in range(config.num_layers):
            backbone = mult * engine.flops.backbone_layer_time(
                engine.slowest_device, shard_tokens, engine.seq_len)
            matrix = _ep_byte_matrix(engine, layer, step_counts[layer])
            dispatch = all_to_all_time(matrix, topology, telemetry=telemetry)
            gather = all_to_all_time(matrix.T, topology, telemetry=telemetry)
            dest_tokens = matrix.sum(axis=0) / engine.token_bytes
            expert = mult * max(
                engine.flops.expert_time(device, float(t))
                for device, t in zip(engine.worker_devices, dest_tokens))
            if telemetry is not None:
                cursor = t0 + total
                common = dict(track="ep", step=step, layer=layer,
                              direction=direction)
                telemetry.record_span("ep.backbone", cursor, backbone,
                                      category="backbone", **common)
                cursor += backbone
                telemetry.record_span("ep.status_sync", cursor, sync_unit,
                                      category="sync", **common)
                cursor += sync_unit
                telemetry.record_span("ep.all_to_all.dispatch", cursor,
                                      dispatch, category="all_to_all",
                                      **common)
                cursor += dispatch
                telemetry.record_span("ep.expert", cursor, expert,
                                      category="expert", **common)
                cursor += expert
                telemetry.record_span("ep.all_to_all.gather", cursor,
                                      gather, category="all_to_all",
                                      **common)
            total += backbone + sync_unit + dispatch + expert + gather
            comm += dispatch + gather
            compute += backbone + expert
            sync += sync_unit
            off_diag = matrix.sum() - np.trace(matrix)
            total_bytes += 2.0 * off_diag
            cross_bytes += 2.0 * cross_node_bytes_all_to_all(matrix,
                                                             topology)

    head = 3.0 * engine.flops.head_time(engine.slowest_device, shard_tokens)
    trainable = lora_backbone_param_count(config, engine.lora_rank)
    # Trainable-parameter gradients stay in full precision (the paper's
    # mixed-precision setup keeps non-pretrained variables at fp32).
    grad_bytes = trainable * 4.0
    allreduce = ring_all_reduce_time(grad_bytes, topology,
                                     telemetry=telemetry)
    optimizer = engine.flops.optimizer_time(engine.slowest_device,
                                            trainable)
    if telemetry is not None:
        cursor = t0 + total
        telemetry.record_span("ep.head", cursor, head, category="head",
                              track="ep", step=step)
        telemetry.record_span("ep.allreduce", cursor + head, allreduce,
                              category="allreduce", track="ep", step=step)
        telemetry.record_span("ep.optimizer", cursor + head + allreduce,
                              optimizer, category="optimizer", track="ep",
                              step=step)
    total += head + allreduce + optimizer
    compute += head + optimizer
    if telemetry is not None:
        engine._telemetry_now = t0 + total

    # All-reduce traffic: ring volume per edge, over node-crossing edges.
    ring_edge_bytes = 2.0 * (n - 1) / n * grad_bytes
    total_bytes += ring_edge_bytes * n
    cross_bytes += ring_edge_bytes * engine._ring_cross_edges()

    return StepMetrics(step=step, total_time=total, comm_time=comm,
                       compute_time=compute, sync_time=sync,
                       allreduce_time=allreduce, total_bytes=total_bytes,
                       cross_node_bytes=cross_bytes,
                       num_nodes=topology.num_nodes)


_STEP_LOOPS = {
    MasterWorkerEngine: master_worker_step,
    OverlappedMasterWorkerEngine: overlapped_step,
    ExpertParallelEngine: expert_parallel_step,
}


def replay_per_step(engine, trace, max_steps: Optional[int] = None
                    ) -> RunMetrics:
    """Replay ``trace`` on a step engine one per-step loop at a time.

    Returns what the engine's ``run_trace`` returns, with the same spans,
    counters and monitor feed; the engine supplies only its configuration
    and its broker.
    """
    step_loop = _STEP_LOOPS[type(engine)]
    return RunMetrics(strategy=engine.strategy_name, steps=[
        step_loop(engine, trace.step_counts(step), step)
        for step in range(replay_limit(trace, max_steps))])


class ScanLocalSearchRefiner:
    """:class:`LocalSearchRefiner` scanning every candidate of every layer,
    one at a time, on every round."""

    def __init__(self, max_rounds: int = 200):
        self.max_rounds = max_rounds

    def refine(self, placement: Placement,
               problem: PlacementProblem) -> RefinementReport:
        coef = comm_coefficients(problem)
        num_workers = problem.num_workers
        layers, experts = placement.num_layers, placement.num_experts
        caps = problem.effective_capacities()
        assignment = placement.assignment.copy()
        loads = np.bincount(assignment.reshape(-1), minlength=num_workers)
        worker_time = np.zeros((num_workers, layers))
        for l in range(layers):
            for e in range(experts):
                n = assignment[l, e]
                worker_time[n, l] += coef[n, l, e]
        initial = float(worker_time.max(axis=0).sum())
        moves = swaps = 0
        actions: List[Tuple] = []
        for _ in range(self.max_rounds):
            best_delta, best_action = self._best_action(
                assignment, worker_time, loads, caps, coef)
            if best_action is None or best_delta <= 1e-15:
                break
            actions.append(best_action)
            if best_action[0] == "move":
                _, l, e, src, dst = best_action
                assignment[l, e] = dst
                worker_time[src, l] -= coef[src, l, e]
                worker_time[dst, l] += coef[dst, l, e]
                loads[src] -= 1
                loads[dst] += 1
                moves += 1
            else:
                _, l, e, src, e2, dst = best_action
                assignment[l, e] = dst
                assignment[l, e2] = src
                worker_time[src, l] += coef[src, l, e2] - coef[src, l, e]
                worker_time[dst, l] += coef[dst, l, e] - coef[dst, l, e2]
                swaps += 1
        return RefinementReport(
            placement=Placement(assignment, capacities=caps,
                                name=f"{placement.name}+ls"),
            initial_objective=initial,
            refined_objective=float(worker_time.max(axis=0).sum()),
            moves_applied=moves, swaps_applied=swaps, actions=actions)

    @staticmethod
    def _best_action(assignment, worker_time, loads, caps, coef):
        num_workers, layers = worker_time.shape
        experts = assignment.shape[1]
        best_delta = -1e-15
        best_action: Optional[Tuple] = None
        for l in range(layers):
            current_max = worker_time[:, l].max()
            order = np.argsort(-worker_time[:, l])
            bottleneck = int(order[0])
            # moves: take an expert off the bottleneck worker
            for e in range(experts):
                if assignment[l, e] != bottleneck:
                    continue
                for target in range(num_workers):
                    if target == bottleneck or loads[target] >= caps[target]:
                        continue
                    new_src = worker_time[bottleneck, l] - \
                        coef[bottleneck, l, e]
                    new_dst = worker_time[target, l] + coef[target, l, e]
                    others = max((worker_time[n, l]
                                  for n in range(num_workers)
                                  if n not in (bottleneck, target)),
                                 default=0.0)
                    new_max = max(new_src, new_dst, others)
                    delta = current_max - new_max
                    if delta > best_delta:
                        best_delta = delta
                        best_action = ("move", l, e, bottleneck, target)
            # swaps: exchange a bottleneck expert with another worker's
            for e in range(experts):
                if assignment[l, e] != bottleneck:
                    continue
                for e2 in range(experts):
                    other = int(assignment[l, e2])
                    if other == bottleneck:
                        continue
                    new_src = worker_time[bottleneck, l] \
                        - coef[bottleneck, l, e] + coef[bottleneck, l, e2]
                    new_dst = worker_time[other, l] \
                        - coef[other, l, e2] + coef[other, l, e]
                    others_max = max((worker_time[n, l]
                                      for n in range(num_workers)
                                      if n not in (bottleneck, other)),
                                     default=0.0)
                    new_max = max(new_src, new_dst, others_max)
                    delta = current_max - new_max
                    if delta > best_delta:
                        best_delta = delta
                        best_action = ("swap", l, e, bottleneck, e2, other)
        return best_delta, best_action


def reference_build_placement_lp(problem: PlacementProblem) -> PlacementLP:
    """:func:`repro.placement.lp.build_placement_lp` as one Python loop per
    constraint family, appending COO entries row by row."""
    config = problem.config
    n_workers = problem.num_workers
    layers, experts = config.num_layers, config.num_experts
    n_x = n_workers * layers * experts
    n_vars = n_x + layers

    coef = comm_coefficients(problem)
    cost_scale = float(coef.max()) or 1.0
    coef = coef / cost_scale

    def xi(worker: int, layer: int, expert: int) -> int:
        return (worker * layers + layer) * experts + expert

    c = np.zeros(n_vars)
    c[n_x:] = 1.0

    # Equality: each expert assigned exactly once -> L*E rows.
    eq_rows, eq_cols, eq_vals = [], [], []
    row = 0
    for layer in range(layers):
        for expert in range(experts):
            for worker in range(n_workers):
                eq_rows.append(row)
                eq_cols.append(xi(worker, layer, expert))
                eq_vals.append(1.0)
            row += 1
    a_eq = sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)),
                             shape=(row, n_vars))
    b_eq = np.ones(row)

    # Inequalities: capacity rows (N) + lambda rows (N*L).
    ub_rows, ub_cols, ub_vals = [], [], []
    b_ub: List[float] = []
    row = 0
    capacities = problem.effective_capacities()
    for worker in range(n_workers):
        for layer in range(layers):
            for expert in range(experts):
                ub_rows.append(row)
                ub_cols.append(xi(worker, layer, expert))
                ub_vals.append(1.0)
        b_ub.append(float(capacities[worker]))
        row += 1
    # (b*H / 4*B_n) * sum_e X[n,l,e] P[l,e] K - lambda_l <= 0
    for worker in range(n_workers):
        for layer in range(layers):
            for expert in range(experts):
                ub_rows.append(row)
                ub_cols.append(xi(worker, layer, expert))
                ub_vals.append(coef[worker, layer, expert])
            ub_rows.append(row)
            ub_cols.append(n_x + layer)
            ub_vals.append(-1.0)
            b_ub.append(0.0)
            row += 1
    a_ub = sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)),
                             shape=(row, n_vars))

    lower = np.zeros(n_vars)
    upper = np.concatenate([np.ones(n_x), np.full(layers, np.inf)])
    return PlacementLP(c=c, a_ub=a_ub, b_ub=np.array(b_ub), a_eq=a_eq,
                       b_eq=b_eq, lower=lower, upper=upper,
                       num_workers=n_workers, num_layers=layers,
                       num_experts=experts, cost_scale=cost_scale)


# --------------------------------------------------------------------- #
# prefetch: per-layer expert sets
# --------------------------------------------------------------------- #
ExpertSets = List[Set[int]]  # one set of expert ids per MoE layer


def mask_sets(mask: np.ndarray) -> ExpertSets:
    """A ``(layers, experts)`` mask as one set of expert ids per layer."""
    return [set(np.flatnonzero(row).tolist()) for row in np.asarray(mask)]


def reference_lookahead(stream: Sequence[ExpertSets]) -> List[ExpertKey]:
    """``stream_lookahead`` on per-layer sets: each step's ``(layer,
    expert)`` keys, sorted."""
    return [key for step in stream
            for key in sorted((layer, e) for layer, layer_set in
                              enumerate(step) for e in layer_set)]


class ReferenceTransitionPredictor:
    """``TransitionPredictor`` on per-layer expert sets, layer by layer."""

    def __init__(self, num_layers: int, num_experts: int):
        self.counts = np.zeros((num_layers, num_experts, num_experts))

    def update(self, previous: ExpertSets, current: ExpertSets) -> None:
        for layer, (prev, cur) in enumerate(zip(previous, current)):
            if prev and cur:
                self.counts[layer][np.ix_(sorted(prev), sorted(cur))] += 1.0

    def predict(self, current: ExpertSets) -> ExpertSets:
        out: ExpertSets = []
        for layer, cur in enumerate(current):
            budget = len(cur)
            if budget == 0:
                out.append(set())
                continue
            row = self.counts[layer][sorted(cur)].sum(axis=0)
            order = np.argsort(-row, kind="stable")  # ties: lowest id first
            picked = [int(e) for e in order[:budget] if row[e] > 0]
            if len(picked) < budget:  # cold start: previous-token fallback
                for e in sorted(cur):
                    if e not in picked:
                        picked.append(e)
                    if len(picked) == budget:
                        break
            out.append(set(picked))
        return out


class ReferenceFetchScheduler(OverlappedFetchScheduler):
    """``OverlappedFetchScheduler.step`` on per-layer expert sets.

    The step's keys are collected into a set of ``(layer, expert)`` tuples
    and accessed in ``sorted`` order; the predictor takes and returns sets
    (a :class:`ReferenceTransitionPredictor`, or ``None``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._predicted_keys: set = set()
        self._prev_sets: Optional[ExpertSets] = None

    def step(self, needed_sets: Sequence[Set[int]], tokens: int = 1
             ) -> StepFetchReport:
        stats = self.stats
        stats.steps += 1
        remote_before = stats.remote_bytes
        needed_keys = {(layer, int(e))
                       for layer, layer_set in enumerate(needed_sets)
                       for e in layer_set}
        predicted = self._predicted_keys
        correct = len(needed_keys & predicted)
        stats.correct += correct
        stats.wasted += len(predicted - needed_keys)

        compute = self._token_compute * max(int(tokens), 1)
        hidden_time = min(self._pending_time, compute)
        overflow_time = self._pending_time - hidden_time
        hidden_fraction = safe_ratio(hidden_time, self._pending_time)
        hidden_bytes = self._pending_bytes * hidden_fraction
        overflow_bytes = self._pending_bytes - hidden_bytes

        sync_time = 0.0
        sync_bytes = 0.0
        sync_fetches = 0
        for key in sorted(needed_keys):
            if not self.cache.access(key):
                seconds, nbytes, remote = self._fetch_cost(key)
                sync_time += seconds
                sync_bytes += nbytes
                sync_fetches += 1
                if remote:
                    stats.remote_bytes += nbytes
        stats.sync_fetches += sync_fetches
        stats.hidden_bytes += hidden_bytes
        stats.unhidden_bytes += overflow_bytes + sync_bytes
        latency = compute + overflow_time + sync_time

        predicted_count = 0
        prefetch_fetches = 0
        pending_time = 0.0
        pending_bytes = 0.0
        if self.predictor is not None:
            if self._prev_sets is not None:
                self.predictor.update(self._prev_sets, needed_sets)
            self._prev_sets = [set(layer) for layer in needed_sets]
            next_sets = self.predictor.predict(needed_sets)
            self._predicted_keys = {(layer, int(e))
                                    for layer, layer_set in enumerate(
                                        next_sets)
                                    for e in layer_set}
            predicted_count = len(self._predicted_keys)
            stats.predicted += predicted_count
            for key in sorted(self._predicted_keys):
                if key not in self.cache:
                    self.cache.access(key)
                    seconds, nbytes, remote = self._fetch_cost(key)
                    pending_time += seconds
                    pending_bytes += nbytes
                    prefetch_fetches += 1
                    if remote:
                        stats.remote_bytes += nbytes
            stats.prefetch_fetches += prefetch_fetches
        self._pending_time = pending_time
        self._pending_bytes = pending_bytes

        return StepFetchReport(
            tokens=int(tokens), compute_s=compute, latency_s=latency,
            predicted=predicted_count, correct=correct,
            sync_fetches=sync_fetches, prefetch_fetches=prefetch_fetches,
            hidden_bytes=hidden_bytes,
            unhidden_bytes=overflow_bytes + sync_bytes,
            remote_bytes=stats.remote_bytes - remote_before)


# --------------------------------------------------------------------- #
# replication: loops over layers, experts and holders
# --------------------------------------------------------------------- #
def _loop_step_comm_time(placement: ReplicatedPlacement,
                         coef: np.ndarray) -> float:
    """The replicated Eq. (7) objective from ``(workers, layers,
    experts)`` coefficients, one holder at a time."""
    total = 0.0
    for layer in range(placement.num_layers):
        worker_time = np.zeros(coef.shape[0])
        for expert in range(placement.num_experts):
            holders = placement.holders(layer, expert)
            fractions = placement.fractions(layer, expert)
            for worker, fraction in zip(holders, fractions):
                worker_time[worker] += coef[worker, layer, expert] * fraction
        total += worker_time.max()
    return float(total)


def reference_step_comm_time_replicated(placement: ReplicatedPlacement,
                                        problem) -> float:
    """``expected_step_comm_time_replicated`` as loops over layers,
    experts and holders."""
    return _loop_step_comm_time(placement, comm_coefficients(problem))


class ReferenceReplicationStrategy(ReplicationStrategy):
    """:class:`ReplicationStrategy` choosing each move with the loops."""

    def _best_move(self, placement, coef, capacities):
        coef = coef.transpose(1, 2, 0)  # (workers, layers, experts)
        num_workers = coef.shape[0]
        loads = placement.worker_loads(num_workers)
        spare = capacities - loads
        if spare.max() <= 0:
            return None

        layer_times = np.zeros((placement.num_layers, num_workers))
        for layer in range(placement.num_layers):
            for expert in range(placement.num_experts):
                for worker, fraction in zip(
                        placement.holders(layer, expert),
                        placement.fractions(layer, expert)):
                    layer_times[layer, worker] += \
                        coef[worker, layer, expert] * fraction

        bottleneck_layer = int(layer_times.max(axis=1).argmax())
        bottleneck_worker = int(layer_times[bottleneck_layer].argmax())

        best_expert, best_cost = None, 0.0
        for expert in range(placement.num_experts):
            holders = placement.holders(bottleneck_layer, expert)
            if bottleneck_worker not in holders:
                continue
            idx = holders.index(bottleneck_worker)
            cost = coef[bottleneck_worker, bottleneck_layer, expert] * \
                placement.fractions(bottleneck_layer, expert)[idx]
            if cost > best_cost:
                best_cost, best_expert = cost, expert
        if best_expert is None:
            return None

        key = (bottleneck_layer, best_expert)
        current_holders = set(placement.holders(*key))
        best = None
        for worker in range(num_workers):
            if spare[worker] <= 0 or worker in current_holders:
                continue
            trial = ReplicatedPlacement(
                placement.primary,
                {**placement.replicas,
                 key: placement.replicas.get(key, []) + [worker]},
                placement.bandwidths, name=placement.name)
            objective = _loop_step_comm_time(trial, coef)
            if best is None or objective < best[2]:
                best = (key, worker, objective)
        return best


# --------------------------------------------------------------------- #
# synthetic routing: one Gumbel draw over the whole step
# --------------------------------------------------------------------- #
def reference_sample_counts(self, logits: np.ndarray, tokens: int,
                            rng: np.random.Generator) -> np.ndarray:
    """``SyntheticRouter._sample_counts`` as numpy's scalar Gumbel loop,
    ``argpartition`` and one flat ``bincount`` over (layer, expert)."""
    layers, experts = logits.shape
    k = self.config.top_k
    gumbel = rng.gumbel(size=(layers, tokens, experts)) * \
        self.regime.gate_temperature
    scores = logits[:, None, :] + gumbel
    top = np.argpartition(-scores, k - 1, axis=2)[:, :, :k]
    flat = (np.arange(layers, dtype=np.int64)[:, None, None] * experts
            + top).reshape(-1)
    return np.bincount(flat, minlength=layers * experts).reshape(
        layers, experts)


def reference_top_k_counts(scores: np.ndarray, k: int) -> np.ndarray:
    """How often each expert of an ``(experts, tokens)`` block is among a
    token's ``k`` highest scores, thresholding at the ``k``-th largest
    distinct score, then re-selecting over-full tokens by a stable sort."""
    rest = scores
    for _ in range(k - 1):
        rest = np.where(rest == rest.max(axis=0), -np.inf, rest)
    selected = scores >= rest.max(axis=0)
    counts = np.count_nonzero(selected, axis=1)
    if counts.sum() != k * scores.shape[1]:
        over = np.flatnonzero(np.count_nonzero(selected, axis=0) > k)
        ranked = np.argsort(-scores[:, over], axis=0, kind="stable")[:k]
        selected[:, over] = False
        selected[ranked, over] = True
        counts = np.count_nonzero(selected, axis=1)
    return counts
