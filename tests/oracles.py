"""Reference implementations the optimized library paths are checked against.

Each oracle is the plain, readable form of a computation whose fast form
lives in ``src/``; the equivalence tests and the benchmarks that time the
speedup import them from here.

* :func:`reference_dispatch` — the per-(slot, expert) MoE dispatch loop
  with an ``np.add.at`` scatter, against
  :func:`repro.models.moe_block.fused_dispatch` (same signature, so a test
  can swap it in with ``monkeypatch.setattr(moe_block, "fused_dispatch",
  reference_dispatch)``).
* :func:`replay_per_step` — a trace replay as a loop over the public
  ``run_step``, against the engines' batched ``run_trace``.
* :class:`ScanLocalSearchRefiner` — local search scoring one candidate at
  a time, against :class:`repro.placement.local_search.LocalSearchRefiner`.
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
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.nn import causal_mask
from repro.nn.functional import dropout, softmax
from repro.nn.tensor import Tensor
from repro.placement.local_search import LocalSearchRefiner
from repro.placement.lp import comm_coefficients
from repro.placement.replication import (ReplicatedPlacement,
                                         ReplicationStrategy)
from repro.runtime.engine import replay_limit
from repro.runtime.metrics import RunMetrics
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


def replay_per_step(engine, trace, max_steps: Optional[int] = None):
    """Replay ``trace`` on ``engine`` one public ``run_step`` at a time.

    Returns what the engine's ``run_trace`` returns: a
    :class:`~repro.runtime.metrics.RunMetrics` for the step engines, the
    list of per-step results for the event-driven engine.
    """
    steps = [engine.run_step(trace.step_counts(step), step=step)
             for step in range(replay_limit(trace, max_steps))]
    if not hasattr(engine, "strategy_name"):
        return steps
    run = RunMetrics(strategy=engine.strategy_name)
    for metrics in steps:
        run.append(metrics)
    return run


class ScanLocalSearchRefiner(LocalSearchRefiner):
    """:class:`LocalSearchRefiner` scoring one candidate at a time."""

    def _best_action(self, assignment, worker_time, loads, caps, coef):
        num_workers, layers = worker_time.shape
        experts = assignment.shape[1]
        best_delta = -1e-15
        best_action: Optional[Tuple] = None
        for l in range(layers):
            current_max = worker_time[:, l].max()
            order = np.argsort(-worker_time[:, l])
            bottleneck = order[0]
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
                    other = assignment[l, e2]
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
