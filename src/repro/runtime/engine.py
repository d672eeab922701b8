"""Fine-tuning step engines: VELA's master-worker runtime and the
conventional expert-parallelism runtime.

Both engines replay a routing trace (the placement-independent record of
which experts each step's tokens selected) and produce per-step
:class:`~repro.runtime.metrics.StepMetrics`.  The two differ exactly where
the paper says they differ (Section V-B):

* **Master-worker** (VELA framework): per block, the master computes the
  backbone, then exchanges tokens with each worker over independent links —
  a fork-join whose span is the slowest worker chain.  No status
  synchronization is needed because the master knows every transfer size.
* **Expert parallelism**: the backbone is replicated and inputs are sharded;
  each block requires a status synchronization followed by a synchronized
  all-to-all in each direction, and the step ends with an all-reduce over
  the replicated trainable parameters.

Each engine has one replay path.  ``run_trace`` replays a whole trace at
once: one :meth:`ExpertBroker.plan_trace` for every step, then every
per-(step, layer, worker) quantity — fork-join spans, backbone times,
all-to-all and all-reduce costs — reduced as batched numpy operations
with no Python loops over steps or workers.  ``run_step(step_counts,
step)`` is the same replay on a one-step trace, its metrics, spans and
monitor feed labelled ``step``.

Replay contract
---------------
The readable specification of a step is the seed's per-step loop over
layers and workers, kept as the test oracle ``replay_per_step`` in
``tests/oracles.py``.  Every ``StepMetrics`` field of ``run_trace`` agrees
with it to ``< 1e-9`` relative divergence (observed ~1e-15): on all four
paper cells in ``tests/runtime/test_vectorized_engine.py``, on random
small models, topologies, placements and traces in
``tests/runtime/test_replay_property.py``, and re-measured by
``benchmarks/bench_replay.py``.

Observability
-------------
Both engines accept ``telemetry=`` (a :class:`repro.telemetry.Telemetry`);
when set, every simulated phase — backbone, expert fork-join, status sync,
all-to-all, all-reduce, head, optimizer — is recorded as a model-time span,
in the span sequence of the oracle loops, and successive calls land back
to back on one timeline.  Per-step span durations sum exactly to the
``StepMetrics`` aggregates (verified to 1e-9 by
``benchmarks/bench_fig6_step_time.py --trace-out``).  With the default
``telemetry=None`` the replay pays one attribute check.  Span naming
lives in ``docs/OBSERVABILITY.md``.

Both engines also accept ``monitor=`` (a :class:`repro.telemetry.monitor.
RoutingHealthMonitor`); when set, every replayed step feeds the monitor's
routing-health gauges (load imbalance, locality hit-rate) and anomaly
detectors, with the same ``None``-is-free contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..cluster.topology import ClusterTopology
from ..comm.collective import ring_all_reduce_time, status_sync_time
from ..models.config import MoEModelConfig
from ..placement.base import Placement
from ..routing.trace import RoutingTrace
from ..telemetry import Telemetry
from ..telemetry.monitor import RoutingHealthMonitor
from .broker import ExpertBroker
from .flops import BACKWARD_MULTIPLIER, FlopModel
from .metrics import RunMetrics, StepMetrics


def validate_step_size(tokens_per_step: int, seq_len: int) -> None:
    """Reject a step without tokens or sequence length, before any work."""
    if tokens_per_step < 1:
        raise ValueError("tokens_per_step must be positive")
    if seq_len < 1:
        raise ValueError("seq_len must be positive")


def replay_limit(trace: RoutingTrace, max_steps: Optional[int]) -> int:
    """Steps a replay covers: the whole trace, or its first ``max_steps``.

    Raises before any work unless there is at least one step to replay: a
    negative ``max_steps`` would slice the trace from its end, and zero
    steps (``max_steps=0`` or an empty trace) would return a run whose
    averages are NaN.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    limit = trace.num_steps if max_steps is None \
        else min(max_steps, trace.num_steps)
    if limit < 1:
        raise ValueError("the trace has no steps to replay")
    return limit


def fork_join_span_arrays(topology: ClusterTopology, flops: FlopModel,
                          trace_tokens: np.ndarray,
                          token_bytes: float) -> Dict[str, np.ndarray]:
    """Batched fork-join spans for a whole trace replay.

    ``trace_tokens`` is a :meth:`ExpertBroker.plan_trace` token tensor of
    shape ``(steps, workers, layers)``.  For each (step, layer) the span is
    the slowest worker chain ``dispatch -> expert compute -> gather``
    (workers with zero tokens are skipped; ties go to the lowest worker
    id), computed for every step and layer at once.

    Returns ``(steps, layers)`` arrays ``span_f/span_b`` (forward/backward
    spans), ``comm_f/comm_b`` and ``comp_f/comp_b`` (the comm and compute
    attribution of each span's slowest chain).
    """
    num_workers = topology.num_workers
    lat = np.array([topology.master_link(w).latency_s
                    for w in range(num_workers)])[None, :, None]
    bw = np.array([topology.master_link(w).bandwidth_bytes_per_s
                   for w in range(num_workers)])[None, :, None]
    dev = np.array([w.device.effective_flops
                    for w in topology.workers])[None, :, None]

    tokens = trace_tokens.astype(np.float64)        # (S, N, L)
    mask = trace_tokens > 0
    transfer = lat + (tokens * token_bytes) / bw    # one direction
    base_flops = flops.expert_forward_flops() * tokens
    comp_f = base_flops / dev
    comp_b = (base_flops * BACKWARD_MULTIPLIER) / dev

    out: Dict[str, np.ndarray] = {}
    for suffix, comp in (("f", comp_f), ("b", comp_b)):
        chain = np.where(mask, transfer + comp + transfer, 0.0)
        span = chain.max(axis=1)                    # (S, L)
        idx = chain.argmax(axis=1)[:, None, :]      # first max
        sel_transfer = np.take_along_axis(transfer, idx, axis=1)[:, 0, :]
        sel_comp = np.take_along_axis(comp, idx, axis=1)[:, 0, :]
        active = span > 0
        out[f"span_{suffix}"] = span
        out[f"comm_{suffix}"] = np.where(active, sel_transfer + sel_transfer,
                                         0.0)
        out[f"comp_{suffix}"] = np.where(active, sel_comp, 0.0)
    return out


def lora_backbone_param_count(config: MoEModelConfig, rank: int = 8) -> int:
    """Trainable LoRA parameters on the replicated (non-expert) layers.

    Four attention projections per layer plus the LM head; the gate is
    excluded (frozen, per the paper's fine-tuning setup).
    """
    per_layer = 4 * (config.hidden_size + config.hidden_size) * rank
    head = (config.vocab_size + config.hidden_size) * rank
    return config.num_layers * per_layer + head


def lora_expert_param_count(config: MoEModelConfig, rank: int = 8) -> int:
    """Trainable LoRA parameters of a single expert (three projections)."""
    return 3 * (config.hidden_size + config.ffn_hidden_size) * rank


class _StepEngine:
    """What the step engines share: the constructor's common half, and
    ``run_step`` / ``run_trace`` over the engine's one batched ``_replay``.
    """

    def __init__(self, config: MoEModelConfig, topology: ClusterTopology,
                 placement: Placement, tokens_per_step: int, seq_len: int,
                 lora_rank: int, strategy_name: str,
                 telemetry: Optional[Telemetry],
                 monitor: Optional[RoutingHealthMonitor]):
        validate_step_size(tokens_per_step, seq_len)
        self.config = config
        self.topology = topology
        self.placement = placement
        self.tokens_per_step = tokens_per_step
        self.seq_len = seq_len
        self.lora_rank = lora_rank
        self.strategy_name = strategy_name
        self.telemetry = telemetry
        self.monitor = monitor
        # Model-time cursor: successive steps land back to back on the
        # exported trace timeline.
        self._telemetry_now = 0.0
        self.flops = FlopModel(config)
        self.token_bytes = config.token_feature_nbytes()
        self.broker = ExpertBroker(config, placement, topology.num_workers,
                                   telemetry=telemetry, monitor=monitor)

    def _replay(self, counts: np.ndarray,
                first_step: int) -> List[StepMetrics]:
        """Metrics of every step of a ``(steps, layers, experts)`` count
        tensor, labelled from ``first_step``; records spans, counters and
        monitor feeds as it goes."""
        raise NotImplementedError

    def _observe_steps(self, counts: np.ndarray, first_step: int) -> None:
        """Feed each step's counts to the routing-health monitor, if any."""
        if self.monitor is not None:
            for offset, step_counts in enumerate(counts):
                self.monitor.observe_step(step_counts,
                                          step=first_step + offset)

    def run_step(self, step_counts: np.ndarray, step: int = 0) -> StepMetrics:
        """Simulate one fine-tuning step: the replay of a one-step trace,
        its metrics and spans labelled ``step``."""
        return self._replay(np.asarray(step_counts)[None], step)[0]

    def run_trace(self, trace: RoutingTrace,
                  max_steps: Optional[int] = None) -> RunMetrics:
        """Replay every step of a routing trace (or its first
        ``max_steps``) as batched numpy reductions."""
        limit = replay_limit(trace, max_steps)
        return RunMetrics(strategy=self.strategy_name,
                          steps=self._replay(trace.counts[:limit], 0))


class MasterWorkerEngine(_StepEngine):
    """VELA's runtime: backbone on the master, experts sharded on workers."""

    def __init__(self, config: MoEModelConfig, topology: ClusterTopology,
                 placement: Placement, tokens_per_step: int, seq_len: int,
                 lora_rank: int = 8, strategy_name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None,
                 monitor: Optional[RoutingHealthMonitor] = None):
        super().__init__(config, topology, placement, tokens_per_step,
                         seq_len, lora_rank, strategy_name or placement.name,
                         telemetry, monitor)
        self.master_device = topology.workers[topology.master_worker_id].device
        # Experts per worker, whose adapters its optimizer step updates.
        self.hosted_experts = placement.worker_loads(topology.num_workers)

    def _vectorized_core_total(self, spans: Dict[str, np.ndarray], bf: float,
                               bb: float, head: float) -> np.ndarray:
        """Per-step time before the optimizer tail, shape ``(steps,)``."""
        num_layers = self.config.num_layers
        return (num_layers * (bf + bb) + head
                + spans["span_f"].sum(axis=1) + spans["span_b"].sum(axis=1))

    def _emit_vectorized_telemetry(self, spans: Dict[str, np.ndarray],
                                   first_step: int, bf: float, bb: float,
                                   head: float, optimizer: float,
                                   worker_opt: float) -> None:
        """Lay the replayed arrays onto the trace timeline as spans.

        Only runs when telemetry is enabled, so the replay stays loop-free
        when it is off.
        """
        telemetry = self.telemetry
        t = self._telemetry_now
        for offset in range(spans["span_f"].shape[0]):
            step = first_step + offset
            for direction, b, key in (("fwd", bf, "f"), ("bwd", bb, "b")):
                span_arr = spans[f"span_{key}"]
                comm_arr = spans[f"comm_{key}"]
                comp_arr = spans[f"comp_{key}"]
                for layer in range(self.config.num_layers):
                    telemetry.record_span(
                        "mw.backbone", t, b, category="backbone",
                        track="master", step=step, layer=layer,
                        direction=direction)
                    t += b
                    span = float(span_arr[offset, layer])
                    telemetry.record_span(
                        "mw.fork_join", t, span, category="fork_join",
                        track="master", step=step, layer=layer,
                        direction=direction,
                        comm_s=float(comm_arr[offset, layer]),
                        compute_s=float(comp_arr[offset, layer]))
                    t += span
            telemetry.record_span("mw.head", t, head, category="head",
                                  track="master", step=step)
            t += head
            telemetry.record_span("mw.optimizer.master", t, optimizer,
                                  category="optimizer", track="master",
                                  step=step)
            t += optimizer
            telemetry.record_span("mw.optimizer.worker", t, worker_opt,
                                  category="optimizer", track="master",
                                  step=step)
            t += worker_opt
        self._telemetry_now = t

    def _replay(self, counts: np.ndarray,
                first_step: int) -> List[StepMetrics]:
        plan = self.broker.plan_trace(counts)
        self._observe_steps(counts, first_step)
        spans = fork_join_span_arrays(self.topology, self.flops, plan,
                                      self.token_bytes)
        num_layers = self.config.num_layers
        tokens = float(self.tokens_per_step)
        device = self.master_device
        bf = self.flops.backbone_layer_time(device, tokens, self.seq_len)
        bb = self.flops.backbone_layer_time(device, tokens, self.seq_len,
                                            backward=True)
        head = (self.flops.head_time(device, tokens)
                + self.flops.head_time(device, tokens, backward=True))
        optimizer = self.flops.optimizer_time(
            device, lora_backbone_param_count(self.config, self.lora_rank))
        per_expert = lora_expert_param_count(self.config, self.lora_rank)
        worker_opt = max(
            self.flops.optimizer_time(w.device, per_expert * int(hosted))
            for w, hosted in zip(self.topology.workers, self.hosted_experts))
        tail = optimizer + worker_opt
        if self.telemetry is not None:
            self._emit_vectorized_telemetry(spans, first_step, bf, bb, head,
                                            optimizer, worker_opt)

        total = self._vectorized_core_total(spans, bf, bb, head) + tail
        comm = spans["comm_f"].sum(axis=1) + spans["comm_b"].sum(axis=1)
        compute = (num_layers * (bf + bb) + spans["comp_f"].sum(axis=1)
                   + spans["comp_b"].sum(axis=1) + head + tail)

        # Byte accounting == CommCostModel.step_bytes_per_worker, batched.
        bytes_per_worker = 4.0 * (self.token_bytes
                                  * plan.sum(axis=2))          # (S, N)
        total_bytes = bytes_per_worker.sum(axis=1)
        cross_mask = np.array(
            [self.topology.is_cross_node_from_master(w)
             for w in range(self.topology.num_workers)])
        cross = bytes_per_worker[:, cross_mask].sum(axis=1)

        return [StepMetrics(
            step=first_step + offset, total_time=float(total[offset]),
            comm_time=float(comm[offset]),
            compute_time=float(compute[offset]), sync_time=0.0,
            allreduce_time=0.0, total_bytes=float(total_bytes[offset]),
            cross_node_bytes=float(cross[offset]),
            num_nodes=self.topology.num_nodes)
            for offset in range(len(counts))]


class ExpertParallelEngine(_StepEngine):
    """Conventional expert parallelism: replicated backbone, all-to-all."""

    def __init__(self, config: MoEModelConfig, topology: ClusterTopology,
                 placement: Placement, tokens_per_step: int, seq_len: int,
                 lora_rank: int = 8, strategy_name: str = "expert_parallel",
                 sync_software_overhead_s: float = 0.008,
                 telemetry: Optional[Telemetry] = None,
                 monitor: Optional[RoutingHealthMonitor] = None):
        """``sync_software_overhead_s`` is the per-block status-sync cost.

        Beyond wire latency, a blocking size-exchange in a real framework
        pays kernel-launch, host-synchronization and straggler costs; ~8 ms
        per collective is typical of PyTorch-distributed over Ethernet and
        matches the EP slowdown the paper measures (Fig. 6 discussion).  Set
        to 0 to model an idealized zero-overhead runtime (see the ablation
        bench).
        """
        if sync_software_overhead_s < 0:
            raise ValueError("sync overhead must be non-negative")
        super().__init__(config, topology, placement, tokens_per_step,
                         seq_len, lora_rank, strategy_name, telemetry,
                         monitor)
        self.sync_software_overhead_s = sync_software_overhead_s
        # Replicated phases end at a barrier, so the slowest device gates
        # every data-parallel compute step; expert compute is per-owner.
        self.worker_devices = [w.device for w in topology.workers]
        self.slowest_device = min(self.worker_devices,
                                  key=lambda d: d.effective_flops)

    def _ring_cross_edges(self) -> int:
        """Node-boundary edges of the natural worker ring 0-1-...-N-0."""
        n = self.topology.num_workers
        return sum(1 for w in range(n)
                   if self.topology.is_cross_node(w, (w + 1) % n))

    def _worker_pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-diagonal ``(N, N)`` latency and inverse-bandwidth matrices."""
        n = self.topology.num_workers
        lat = np.zeros((n, n))
        inv_bw = np.zeros((n, n))
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                link = self.topology.worker_link(a, b)
                lat[a, b] = link.latency_s
                inv_bw[a, b] = 1.0 / link.bandwidth_bytes_per_s
        return lat, inv_bw

    def _replay(self, counts: np.ndarray,
                first_step: int) -> List[StepMetrics]:
        steps = len(counts)
        config = self.config
        n = self.topology.num_workers
        num_layers = config.num_layers
        shard_tokens = self.tokens_per_step / n
        sync_unit = status_sync_time(self.topology) + \
            self.sync_software_overhead_s

        plan = self.broker.plan_trace(counts)
        self._observe_steps(counts, first_step)
        # Per-destination payload of the uniform-shard all-to-all: inputs
        # are sharded uniformly, so every device sends 1/N of each
        # destination's token selections, and one (S, L, N) slab carries
        # every step's byte matrices at once.
        dest_tokens = plan.transpose(0, 2, 1).astype(np.float64)
        payload = dest_tokens / n * self.token_bytes          # (S, L, N)
        present = (payload > 0).astype(np.float64)

        lat, inv_bw = self._worker_pair_arrays()
        # Dispatch: source `src` serializes sends of payload[dst] to every
        # other device; collective time is the slowest source.
        send_time = present @ lat.T + payload @ inv_bw.T      # (S, L, src)
        dispatch = send_time.max(axis=2)
        # Gather is the transposed matrix: source `src` sends payload[src]
        # to every other device over its own outgoing links.
        gather_time = present * (lat.sum(axis=1)[None, None, :]
                                 + payload * inv_bw.sum(axis=1)[None, None, :])
        gather = gather_time.max(axis=2)

        dev = np.array([d.effective_flops for d in self.worker_devices])
        # Tokens each destination's experts compute: n * payload / bytes.
        expert_tokens = payload * n / self.token_bytes
        expert = ((self.flops.expert_forward_flops() * expert_tokens)
                  / dev[None, None, :]).max(axis=2)           # forward pass

        backbone = self.flops.backbone_layer_time(self.slowest_device,
                                                  shard_tokens, self.seq_len)
        head = 3.0 * self.flops.head_time(self.slowest_device, shard_tokens)
        trainable = lora_backbone_param_count(config, self.lora_rank)
        # Trainable-parameter gradients stay in full precision (the paper's
        # mixed-precision setup keeps non-pretrained variables at fp32).
        grad_bytes = trainable * 4.0
        allreduce = ring_all_reduce_time(grad_bytes, self.topology)
        optimizer = self.flops.optimizer_time(self.slowest_device, trainable)

        payload_layer_sum = payload.sum(axis=2)               # (S, L)
        if self.telemetry is not None:
            # Bytes on the wire, as all_to_all_time / ring_all_reduce_time
            # count them.
            self.telemetry.counter("comm.all_to_all.bytes").add(
                float(4.0 * ((n - 1) * payload_layer_sum).sum()))
            if n > 1:
                self.telemetry.counter("comm.all_reduce.bytes").add(
                    steps * 2.0 * (n - 1) * grad_bytes)
            self._emit_vectorized_telemetry(
                first_step, num_layers, backbone, sync_unit, dispatch, gather,
                expert, head, allreduce, optimizer)

        # Forward + backward pass: the byte matrix is identical, backbone and
        # expert compute double (BACKWARD_MULTIPLIER), comm repeats.
        dispatch_sum = dispatch.sum(axis=1)
        gather_sum = gather.sum(axis=1)
        expert_sum = expert.sum(axis=1)
        comm = 2.0 * (dispatch_sum + gather_sum)
        sync = 2.0 * num_layers * sync_unit
        compute = 3.0 * backbone * num_layers + 3.0 * expert_sum \
            + head + optimizer
        total = (3.0 * backbone + 2.0 * sync_unit) * num_layers \
            + 2.0 * dispatch_sum + 3.0 * expert_sum + 2.0 * gather_sum \
            + head + allreduce + optimizer

        # Byte accounting: off-diagonal payload per pass (x2 directions, x2
        # passes) plus the ring all-reduce volume.
        payload_sum = payload_layer_sum                       # (S, L)
        total_bytes = 4.0 * ((n - 1) * payload_sum).sum(axis=1)
        cross_count = np.array([
            sum(1 for src in range(n)
                if src != dst and self.topology.is_cross_node(src, dst))
            for dst in range(n)], dtype=np.float64)
        cross = 4.0 * (payload @ cross_count).sum(axis=1)
        ring_edge_bytes = 2.0 * (n - 1) / n * grad_bytes
        total_bytes = total_bytes + ring_edge_bytes * n
        cross = cross + ring_edge_bytes * self._ring_cross_edges()

        return [StepMetrics(
            step=first_step + offset, total_time=float(total[offset]),
            comm_time=float(comm[offset]),
            compute_time=float(compute[offset]), sync_time=float(sync),
            allreduce_time=float(allreduce),
            total_bytes=float(total_bytes[offset]),
            cross_node_bytes=float(cross[offset]),
            num_nodes=self.topology.num_nodes)
            for offset in range(steps)]

    def _emit_vectorized_telemetry(self, first_step: int, num_layers: int,
                                   backbone: float, sync_unit: float,
                                   dispatch: np.ndarray, gather: np.ndarray,
                                   expert_forward: np.ndarray, head: float,
                                   allreduce: float,
                                   optimizer: float) -> None:
        """Lay the replayed arrays onto the trace timeline as spans.

        ``dispatch``/``gather``/``expert_forward`` are the per-(step, layer)
        forward-pass arrays; the backward pass repeats comm and doubles
        compute.
        """
        telemetry = self.telemetry
        t = self._telemetry_now
        for offset in range(dispatch.shape[0]):
            step = first_step + offset
            for direction, mult in (("fwd", 1.0), ("bwd", 2.0)):
                for layer in range(num_layers):
                    common = dict(track="ep", step=step, layer=layer,
                                  direction=direction)
                    phases = (
                        ("ep.backbone", mult * backbone, "backbone"),
                        ("ep.status_sync", sync_unit, "sync"),
                        ("ep.all_to_all.dispatch",
                         float(dispatch[offset, layer]), "all_to_all"),
                        ("ep.expert",
                         mult * float(expert_forward[offset, layer]),
                         "expert"),
                        ("ep.all_to_all.gather",
                         float(gather[offset, layer]), "all_to_all"),
                    )
                    for name, duration, category in phases:
                        telemetry.record_span(name, t, duration,
                                              category=category, **common)
                        t += duration
            telemetry.record_span("ep.head", t, head, category="head",
                                  track="ep", step=step)
            t += head
            telemetry.record_span("ep.allreduce", t, allreduce,
                                  category="allreduce", track="ep", step=step)
            t += allreduce
            telemetry.record_span("ep.optimizer", t, optimizer,
                                  category="optimizer", track="ep", step=step)
            t += optimizer
        self._telemetry_now = t
