"""Multi-master data parallelism on top of VELA's framework.

The paper argues against full data parallelism for end-user fine-tuning
(model replication is wasteful) but its master-worker design admits a
lighter middle ground: replicate only the *backbone* across ``R`` masters,
shard the batch ``R`` ways, and keep one shared pool of expert workers.
Backbone compute parallelizes (it is the master's serial bottleneck in the
single-master design) at the cost of (a) an all-reduce over the backbone's
LoRA gradients and (b) every worker now serving ``R`` smaller exchanges per
block instead of one.

``effective_bandwidths`` exposes the harmonic-mean per-worker bandwidth the
placement LP should use in this setting (each token's transfer cost on
worker ``n`` averages ``1/B_{r,n}`` over masters ``r``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..cluster.topology import ClusterTopology
from ..comm.collective import ring_time
from ..models.config import MoEModelConfig
from ..placement.base import Placement
from ..routing.trace import RoutingTrace
from .broker import ExpertBroker
from .engine import (lora_backbone_param_count, lora_expert_param_count,
                     replay_limit, validate_step_size)
from .flops import FlopModel
from .metrics import RunMetrics, StepMetrics


def master_worker_link(topology: ClusterTopology, master_worker_id: int,
                       worker: int):
    """Link between a master (hosted on ``master_worker_id``'s GPU) and a
    worker process."""
    return topology.worker_link(master_worker_id, worker)


def effective_bandwidths(topology: ClusterTopology,
                         master_ids: Sequence[int]) -> List[float]:
    """Harmonic-mean bandwidth each worker presents to the master set."""
    if not master_ids:
        raise ValueError("need at least one master")
    out = []
    for worker in range(topology.num_workers):
        inverse = sum(1.0 / master_worker_link(topology, m, worker)
                      .bandwidth_bytes_per_s for m in master_ids)
        out.append(len(master_ids) / inverse)
    return out


class MultiMasterEngine:
    """R backbone replicas sharding the batch over one expert-worker pool.

    ``master_ids`` are worker ids whose GPUs host the backbone replicas
    (their expert capacity should be reduced accordingly by the caller).
    """

    def __init__(self, config: MoEModelConfig, topology: ClusterTopology,
                 placement: Placement, tokens_per_step: int, seq_len: int,
                 master_ids: Sequence[int], lora_rank: int = 8,
                 strategy_name: Optional[str] = None):
        validate_step_size(tokens_per_step, seq_len)
        master_ids = list(master_ids)
        if not master_ids:
            raise ValueError("need at least one master")
        if len(set(master_ids)) != len(master_ids):
            raise ValueError("master ids must be distinct")
        for m in master_ids:
            if not 0 <= m < topology.num_workers:
                raise ValueError(f"master id {m} out of range")
        self.config = config
        self.topology = topology
        self.placement = placement
        self.tokens_per_step = tokens_per_step
        self.seq_len = seq_len
        self.master_ids = master_ids
        self.lora_rank = lora_rank
        self.strategy_name = strategy_name or \
            f"{placement.name}+dp{len(master_ids)}"
        self.flops = FlopModel(config)
        self.broker = ExpertBroker(config, placement, topology.num_workers)
        self.token_bytes = config.token_feature_nbytes()

    @property
    def num_masters(self) -> int:
        """Backbone replicas in this setup."""
        return len(self.master_ids)

    # ------------------------------------------------------------------ #
    def _layer_span(self, layer_tokens: np.ndarray, backward: bool) -> float:
        """Fork-join span of one block with R concurrent masters.

        Each worker receives one exchange per master (1/R of its tokens
        each, in expectation); transfers from distinct masters proceed in
        parallel, so the worker's transfer phase is the slowest master leg.
        """
        span = 0.0
        shard = 1.0 / self.num_masters
        for worker in range(self.topology.num_workers):
            tokens = float(layer_tokens[worker])
            if tokens <= 0:
                continue
            per_master_bytes = tokens * shard * self.token_bytes
            transfer = max(
                master_worker_link(self.topology, m, worker).transfer_time(
                    per_master_bytes)
                for m in self.master_ids)
            device = self.topology.workers[worker].device
            compute = self.flops.expert_time(device, tokens,
                                             backward=backward)
            span = max(span, 2.0 * transfer + compute)
        return span

    def run_step(self, step_counts: np.ndarray, step: int = 0) -> StepMetrics:
        """Simulate one fine-tuning step; returns its metrics."""
        plan = self.broker.plan_step(step_counts)   # (workers, layers)
        shard_tokens = self.tokens_per_step / self.num_masters
        # Masters run in parallel; the slowest device gates each phase.
        master_devices = [self.topology.workers[m].device
                          for m in self.master_ids]
        slowest = min(master_devices, key=lambda d: d.effective_flops)

        total = comm = compute = 0.0
        for backward in (False, True):
            for layer in range(self.config.num_layers):
                backbone = self.flops.backbone_layer_time(
                    slowest, shard_tokens, self.seq_len, backward=backward)
                span = self._layer_span(plan[:, layer], backward)
                total += backbone + span
                compute += backbone
                comm += span  # conservative attribution
        head = 3.0 * self.flops.head_time(slowest, shard_tokens)
        trainable = lora_backbone_param_count(self.config, self.lora_rank)
        allreduce = self._master_all_reduce_time(trainable * 4.0)
        optimizer = self.flops.optimizer_time(slowest, trainable)
        worker_opt = self.flops.optimizer_time(
            self.topology.device,
            lora_expert_param_count(self.config, self.lora_rank))
        total += head + allreduce + optimizer + worker_opt
        compute += head + optimizer + worker_opt

        total_bytes, cross = self._traffic(plan)
        return StepMetrics(step=step, total_time=total, comm_time=comm,
                           compute_time=compute, sync_time=0.0,
                           allreduce_time=allreduce, total_bytes=total_bytes,
                           cross_node_bytes=cross,
                           num_nodes=self.topology.num_nodes)

    def _master_all_reduce_time(self, nbytes: float) -> float:
        if self.num_masters == 1:
            return 0.0
        # Reuse the ring model over the masters' links; cross-node if the
        # masters span nodes.
        nodes = {self.topology.node_of(m) for m in self.master_ids}
        if len(nodes) > 1:
            link = self.topology.cross_link
        else:
            link = self.topology.intra_link
        return ring_time(self.num_masters, nbytes, link)

    def _traffic(self, plan: np.ndarray) -> tuple:
        """Total and cross-node bytes: 4 transfers x per-master shards."""
        shard = 1.0 / self.num_masters
        total = cross = 0.0
        per_worker_tokens = plan.sum(axis=1)  # over layers
        for worker in range(self.topology.num_workers):
            tokens = float(per_worker_tokens[worker])
            if tokens <= 0:
                continue
            for m in self.master_ids:
                nbytes = 4.0 * tokens * shard * self.token_bytes
                total += nbytes
                if self.topology.is_cross_node(m, worker):
                    cross += nbytes
        # masters' gradient all-reduce
        if self.num_masters > 1:
            trainable_bytes = lora_backbone_param_count(
                self.config, self.lora_rank) * 4.0
            r = self.num_masters
            ring_edge = 2.0 * (r - 1) / r * trainable_bytes
            nodes = [self.topology.node_of(m) for m in self.master_ids]
            cross_edges = sum(1 for i in range(r)
                              if nodes[i] != nodes[(i + 1) % r])
            total += ring_edge * r
            cross += ring_edge * cross_edges
        return total, cross

    def run_trace(self, trace: RoutingTrace,
                  max_steps: Optional[int] = None) -> RunMetrics:
        """Replay every step of a routing trace."""
        run = RunMetrics(strategy=self.strategy_name)
        for step in range(replay_limit(trace, max_steps)):
            run.append(self.run_step(trace.step_counts(step), step=step))
        return run
