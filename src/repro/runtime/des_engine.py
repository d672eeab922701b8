"""Transfer-level execution of a master-worker fine-tuning step.

The closed-form :class:`~repro.runtime.engine.MasterWorkerEngine` computes
each block's span as ``max_n(dispatch + compute + gather)`` — the paper's
fork-join model, which assumes the master can transmit to every worker
concurrently.  This module times the same step transfer by transfer, in
the order the master issues them, which buys two things:

1. **Validation** — with unlimited master egress, the step time must
   equal the closed form exactly (asserted in tests).
2. **Contention studies** — real masters push all cross-node traffic through
   one NIC and all intra-node traffic through one PCIe root; enabling
   ``nic_contention`` books transfers on per-resource FIFOs
   (:class:`LinkResource`), quantifying how optimistic the paper's
   independent-links assumption is.

Replay contract
---------------
The per-transfer loop is this engine's only path: ``run_trace`` runs
``run_step`` once per step, since FIFO occupancy under contention is
genuinely sequential.  For traces of uncontended steps the batched
:class:`~repro.runtime.engine.MasterWorkerEngine` is the fast replay, and
its step times equal this loop's to ``1e-12`` (point 1 above).

Observability
-------------
With ``telemetry=``, each step is recorded at transfer resolution: master
backbone/head/optimizer spans on the ``master`` track and every expert
round-trip as dispatch → expert → gather spans on per-worker
``worker-<n>`` tracks — under contention the dispatch/gather spans start
when the FIFO grants the link, making queueing delay visible in the Chrome
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..cluster.topology import ClusterTopology
from ..models.config import MoEModelConfig
from ..placement.base import Placement
from ..routing.trace import RoutingTrace
from ..telemetry import Telemetry
from ..telemetry.monitor import RoutingHealthMonitor
from .broker import ExpertBroker
from .engine import (lora_backbone_param_count, lora_expert_param_count,
                     replay_limit, validate_step_size)
from .flops import FlopModel


class LinkResource:
    """A FIFO-serialized transmission resource (e.g. one NIC).

    ``occupy`` books a transfer of ``duration`` seconds starting no earlier
    than ``start``; returns the completion time.  Used by
    :class:`EventDrivenMasterWorker` to model a master process whose
    cross-node sends share one NIC.
    """

    def __init__(self) -> None:
        self.free_at = 0.0
        self.busy_time = 0.0

    def occupy(self, start: float, duration: float) -> float:
        """Book the resource; returns the completion time."""
        if start < 0 or duration < 0:
            raise ValueError("start and duration must be non-negative")
        begin = max(start, self.free_at)
        self.free_at = begin + duration
        self.busy_time += duration
        return self.free_at

    def reset(self) -> None:
        """Clear the resource timeline."""
        self.free_at = 0.0
        self.busy_time = 0.0


@dataclass
class DESStepResult:
    """Timing of one event-driven step."""

    total_time: float
    layer_finish_times: List[float]
    master_egress_busy: Dict[str, float] = field(default_factory=dict)

    @property
    def num_layer_passes(self) -> int:
        """Layer passes executed (forward + backward)."""
        return len(self.layer_finish_times)


class EventDrivenMasterWorker:
    """Executes master-worker steps transfer by transfer.

    Parameters mirror :class:`MasterWorkerEngine`; ``nic_contention``
    serializes the master's transfers per link class (one cross-node NIC,
    one intra-node PCIe root, each full-duplex: independent egress/ingress).
    """

    def __init__(self, config: MoEModelConfig, topology: ClusterTopology,
                 placement: Placement, tokens_per_step: int, seq_len: int,
                 lora_rank: int = 8, nic_contention: bool = False,
                 telemetry: Optional[Telemetry] = None,
                 monitor: Optional[RoutingHealthMonitor] = None):
        validate_step_size(tokens_per_step, seq_len)
        self.config = config
        self.topology = topology
        self.placement = placement
        self.tokens_per_step = tokens_per_step
        self.seq_len = seq_len
        self.lora_rank = lora_rank
        self.nic_contention = nic_contention
        self.telemetry = telemetry
        self.monitor = monitor
        self._telemetry_now = 0.0
        self.flops = FlopModel(config)
        self.broker = ExpertBroker(config, placement, topology.num_workers,
                                   telemetry=telemetry, monitor=monitor)
        self.master_device = topology.workers[topology.master_worker_id].device

    # ------------------------------------------------------------------ #
    def _transfer_duration(self, worker: int, nbytes: float) -> float:
        return self.topology.master_link(worker).transfer_time(nbytes)

    def _egress_key(self, worker: int) -> Optional[str]:
        """Which shared master resource a transfer to ``worker`` uses."""
        if not self.nic_contention:
            return None
        if self.topology.master_link(worker).name == "loopback":
            return None  # on-device copy, no shared fabric
        if self.topology.is_cross_node_from_master(worker):
            return "nic"
        return "pcie"

    def run_step(self, step_counts: np.ndarray,
                 step: int = 0) -> DESStepResult:
        """Execute one full step (forward + backward + heads + optimizers)."""
        worker_tokens = self.broker.plan_step(np.asarray(step_counts))
        if self.monitor is not None:
            self.monitor.observe_step(np.asarray(step_counts), step=step)
        egress = {"nic": LinkResource(), "pcie": LinkResource()}
        ingress = {"nic": LinkResource(), "pcie": LinkResource()}

        tokens = float(self.tokens_per_step)
        token_bytes = self.config.token_feature_nbytes()
        layers = self.config.num_layers
        layer_finish: List[float] = []
        telemetry = self.telemetry
        t0 = self._telemetry_now

        state = {"t": 0.0}

        def run_pass(backward: bool) -> None:
            direction = "bwd" if backward else "fwd"
            for layer in range(layers):
                backbone = self.flops.backbone_layer_time(
                    self.master_device, tokens, self.seq_len,
                    backward=backward)
                if telemetry is not None:
                    telemetry.record_span(
                        "des.backbone", t0 + state["t"], backbone,
                        category="backbone", track="master", step=step,
                        layer=layer, direction=direction)
                dispatch_start = state["t"] + backbone
                layer_end = dispatch_start  # at least the backbone
                for worker in range(self.topology.num_workers):
                    layer_tokens = float(worker_tokens[worker, layer])
                    if layer_tokens <= 0:
                        continue
                    nbytes = layer_tokens * token_bytes
                    duration = self._transfer_duration(worker, nbytes)
                    key = self._egress_key(worker)
                    if key is None:
                        arrive = dispatch_start + duration
                    else:
                        arrive = egress[key].occupy(dispatch_start, duration)
                    compute = self.flops.expert_time(
                        self.topology.workers[worker].device, layer_tokens,
                        backward=backward)
                    send_back = arrive + compute
                    if key is None:
                        done = send_back + duration
                    else:
                        done = ingress[key].occupy(send_back, duration)
                    if telemetry is not None:
                        track = f"worker-{worker}"
                        common = dict(track=track, step=step, layer=layer,
                                      direction=direction)
                        telemetry.record_span(
                            "des.dispatch", t0 + arrive - duration, duration,
                            category="dispatch", **common)
                        telemetry.record_span(
                            "des.expert", t0 + arrive, compute,
                            category="expert", **common)
                        telemetry.record_span(
                            "des.gather", t0 + done - duration, duration,
                            category="gather", **common)
                    layer_end = max(layer_end, done)
                state["t"] = layer_end
                layer_finish.append(layer_end)

        run_pass(backward=False)
        head = (self.flops.head_time(self.master_device, tokens)
                + self.flops.head_time(self.master_device, tokens,
                                       backward=True))
        if telemetry is not None:
            telemetry.record_span("des.head", t0 + state["t"], head,
                                  category="head", track="master", step=step)
        state["t"] += head
        run_pass(backward=True)

        optimizer = self.flops.optimizer_time(
            self.master_device, lora_backbone_param_count(self.config,
                                                          self.lora_rank))
        worker_opt = max(
            self.flops.optimizer_time(
                w.device, lora_expert_param_count(self.config, self.lora_rank)
                * int(load))
            for w, load in zip(self.topology.workers,
                               self.placement.worker_loads(
                                   self.topology.num_workers)))
        if telemetry is not None:
            telemetry.record_span(
                "des.optimizer.master", t0 + state["t"], optimizer,
                category="optimizer", track="master", step=step)
            telemetry.record_span(
                "des.optimizer.worker", t0 + state["t"] + optimizer,
                worker_opt, category="optimizer", track="master", step=step)
        state["t"] += optimizer + worker_opt

        if telemetry is not None:
            self._telemetry_now = t0 + state["t"]
        return DESStepResult(
            total_time=state["t"],
            layer_finish_times=layer_finish,
            master_egress_busy={k: r.busy_time for k, r in egress.items()})

    # ------------------------------------------------------------------ #
    def run_trace(self, trace: RoutingTrace,
                  max_steps: Optional[int] = None) -> List[DESStepResult]:
        """Execute every step of a routing trace (or its first
        ``max_steps``), one :meth:`run_step` per step."""
        return [self.run_step(trace.step_counts(step), step=step)
                for step in range(replay_limit(trace, max_steps))]


def contention_penalty(config: MoEModelConfig, topology: ClusterTopology,
                       placement: Placement, step_counts: np.ndarray,
                       tokens_per_step: int, seq_len: int) -> float:
    """Relative step-time increase when the master's fabric is serialized.

    Returns ``t_contended / t_ideal - 1`` for one step — the error the
    paper's independent-links assumption (Eq. (7)) makes on this placement.
    """
    ideal = EventDrivenMasterWorker(config, topology, placement,
                                    tokens_per_step, seq_len,
                                    nic_contention=False)
    contended = EventDrivenMasterWorker(config, topology, placement,
                                        tokens_per_step, seq_len,
                                        nic_contention=True)
    t_ideal = ideal.run_step(step_counts).total_time
    t_contended = contended.run_step(step_counts).total_time
    return t_contended / t_ideal - 1.0
