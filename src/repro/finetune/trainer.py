"""LoRA fine-tuning of live (tiny) MoE models.

The trainer reproduces the paper's fine-tuning recipe (Section V-A): LoRA on
every linear layer except the gate, AdamW with the published
hyperparameters, frozen pre-trained weights.  Every step's routing decisions
are recorded, producing the :class:`~repro.routing.trace.RoutingTrace` that
the distributed engines replay and the Fig. 3 experiments analyze.

With ``telemetry=``, each step records wall-clock ``train.forward`` /
``train.backward`` / ``train.optimizer`` spans on the ``trainer`` track plus
``train.loss`` and (when clipping) ``train.grad_norm`` gauges — this is the
*live* counterpart of the simulation engines' model-time spans.

With ``monitor=`` (a :class:`~repro.telemetry.monitor.RoutingHealthMonitor`),
each step additionally feeds the routing-health gauges and anomaly
detectors — including the Theorem-1 drift check, since the monitored
layer's full gate probabilities flow through the routing records — and the
run is bracketed by a :class:`~repro.telemetry.events.RunManifest`
(``begin_run`` at the first step unless the caller already opened one,
``end_run`` with the final loss statistics on completion).
"""

from __future__ import annotations

import numbers
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..data.loader import LMDataLoader
from ..lora import LoRAConfig, LoRAReport, inject_lora
from ..models.moe_block import BlockRoutingRecord
from ..models.transformer import MoETransformer
from ..nn.optim import AdamW, GradClipper
from ..nn.schedule import LRScheduler, WarmupCosineLR
from ..routing.trace import RoutingTrace
from ..telemetry import Telemetry
from ..telemetry.monitor import RoutingHealthMonitor
from .callbacks import Callback, GateMonitor, LossHistory, RoutingRecorder


def _merge_records(first: List[BlockRoutingRecord],
                   second: List[BlockRoutingRecord]) -> List[BlockRoutingRecord]:
    """Concatenate per-layer routing records across micro-batches."""
    merged = []
    for a, b in zip(first, second):
        merged.append(BlockRoutingRecord(
            layer=a.layer,
            expert_indices=np.concatenate([a.expert_indices,
                                           b.expert_indices]),
            selected_scores=np.concatenate([a.selected_scores,
                                            b.selected_scores]),
            # Unmonitored layers run with record_probs off and carry no
            # probability matrix.
            probs=(np.concatenate([a.probs, b.probs])
                   if a.probs is not None and b.probs is not None else None)))
    return merged


@dataclass(frozen=True)
class FineTuneConfig:
    """Fine-tuning hyperparameters (paper defaults).

    ``grad_clip`` enables global-norm clipping; ``grad_accumulation`` folds
    several micro-batches into one optimizer step (the effective tokens per
    step grows accordingly); ``warmup_steps``/``min_lr`` switch the constant
    schedule to warmup+cosine.
    """

    steps: int = 500
    lr: float = 3e-5
    betas: tuple = (0.8, 0.999)
    eps: float = 1e-8
    weight_decay: float = 3e-7
    lora: LoRAConfig = field(default_factory=LoRAConfig)
    monitored_layer: int = 0
    grad_clip: Optional[float] = None
    grad_accumulation: int = 1
    warmup_steps: int = 0
    min_lr: float = 0.0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when set")
        if self.grad_accumulation < 1:
            raise ValueError("grad_accumulation must be >= 1")
        if self.warmup_steps < 0 or self.warmup_steps >= self.steps:
            raise ValueError("warmup_steps must be in [0, steps)")
        if self.min_lr < 0:
            raise ValueError("min_lr must be non-negative")


@dataclass
class FineTuneResult:
    """Everything a fine-tuning run produced."""

    losses: np.ndarray
    trace: RoutingTrace
    gate_mean_probs: np.ndarray          # (steps, experts) of monitored layer
    selected_score_sums: List[np.ndarray]
    lora_report: LoRAReport

    @property
    def num_steps(self) -> int:
        """Number of recorded steps."""
        return len(self.losses)

    def loss_improvement(self) -> float:
        """Mean-of-first-10 minus mean-of-last-10 losses."""
        head = self.losses[:10].mean()
        tail = self.losses[-10:].mean()
        return float(head - tail)


class Trainer:
    """Drives LoRA fine-tuning and records routing behavior.

    Parameters
    ----------
    model:
        A live :class:`MoETransformer` (pre-trained or freshly built).
    loader:
        Batch source; its geometry defines tokens per step.
    config:
        Hyperparameters; LoRA is injected at construction unless the model
        already contains adapters.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; records wall-clock
        per-step spans and loss/grad-norm gauges.
    monitor:
        Optional :class:`~repro.telemetry.monitor.RoutingHealthMonitor`;
        digests every step's routing records (gauges + anomaly events) and
        writes the run manifest.
    """

    def __init__(self, model: MoETransformer, loader: LMDataLoader,
                 config: Optional[FineTuneConfig] = None,
                 inject: bool = True,
                 telemetry: Optional[Telemetry] = None,
                 monitor: Optional[RoutingHealthMonitor] = None):
        self.model = model
        self.loader = loader
        self.config = config or FineTuneConfig()
        self.telemetry = telemetry
        self.monitor = monitor
        if inject:
            self.lora_report = inject_lora(model, self.config.lora)
        else:
            self.lora_report = LoRAReport()
            self.lora_report.trainable_params = model.num_parameters(True)
        self.optimizer = AdamW(model.trainable_parameters(),
                               lr=self.config.lr, betas=self.config.betas,
                               eps=self.config.eps,
                               weight_decay=self.config.weight_decay)
        self.clipper = (GradClipper(self.config.grad_clip)
                        if self.config.grad_clip is not None else None)
        if self.config.warmup_steps > 0 or self.config.min_lr > 0:
            self.scheduler: Optional[LRScheduler] = WarmupCosineLR(
                self.optimizer, total_steps=self.config.steps,
                warmup_steps=self.config.warmup_steps,
                min_lr=self.config.min_lr)
        else:
            self.scheduler = None

    def train(self, steps: Optional[int] = None,
              callbacks: Optional[List[Callback]] = None) -> FineTuneResult:
        """Run ``steps`` optimizer steps (defaults to the config's count).

        Raises ``ValueError`` unless ``steps`` is a positive integer,
        before any state changes.
        The model is put in training mode unless its root module already
        is (the mode ``model.train()``/``eval()`` set for the whole tree).
        """
        steps = steps if steps is not None else self.config.steps
        if not isinstance(steps, numbers.Integral) or steps < 1:
            raise ValueError(f"steps must be a positive integer, got "
                             f"{steps!r}")
        model_cfg = self.model.config

        loss_cb = LossHistory()
        routing_cb = RoutingRecorder(model_cfg.num_experts)
        gate_cb = GateMonitor(self.config.monitored_layer)
        all_callbacks = [loss_cb, routing_cb, gate_cb] + list(callbacks or [])

        if not self.model.training:
            self.model.train()
        # The inner loop only needs the full (tokens, experts) probability
        # matrix on the gate-monitored layer; skip the per-step copy
        # everywhere else.
        moe_blocks = self.model._moe_blocks()
        previous_probs = [moe.record_probs for moe in moe_blocks]
        for layer, moe in enumerate(moe_blocks):
            moe.record_probs = layer == self.config.monitored_layer
        tokens_per_step = None
        accumulation = self.config.grad_accumulation
        micro_batches = self.loader.batches(steps * accumulation)
        telemetry = self.telemetry
        monitor = self.monitor
        if monitor is not None and monitor.manifest is None:
            monitor.begin_run(config={
                "model": model_cfg.name, "steps": steps,
                "lr": self.config.lr,
                "monitored_layer": self.config.monitored_layer,
                "grad_accumulation": accumulation,
            }, seed=getattr(model_cfg, "seed", None))

        def span(name, step):
            if telemetry is None:
                return nullcontext()
            return telemetry.span(name, category=name.split(".")[-1],
                                  track="trainer", step=step)

        try:
            for step in range(steps):
                if self.scheduler is not None:
                    self.scheduler.step()
                # The optimizer holds every parameter that was trainable
                # at construction; frozen ones never receive a gradient.
                self.optimizer.zero_grad()
                step_loss = 0.0
                step_counts = None
                for _ in range(accumulation):
                    inputs, targets = next(micro_batches)
                    if tokens_per_step is None:
                        tokens_per_step = (inputs.shape[0] * inputs.shape[1]
                                           * accumulation)
                    with span("train.forward", step):
                        loss = self.model.loss(inputs, targets) \
                            * (1.0 / accumulation)
                    with span("train.backward", step):
                        loss.backward()
                    step_loss += float(loss.item())
                    records = self.model.routing_records()
                    if step_counts is None:
                        step_counts = records
                    else:
                        step_counts = _merge_records(step_counts, records)
                with span("train.optimizer", step):
                    if self.clipper is not None:
                        grad_norm = self.clipper.clip(self.optimizer.params)
                        if telemetry is not None:
                            telemetry.gauge("train.grad_norm").set(
                                float(grad_norm))
                    self.optimizer.step()
                if telemetry is not None:
                    telemetry.gauge("train.loss").set(step_loss)
                if monitor is not None:
                    monitor.observe_records(step_counts, step=step,
                                            num_experts=model_cfg.num_experts)
                for callback in all_callbacks:
                    callback.on_step(step, step_loss, step_counts)
            for callback in all_callbacks:
                callback.on_end(steps)
        finally:
            for moe, previous in zip(moe_blocks, previous_probs):
                moe.record_probs = previous

        trace = RoutingTrace(model_name=model_cfg.name,
                             top_k=model_cfg.top_k,
                             tokens_per_step=int(tokens_per_step),
                             counts=routing_cb.counts_array())
        result = FineTuneResult(losses=loss_cb.array(), trace=trace,
                                gate_mean_probs=gate_cb.mean_probs_array(),
                                selected_score_sums=gate_cb.selected_score_sums,
                                lora_report=self.lora_report)
        if monitor is not None:
            monitor.end_run(final_metrics={
                "steps": result.num_steps,
                "final_loss": float(result.losses[-1]),
                "loss_improvement": result.loss_improvement(),
            })
        return result


def pretrain_router(model: MoETransformer, loader: LMDataLoader,
                    steps: int = 40, lr: float = 5e-4,
                    aux_loss_weight: float = 0.0) -> np.ndarray:
    """Quickly pre-train a fresh model so its gate becomes confident.

    The locality experiments need a "pre-trained MoE model" whose routing is
    already established; this full-parameter pass (all weights trainable, no
    LoRA) produces one in seconds at tiny scale.  Returns the loss curve.

    The defaults land the gate in the paper's Fig. 3(b) regime: selected
    softmax-score sums all above ~0.5 with the majority above 0.7.
    ``aux_loss_weight`` optionally enables the Switch-style load-balancing
    loss (strong values keep the gate diffuse — useful for studying the
    *uncertain* end of Theorem 1's bound).
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    previous_weights = [block.moe.gate.aux_loss_weight for block in model.blocks]
    for block in model.blocks:
        block.moe.gate.aux_loss_weight = aux_loss_weight
    try:
        model.train()
        optimizer = AdamW(model.trainable_parameters(), lr=lr,
                          betas=(0.9, 0.999), weight_decay=0.0)
        losses = []
        for _, (inputs, targets) in zip(range(steps), loader.batches(steps)):
            loss = model.loss(inputs, targets)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(float(loss.item()))
        optimizer.zero_grad()
    finally:
        for block, weight in zip(model.blocks, previous_weights):
            block.moe.gate.aux_loss_weight = weight
    return np.array(losses)
