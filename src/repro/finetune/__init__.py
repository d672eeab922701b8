"""Fine-tuning loop for live MoE models (LoRA + AdamW, paper recipe)."""

from .callbacks import Callback, GateMonitor, LossHistory, RoutingRecorder
from .trainer import FineTuneConfig, FineTuneResult, Trainer, pretrain_router

__all__ = [
    "FineTuneConfig", "FineTuneResult", "Trainer", "pretrain_router",
    "Callback", "LossHistory", "RoutingRecorder", "GateMonitor",
]
