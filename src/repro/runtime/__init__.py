"""Simulated distributed runtime: broker and step engines."""

from .broker import ExpertBroker
from .des_engine import (DESStepResult, EventDrivenMasterWorker,
                         LinkResource, contention_penalty)
from .engine import (ExpertParallelEngine, MasterWorkerEngine,
                     lora_backbone_param_count, lora_expert_param_count)
from .flops import BACKWARD_MULTIPLIER, FlopModel
from .multimaster import (MultiMasterEngine, effective_bandwidths,
                          master_worker_link)
from .overlap import OverlappedMasterWorkerEngine, overlap_speedup
from .metrics import RunMetrics, StepMetrics

__all__ = [
    "LinkResource", "FlopModel", "BACKWARD_MULTIPLIER",
    "ExpertBroker",
    "MasterWorkerEngine", "ExpertParallelEngine",
    "EventDrivenMasterWorker", "DESStepResult", "contention_penalty",
    "OverlappedMasterWorkerEngine", "overlap_speedup",
    "MultiMasterEngine", "effective_bandwidths", "master_worker_link",
    "lora_backbone_param_count", "lora_expert_param_count",
    "StepMetrics", "RunMetrics",
]
