"""Parameter-efficient fine-tuning via Low-Rank Adaptation (LoRA)."""

from .adapter import LoRALinear
from .config import LoRAConfig
from .inject import LoRAReport, inject_lora

__all__ = ["LoRAConfig", "LoRALinear", "LoRAReport", "inject_lora"]
