"""LoRA injection: walk a module tree, wrap matching Linear layers.

``inject_lora`` reproduces the paper's fine-tuning configuration: the whole
pre-trained model is frozen, adapters are added to every linear layer except
the gating router, and only adapter parameters remain trainable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..nn.layers import Linear, Module
from .adapter import LoRALinear
from .config import LoRAConfig


@dataclass
class LoRAReport:
    """Summary of an injection pass (useful for logging and tests)."""

    adapted_paths: List[str] = field(default_factory=list)
    skipped_paths: List[str] = field(default_factory=list)
    trainable_params: int = 0
    frozen_params: int = 0

    @property
    def num_adapted(self) -> int:
        """Linear layers that received adapters."""
        return len(self.adapted_paths)

    def trainable_fraction(self) -> float:
        """Trainable share of all parameters."""
        total = self.trainable_params + self.frozen_params
        return self.trainable_params / total if total else 0.0


def _replace_children(module: Module, path: str, config: LoRAConfig,
                      rng: np.random.Generator, report: LoRAReport) -> None:
    """Recursively wrap matching Linear attributes of ``module`` in place."""
    for attr, value in list(vars(module).items()):
        child_path = f"{path}.{attr}" if path else attr
        if isinstance(value, Linear):
            if config.matches(child_path):
                setattr(module, attr, LoRALinear(
                    value, config, rng=rng,
                    ordinal=len(report.adapted_paths)))
                report.adapted_paths.append(child_path)
            else:
                report.skipped_paths.append(child_path)
        elif isinstance(value, LoRALinear):
            continue  # already adapted
        elif isinstance(value, Module):
            _replace_children(value, child_path, config, rng, report)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, Linear) and config.matches(f"{child_path}.{i}"):
                    value = list(value)
                    value[i] = LoRALinear(item, config, rng=rng,
                                          ordinal=len(report.adapted_paths))
                    setattr(module, attr, value)
                    report.adapted_paths.append(f"{child_path}.{i}")
                elif isinstance(item, Module):
                    _replace_children(item, f"{child_path}.{i}", config, rng, report)
        elif isinstance(value, dict):
            for key, item in value.items():
                if isinstance(item, Module):
                    _replace_children(item, f"{child_path}.{key}", config, rng, report)


def inject_lora(model: Module, config: Optional[LoRAConfig] = None) -> LoRAReport:
    """Freeze ``model`` and attach LoRA adapters to matching linear layers.

    Returns a :class:`LoRAReport`.  After injection,
    ``model.trainable_parameters()`` contains exactly the adapter matrices.
    """
    config = config or LoRAConfig()
    model.freeze()
    rng = np.random.default_rng(config.seed)
    report = LoRAReport()
    _replace_children(model, "", config, rng, report)
    if not report.adapted_paths:
        raise ValueError("LoRA injection matched no linear layers; "
                         "check target_substrings against the model's paths")
    report.trainable_params = model.num_parameters(trainable_only=True)
    report.frozen_params = model.num_parameters() - report.trainable_params
    return report

