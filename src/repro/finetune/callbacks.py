"""Trainer callbacks: step-level observation hooks."""

from __future__ import annotations

from typing import List

import numpy as np

from ..models.moe_block import routing_counts


class Callback:
    """Observer of fine-tuning progress."""

    def on_step(self, step: int, loss: float,
                records: List) -> None:  # pragma: no cover - interface
        """Called after every optimizer step with the block routing records."""

    def on_end(self, num_steps: int) -> None:  # pragma: no cover - interface
        """Called once when training finishes."""


class LossHistory(Callback):
    """Collect the loss curve."""

    def __init__(self) -> None:
        self.losses: List[float] = []

    def on_step(self, step: int, loss: float, records: List) -> None:
        """Handle one training step's observations."""
        self.losses.append(loss)

    def array(self) -> np.ndarray:
        """Collected values as a numpy array."""
        return np.array(self.losses)


class RoutingRecorder(Callback):
    """Collect per-step expert access counts (feeds a RoutingTrace)."""

    def __init__(self, num_experts: int) -> None:
        self.num_experts = num_experts
        self.step_counts: List[np.ndarray] = []

    def on_step(self, step: int, loss: float, records: List) -> None:
        """Handle one training step's observations."""
        self.step_counts.append(routing_counts(records, self.num_experts))

    def counts_array(self) -> np.ndarray:
        """``(steps, layers, experts)`` counts."""
        return np.stack(self.step_counts)


class GateMonitor(Callback):
    """Track the gate's softmax behavior on one block (Fig. 3(b)/(c) data)."""

    def __init__(self, layer: int) -> None:
        self.layer = layer
        self.mean_probs: List[np.ndarray] = []
        self.selected_score_sums: List[np.ndarray] = []

    def on_step(self, step: int, loss: float, records: List) -> None:
        """Handle one training step's observations."""
        record = records[self.layer]
        self.mean_probs.append(record.probs.mean(axis=0))
        self.selected_score_sums.append(record.selected_scores.sum(axis=1))

    def mean_probs_array(self) -> np.ndarray:
        """Per-step mean gate probabilities, stacked."""
        return np.stack(self.mean_probs)

