"""Routing traces: the record of which experts every fine-tuning step used.

A :class:`RoutingTrace` stores, per step and per MoE block, how many token
selections each expert received.  This is exactly the information the paper's
communication model consumes: Eq. (6) computes the tokens sent to worker ``n``
as ``sum_e X[n,l,e] * K_{l,e}`` where ``K_{l,e}`` are these counts (each
token contributes ``top_k`` selections; a token routed to two experts on the
same worker is transferred once per selection, matching the paper's
accounting).

Traces come from two sources with identical schema:

* live tiny models (`repro.models.MoETransformer` routing records), and
* the Mixtral-scale synthetic router (`repro.routing.synthetic`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..models.moe_block import routing_counts


@dataclass
class RoutingTrace:
    """Per-step expert selection counts for a fine-tuning run.

    Attributes
    ----------
    model_name:
        Which model produced the trace (for report labeling).
    top_k:
        Selections per token.
    tokens_per_step:
        ``K`` in the paper: batch size x sequence length.
    counts:
        Integer array of shape ``(steps, layers, experts)``;
        ``counts[s, l, e]`` = token selections expert ``e`` of block ``l``
        received at step ``s``.
    """

    model_name: str
    top_k: int
    tokens_per_step: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 3:
            raise ValueError(f"counts must be (steps, layers, experts), "
                             f"got shape {self.counts.shape}")
        if self.top_k < 1:
            raise ValueError("top_k must be positive")
        if self.tokens_per_step < 1:
            raise ValueError("tokens_per_step must be positive")
        expected = self.tokens_per_step * self.top_k
        sums = self.counts.sum(axis=2)
        if not np.all(sums == expected):
            bad = np.argwhere(sums != expected)[0]
            raise ValueError(
                f"counts at (step={bad[0]}, layer={bad[1]}) sum to "
                f"{sums[tuple(bad)]}, expected tokens_per_step*top_k={expected}")

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #
    @property
    def num_steps(self) -> int:
        """Number of recorded steps."""
        return self.counts.shape[0]

    @property
    def num_layers(self) -> int:
        """Number of MoE blocks."""
        return self.counts.shape[1]

    @property
    def num_experts(self) -> int:
        """Experts per block."""
        return self.counts.shape[2]

    # ------------------------------------------------------------------ #
    # derived statistics
    # ------------------------------------------------------------------ #
    def step_counts(self, step: int) -> np.ndarray:
        """``(layers, experts)`` selection counts at one step."""
        return self.counts[step]

    def probability_matrix(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The paper's ``P[l, e]``: access probability of each expert.

        ``P[l, e]`` is the fraction of tokens that select expert ``e`` in
        block ``l``, averaged over steps ``[start, stop)``.  Rows sum to
        ``top_k`` (each token makes ``top_k`` selections).
        """
        window = self.counts[start:stop]
        if window.shape[0] == 0:
            raise ValueError("empty step window")
        total_tokens = window.shape[0] * self.tokens_per_step
        return window.sum(axis=0) / total_tokens

    def access_frequency_over_time(self, layer: int) -> np.ndarray:
        """``(steps, experts)`` per-step access frequency of one block.

        This is the quantity plotted in the paper's Fig. 3(c).
        """
        return self.counts[:, layer, :] / (self.tokens_per_step * self.top_k)

    def concentration(self) -> np.ndarray:
        """Per-layer normalized entropy of the access distribution in [0, 1].

        0 = all selections on one expert, 1 = perfectly uniform.  Used by
        reports to quantify the WikiText-vs-Alpaca skew difference.
        """
        p = self.probability_matrix() / self.top_k
        p = np.clip(p, 1e-12, None)
        entropy = -(p * np.log(p)).sum(axis=1)
        return entropy / np.log(self.num_experts)

    def slice_steps(self, start: int, stop: int) -> "RoutingTrace":
        """A sub-trace over ``[start, stop)`` steps."""
        return RoutingTrace(self.model_name, self.top_k, self.tokens_per_step,
                            self.counts[start:stop].copy())

    @classmethod
    def concatenate(cls, traces: Sequence["RoutingTrace"],
                    model_name: str = "") -> "RoutingTrace":
        """Join traces along the step axis (e.g. curriculum phases).

        All traces must agree on geometry (layers, experts, top_k, tokens).
        """
        if not traces:
            raise ValueError("need at least one trace")
        first = traces[0]
        for trace in traces[1:]:
            if (trace.num_layers, trace.num_experts) != \
                    (first.num_layers, first.num_experts):
                raise ValueError("traces disagree on (layers, experts)")
            if trace.top_k != first.top_k or \
                    trace.tokens_per_step != first.tokens_per_step:
                raise ValueError("traces disagree on top_k/tokens_per_step")
        name = model_name or "+".join(t.model_name for t in traces)
        return cls(name, first.top_k, first.tokens_per_step,
                   np.concatenate([t.counts for t in traces], axis=0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RoutingTrace)
                and self.top_k == other.top_k
                and self.tokens_per_step == other.tokens_per_step
                and np.array_equal(self.counts, other.counts))

    # ------------------------------------------------------------------ #
    # construction / io
    # ------------------------------------------------------------------ #
    @classmethod
    def from_step_records(cls, model_name: str, top_k: int, tokens_per_step: int,
                          step_records: Sequence[Sequence],
                          num_experts: int) -> "RoutingTrace":
        """Build from per-step lists of ``BlockRoutingRecord`` objects."""
        steps = [routing_counts(records, num_experts)
                 for records in step_records]
        return cls(model_name, top_k, tokens_per_step, np.stack(steps))

    def save(self, path: str) -> None:
        """Write to disk."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        np.savez_compressed(path, counts=self.counts, top_k=self.top_k,
                            tokens_per_step=self.tokens_per_step,
                            model_name=np.array(self.model_name))

    @classmethod
    def load(cls, path: str) -> "RoutingTrace":
        """Read back what :meth:`save` wrote."""
        with np.load(path) as archive:
            return cls(model_name=str(archive["model_name"]),
                       top_k=int(archive["top_k"]),
                       tokens_per_step=int(archive["tokens_per_step"]),
                       counts=archive["counts"])

    def __repr__(self) -> str:
        return (f"RoutingTrace({self.model_name!r}, steps={self.num_steps}, "
                f"layers={self.num_layers}, experts={self.num_experts}, "
                f"K={self.tokens_per_step}, top_k={self.top_k})")
