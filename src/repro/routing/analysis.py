"""Trace analytics: drift detection and stability statistics.

Tools for deciding *when* a locality profile has gone stale, plus
descriptive statistics used in reports:

* **profile drift**, the mean per-layer total-variation distance between
  two access profiles, and a **CUSUM drift detector** over its per-step
  values,
* **hot-set Jaccard stability** (how much the top-k expert set churns),
* an analytic expected-traffic model that predicts simulator output in
  closed form (tested against the engines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..cluster.topology import ClusterTopology
from ..models.config import MoEModelConfig
from ..placement.base import Placement
from .trace import RoutingTrace


# --------------------------------------------------------------------- #
# drift detection
# --------------------------------------------------------------------- #
def profile_drift(expected: np.ndarray, observed: np.ndarray) -> float:
    """Mean per-layer total-variation distance between two access profiles.

    Both are ``(layers, experts)`` matrices whose rows sum to ``top_k``;
    the result is in ``[0, 1]`` (0 = identical, 1 = disjoint support).
    """
    expected = np.asarray(expected, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if expected.shape != observed.shape:
        raise ValueError("profile shapes differ")
    row_mass = expected.sum(axis=1, keepdims=True)
    tv = 0.5 * np.abs(expected - observed).sum(axis=1) / row_mass[:, 0]
    return float(tv.mean())


@dataclass
class DriftDetection:
    """Result of a CUSUM scan over a trace."""

    change_step: Optional[int]
    statistic: np.ndarray     # per-step CUSUM values

    @property
    def detected(self) -> bool:
        """Whether a change point was flagged."""
        return self.change_step is not None


class CusumDriftDetector:
    """One-sided CUSUM on per-step deviation from a reference profile.

    At each step the statistic accumulates
    ``max(0, S + (tv_t - slack))``; crossing ``threshold`` flags a change.
    ``slack`` absorbs the sampling noise of finite per-step token counts.
    """

    def __init__(self, threshold: float = 0.5, slack: float = 0.02):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if slack < 0:
            raise ValueError("slack must be non-negative")
        self.threshold = threshold
        self.slack = slack

    def scan(self, trace: RoutingTrace, reference: np.ndarray,
             start: int = 0) -> DriftDetection:
        """Scan ``trace`` steps against a ``(layers, experts)`` reference."""
        statistic = np.zeros(trace.num_steps)
        s = 0.0
        change: Optional[int] = None
        for step in range(start, trace.num_steps):
            tv = profile_drift(reference, trace.step_counts(step)
                               / trace.tokens_per_step)
            s = max(0.0, s + tv - self.slack)
            statistic[step] = s
            if change is None and s > self.threshold:
                change = step
        return DriftDetection(change_step=change, statistic=statistic)


def calibrate_slack(trace: RoutingTrace, reference: np.ndarray,
                    quantile: float = 0.95) -> float:
    """Pick a CUSUM slack from a stationary calibration window.

    Returns the ``quantile`` of per-step TV deviations, so in-distribution
    noise rarely advances the statistic.
    """
    deviations = [profile_drift(reference, trace.step_counts(step)
                                / trace.tokens_per_step)
                  for step in range(trace.num_steps)]
    return float(np.quantile(deviations, quantile))


# --------------------------------------------------------------------- #
# hot-set stability
# --------------------------------------------------------------------- #
def hot_set(profile: np.ndarray, top: int) -> List[set]:
    """Per-layer set of the ``top`` most popular experts."""
    profile = np.asarray(profile)
    return [set(np.argsort(-profile[layer])[:top].tolist())
            for layer in range(profile.shape[0])]


def hot_set_jaccard(profile_a: np.ndarray, profile_b: np.ndarray,
                    top: int = 2) -> float:
    """Mean per-layer Jaccard similarity of the hot-expert sets.

    1.0 means the same experts stay hot — the condition under which a
    placement planned from ``profile_a`` remains near-optimal for
    ``profile_b``.
    """
    sets_a, sets_b = hot_set(profile_a, top), hot_set(profile_b, top)
    scores = [len(a & b) / len(a | b) for a, b in zip(sets_a, sets_b)]
    return float(np.mean(scores))


def windowed_hot_set_stability(trace: RoutingTrace, window: int = 10,
                               top: int = 2) -> np.ndarray:
    """Jaccard similarity of each window's hot set vs the first window's."""
    if window < 1 or window > trace.num_steps:
        raise ValueError("window out of range")
    baseline = trace.probability_matrix(0, window)
    scores = []
    for start in range(0, trace.num_steps - window + 1, window):
        current = trace.probability_matrix(start, start + window)
        scores.append(hot_set_jaccard(baseline, current, top))
    return np.array(scores)


# --------------------------------------------------------------------- #
# analytic traffic prediction
# --------------------------------------------------------------------- #
def predicted_cross_node_bytes(placement: Placement, profile: np.ndarray,
                               config: MoEModelConfig,
                               topology: ClusterTopology,
                               tokens_per_step: int,
                               transfers: int = 4) -> float:
    """Closed-form expected cross-node bytes per step (master-worker flow).

    This is the quantity the simulator measures per step; tests assert the
    two agree in expectation, closing the loop between Eq. (6) and the
    runtime implementation.
    """
    profile = np.asarray(profile, dtype=np.float64)
    token_bytes = config.token_feature_nbytes()
    total = 0.0
    for worker in range(topology.num_workers):
        if not topology.is_cross_node_from_master(worker):
            continue
        mask = placement.assignment == worker
        expected_tokens = float((profile * mask).sum()) * tokens_per_step
        total += transfers * token_bytes * expected_tokens
    return total
