"""Trace analytics: drift detection.

Tools for deciding *when* a locality profile has gone stale: **profile
drift**, the mean per-layer total-variation distance between two access
profiles, and a **CUSUM drift detector** over its per-step values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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
