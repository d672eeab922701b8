"""Fit a synthetic-router regime to observed routing data.

The Mixtral-scale experiments rely on :class:`SyntheticRouter` with
hand-calibrated regimes.  This module closes the loop for users with real
measurements: given a locality profile from *their* model and
dataset, estimate the Dirichlet concentration and gate temperature that
reproduce its statistics, so what-if studies (other clusters, capacities,
step counts) can run on a router matched to their workload.

Estimation:

* ``fit_dirichlet_alpha`` — symmetric-Dirichlet concentration by
  moment-matching on the per-layer normalized popularity variance,
* ``fit_gate_temperature`` — match the *selection* entropy: for fixed
  popularity, higher token noise flattens realized top-k frequencies, so
  temperature is recovered by a monotone 1-D search,
* ``fit_regime`` — both, returning a ready :class:`LocalityRegime`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..models.config import MoEModelConfig
from .synthetic import LocalityRegime, SyntheticRouter


def _normalized(profile: np.ndarray) -> np.ndarray:
    profile = np.asarray(profile, dtype=np.float64)
    return profile / profile.sum(axis=1, keepdims=True)


def fit_dirichlet_alpha(profile: np.ndarray) -> float:
    """Moment-matching estimate of a symmetric Dirichlet concentration.

    For ``p ~ Dir(alpha, ..., alpha)`` with ``E`` components,
    ``Var(p_i) = (E - 1) / (E^2 (E alpha + 1))``; inverting the observed
    across-expert variance (averaged over layers) yields ``alpha``.
    """
    p = _normalized(profile)
    experts = p.shape[1]
    if experts < 2:
        raise ValueError("need at least two experts")
    variance = float(p.var(axis=1).mean())
    if variance <= 0:
        return 1e6  # perfectly uniform -> effectively infinite concentration
    alpha = ((experts - 1) / (experts ** 2 * variance) - 1.0) / experts
    return float(np.clip(alpha, 1e-3, 1e6))


def selection_entropy(profile: np.ndarray) -> float:
    """Mean per-layer normalized entropy of a selection profile."""
    p = np.clip(_normalized(profile), 1e-12, None)
    entropy = -(p * np.log(p)).sum(axis=1)
    return float((entropy / np.log(p.shape[1])).mean())


def fit_gate_temperature(config: MoEModelConfig, profile: np.ndarray,
                         alpha: float, samples: int = 4096,
                         iterations: int = 12, seed: int = 0) -> float:
    """Bisection on temperature to match the observed selection entropy.

    Higher temperature -> realized top-k frequencies flatten -> entropy
    rises, so the map is monotone and bisection converges.
    """
    target = selection_entropy(profile)
    low, high = 0.05, 4.0

    def entropy_at(temperature: float) -> float:
        regime = LocalityRegime(name="fit", dirichlet_alpha=alpha,
                                gate_temperature=temperature)
        router = SyntheticRouter(config, regime, seed=seed)
        return selection_entropy(router.probability_matrix(samples))

    if target <= entropy_at(low):
        return low
    if target >= entropy_at(high):
        return high
    for _ in range(iterations):
        mid = 0.5 * (low + high)
        if entropy_at(mid) < target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


@dataclass
class RegimeFit:
    """Result of fitting a regime to observations."""

    regime: LocalityRegime
    target_entropy: float
    achieved_entropy: float

    @property
    def entropy_error(self) -> float:
        """Absolute entropy mismatch of the fit."""
        return abs(self.achieved_entropy - self.target_entropy)


def fit_regime(config: MoEModelConfig, profile: np.ndarray,
               name: str = "fitted", drift_scale: float = 0.004,
               sharpening_rate: float = 0.0, samples: int = 4096,
               seed: int = 0) -> RegimeFit:
    """Fit (alpha, temperature) so the synthetic router matches ``profile``.

    ``profile`` is a ``(layers, experts)`` access matrix (rows summing to
    ``top_k``) from a :class:`LocalityProfiler` pass or a trace window.
    Drift parameters are not identifiable from a static profile and are
    passed through.
    """
    expected = (config.num_layers, config.num_experts)
    p = np.asarray(profile, dtype=np.float64)
    if p.shape != expected:
        raise ValueError(f"profile shape {p.shape} != {expected}")
    alpha = fit_dirichlet_alpha(p)
    temperature = fit_gate_temperature(config, p, alpha, samples=samples,
                                       seed=seed)
    regime = LocalityRegime(name=name, dirichlet_alpha=alpha,
                            gate_temperature=temperature,
                            drift_scale=drift_scale,
                            sharpening_rate=sharpening_rate)
    achieved = selection_entropy(
        SyntheticRouter(config, regime, seed=seed).probability_matrix(samples))
    return RegimeFit(regime=regime, target_entropy=selection_entropy(p),
                     achieved_entropy=achieved)

