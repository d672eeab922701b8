"""Bandwidth probing: from noisy measurements to LP inputs.

The paper feeds *measured* bandwidths into the placement LP ("measured by
iperf", Section V-A).  Real measurements are noisy — congestion, sampling
windows, TCP dynamics — so an operator needs to know (a) how to aggregate
repeated probes into a robust ``B_n`` estimate and (b) how much estimation
error the placement can absorb before its quality degrades.

This module simulates the probing process (log-normal multiplicative noise,
the standard model for throughput measurements) and provides the robust
estimator; the companion study quantifies placement regret vs noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from .topology import ClusterTopology

if TYPE_CHECKING:  # repro.placement imports repro.cluster
    from ..placement.base import PlacementProblem


@dataclass(frozen=True)
class ProbeModel:
    """Statistical model of one bandwidth probe.

    A probe of a link with true bandwidth ``B`` returns
    ``B * exp(noise)`` with ``noise ~ Normal(0, sigma)``; ``sigma`` is the
    log-scale coefficient of variation (0.1 ~ calm network, 0.5 ~ heavily
    shared fabric).
    """

    sigma: float = 0.2

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def sample(self, true_bandwidth: float, samples: int,
               rng: np.random.Generator) -> np.ndarray:
        """Draw noisy probe measurements."""
        if true_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if samples < 1:
            raise ValueError("need at least one sample")
        noise = rng.normal(0.0, self.sigma, size=samples)
        return true_bandwidth * np.exp(noise)


def robust_estimate(samples: np.ndarray) -> float:
    """Aggregate probe samples into one ``B_n`` estimate.

    The median is the standard robust choice for throughput measurements:
    insensitive to congestion outliers in either direction.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("no samples")
    return float(np.median(samples))


def probe_topology(topology: ClusterTopology, probe: ProbeModel,
                   samples: int = 5, seed: int = 0) -> List[float]:
    """Estimate every worker's master-link bandwidth from noisy probes."""
    rng = np.random.default_rng(seed)
    estimates = []
    for worker in range(topology.num_workers):
        true_bw = topology.master_link(worker).bandwidth_bytes_per_s
        estimates.append(robust_estimate(probe.sample(true_bw, samples, rng)))
    return estimates


@dataclass
class NoisePoint:
    """Placement quality achieved under one probing-noise level."""

    sigma: float
    mean_objective: float
    reference_objective: float

    @property
    def regret(self) -> float:
        """Relative excess objective vs the reference."""
        if self.reference_objective <= 0:
            return 0.0
        return self.mean_objective / self.reference_objective - 1.0


def bandwidth_noise_study(problem: PlacementProblem,
                          sigmas: List[float], samples: int = 5,
                          trials: int = 3, seed: int = 0) -> List[NoisePoint]:
    """Placement regret as probing noise grows.

    For each noise level: probe the topology, solve the LP with the
    *estimated* bandwidths, score the placement under the *true* ones.
    """
    from ..placement.base import PlacementProblem
    from ..placement.objective import expected_step_comm_time
    from ..placement.vela import LocalityAwarePlacement

    if not sigmas:
        raise ValueError("need at least one sigma")
    strategy = LocalityAwarePlacement()
    reference = expected_step_comm_time(strategy.place(problem), problem)

    points = []
    for sigma in sigmas:
        probe = ProbeModel(sigma=sigma)
        objectives = []
        for trial in range(trials):
            estimates = probe_topology(problem.topology, probe,
                                       samples=samples,
                                       seed=seed + trial * 31)
            noisy_problem = PlacementProblem(
                config=problem.config, topology=problem.topology,
                probability_matrix=problem.probability_matrix,
                tokens_per_step=problem.tokens_per_step,
                capacities=problem.capacities,
                bandwidth_override=estimates)
            placement = strategy.place(noisy_problem)
            # Score under the TRUE bandwidths.
            objectives.append(expected_step_comm_time(placement, problem))
        points.append(NoisePoint(sigma=sigma,
                                 mean_objective=float(np.mean(objectives)),
                                 reference_objective=reference))
    return points
