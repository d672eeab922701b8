"""VELA's locality-aware expert placement (the paper's core algorithm).

Pipeline: build the relaxed LP (Section IV-B) -> solve it with scipy's
HiGHS, the off-the-shelf solver the paper calls for -> round with the
paper's three-step procedure -> validated
:class:`~repro.placement.base.Placement`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Placement, PlacementProblem, PlacementStrategy
from .lp import build_placement_lp, solve_lp_scipy
from .objective import expected_step_comm_time, relaxed_objective
from .rounding import round_relaxed_assignment


@dataclass
class PlacementSolution:
    """Diagnostics of a locality-aware placement run."""

    placement: Placement
    relaxed_assignment: np.ndarray
    lp_objective: float         # lower bound (relaxed optimum)
    rounded_objective: float    # Eq. (7) value of the final placement

    @property
    def integrality_gap(self) -> float:
        """Relative distance of the rounded solution from the LP bound."""
        if self.lp_objective <= 0:
            return 0.0
        return (self.rounded_objective - self.lp_objective) / self.lp_objective


class LocalityAwarePlacement(PlacementStrategy):
    """The VELA placement strategy."""

    name = "vela"

    def solve(self, problem: PlacementProblem) -> PlacementSolution:
        """Full pipeline with diagnostics."""
        if problem.probability_matrix is None:
            raise ValueError("VELA placement requires a locality profile; "
                             "run LocalityProfiler (or a synthetic router's "
                             "probability_matrix) first")
        lp = build_placement_lp(problem)
        relaxed = lp.extract_assignment(solve_lp_scipy(lp))
        placement = round_relaxed_assignment(relaxed,
                                             problem.effective_capacities(),
                                             name=self.name)
        return PlacementSolution(
            placement=placement,
            relaxed_assignment=relaxed,
            lp_objective=relaxed_objective(relaxed, problem),
            rounded_objective=expected_step_comm_time(placement, problem))

    def place(self, problem: PlacementProblem) -> Placement:
        """Compute a placement for ``problem``."""
        return self.solve(problem).placement
