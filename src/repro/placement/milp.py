"""Exact binary placement via mixed-integer programming.

The paper solves the relaxed LP and rounds; this module solves the original
binary problem exactly (scipy's HiGHS MILP backend) so tests and ablations
can measure the LP+rounding optimality gap on small instances.
"""

from __future__ import annotations

import numpy as np

from .base import Placement, PlacementProblem, PlacementStrategy
from .lp import build_placement_lp


class ExactMILPPlacement(PlacementStrategy):
    """Solve the binary placement problem to optimality.

    Exponential worst case — intended for small instances (tests, gap
    studies).  ``time_limit`` guards against pathological cases; hitting it
    raises unless ``accept_incumbent`` is set.
    """

    name = "milp"

    def __init__(self, time_limit: float = 60.0, accept_incumbent: bool = False):
        if time_limit <= 0:
            raise ValueError("time_limit must be positive")
        self.time_limit = time_limit
        self.accept_incumbent = accept_incumbent

    def place(self, problem: PlacementProblem) -> Placement:
        """Compute a placement for ``problem``."""
        from scipy import optimize

        lp = build_placement_lp(problem)
        n_x = lp.num_assignment_vars

        integrality = np.zeros(lp.num_vars)
        integrality[:n_x] = 1  # X binary; lambdas continuous

        constraints = [
            optimize.LinearConstraint(lp.a_ub, -np.inf, lp.b_ub),
            optimize.LinearConstraint(lp.a_eq, lp.b_eq, lp.b_eq),
        ]
        bounds = optimize.Bounds(lp.lower, lp.upper)
        result = optimize.milp(lp.c, constraints=constraints, bounds=bounds,
                               integrality=integrality,
                               options={"time_limit": self.time_limit})
        if result.x is None:
            raise RuntimeError(f"MILP solve failed: {result.message}")
        if not result.success and not self.accept_incumbent:
            raise RuntimeError(f"MILP did not reach optimality: {result.message}")

        x = lp.extract_assignment(result.x)
        assignment = x.argmax(axis=0)  # binary: exactly one ~1 per (l, e)
        return Placement(assignment, capacities=problem.effective_capacities(),
                         name=self.name)
