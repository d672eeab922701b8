"""How much profiling is enough?  Confidence analysis for locality profiles.

The paper profiles the dataset once before fine-tuning; this module answers
the operational question it leaves open: *how many tokens must the profiling
pass see before the placement computed from the estimate is as good as the
placement computed from the truth?*

* binomial standard errors for each ``P[l, e]`` estimate,
* a bootstrap over profile samples quantifying placement-objective regret
  as a function of profiling budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..placement.base import PlacementProblem
from ..placement.objective import expected_step_comm_time
from ..placement.vela import LocalityAwarePlacement


def standard_error(probability_matrix: np.ndarray,
                   profile_tokens: int) -> np.ndarray:
    """Per-entry binomial standard error of a profiled ``P[l, e]``.

    Each token independently selects expert ``e`` with probability
    ``P[l, e]`` (selections are Bernoulli per token per expert under top-k
    sampling), so the estimator's standard error is
    ``sqrt(P (1 - P) / tokens)``.
    """
    if profile_tokens < 1:
        raise ValueError("profile_tokens must be positive")
    p = np.clip(np.asarray(probability_matrix, dtype=np.float64), 0.0, 1.0)
    return np.sqrt(p * (1.0 - p) / profile_tokens)


@dataclass
class BudgetPoint:
    """Placement quality achieved at one profiling budget."""

    profile_tokens: int
    mean_objective: float
    worst_objective: float
    reference_objective: float

    @property
    def mean_regret(self) -> float:
        """Relative excess of the estimated-profile placement's objective."""
        if self.reference_objective <= 0:
            return 0.0
        return self.mean_objective / self.reference_objective - 1.0


def profile_budget_study(router, problem_template: PlacementProblem,
                         budgets: List[int], trials: int = 3,
                         seed: int = 0) -> List[BudgetPoint]:
    """Sweep profiling budgets; score each placement on the *true* profile.

    ``router`` must expose ``probability_matrix(profile_tokens, seed)``
    (both live profilers via wrappers and synthetic routers qualify).  The
    reference profile uses a very large budget.
    """
    if not budgets:
        raise ValueError("need at least one budget")
    if trials < 1:
        raise ValueError("trials must be positive")
    reference = router.probability_matrix(200_000, seed=seed + 999)

    def problem_with(profile: np.ndarray) -> PlacementProblem:
        return PlacementProblem(
            config=problem_template.config,
            topology=problem_template.topology,
            probability_matrix=profile,
            tokens_per_step=problem_template.tokens_per_step,
            capacities=problem_template.capacities)

    strategy = LocalityAwarePlacement()
    reference_problem = problem_with(reference)
    reference_obj = expected_step_comm_time(
        strategy.place(reference_problem), reference_problem)

    points = []
    for budget in budgets:
        objectives = []
        for trial in range(trials):
            estimate = router.probability_matrix(budget,
                                                 seed=seed + trial * 17)
            placement = strategy.place(problem_with(estimate))
            # Score under the TRUE profile: this is the regret that matters.
            objectives.append(expected_step_comm_time(placement,
                                                      reference_problem))
        points.append(BudgetPoint(profile_tokens=budget,
                                  mean_objective=float(np.mean(objectives)),
                                  worst_objective=float(np.max(objectives)),
                                  reference_objective=reference_obj))
    return points
