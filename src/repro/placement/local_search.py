"""Local-search refinement of rounded placements.

The paper's threshold-rounding is fast but leaves an integrality gap (the
diagnostics in :class:`~repro.placement.vela.PlacementSolution` report ~40 %
on the evaluation workloads).  A standard remedy is local search on the true
binary objective: starting from the rounded solution, greedily apply the
best *move* (re-seat one expert) or *swap* (exchange two experts between
workers) until no move improves Eq. (7).

The search exploits the objective's structure: only the affected layer's
bottleneck changes per move, so each candidate evaluates in O(N) after an
O(N*L*E) precomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .base import Placement, PlacementProblem, PlacementStrategy
from .lp import comm_coefficients, problem_from_window
from .vela import LocalityAwarePlacement


@dataclass
class RefinementReport:
    """Summary of a refinement pass: objective before/after, actions taken.

    ``actions`` is the applied sequence in order — ``("move", layer,
    expert, src, dst)`` and ``("swap", layer, expert, src, expert2,
    dst)`` tuples — so a caller can replay any prefix of the climb
    (online re-placement truncates it at the profit-maximizing prefix).
    """
    placement: Placement
    initial_objective: float
    refined_objective: float
    moves_applied: int
    swaps_applied: int
    actions: List[Tuple] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Fractional objective improvement (0 = none)."""
        if self.initial_objective <= 0:
            return 0.0
        return 1.0 - self.refined_objective / self.initial_objective


class LocalSearchRefiner:
    """Best-improvement hill climbing over moves and swaps.

    Each round scores every candidate move and swap as numpy delta grids
    and applies the best strictly improving one.  Candidates are visited
    in a fixed order with strict-improvement tie-breaks, so the action
    sequence equals the per-candidate scan it replaced (kept as a test
    oracle in ``tests/oracles.py``).
    """

    def __init__(self, max_rounds: int = 200):
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        self.max_rounds = max_rounds

    def _best_action(self, assignment, worker_time, loads, caps, coef):
        """One round's best candidate, as per-layer numpy delta grids.

        Returns ``(best_delta, best_action)``.  Candidate order (layers
        ascending; per layer all moves in (expert, target) row-major order,
        then all swaps in (expert, expert) row-major order) and strict-``>``
        tie-breaking pick the first best candidate in that order.
        """
        num_workers, layers = worker_time.shape
        best_delta = -1e-15
        best_action: Optional[Tuple] = None
        worker_ids = np.arange(num_workers)
        for l in range(layers):
            wt = worker_time[:, l]
            current_max = wt.max()
            order = np.argsort(-wt)
            bottleneck = order[0]
            # Max over workers excluding {bottleneck, x} for any second
            # exclusion x: the runner-up unless x *is* the runner-up, then
            # the third-best (0.0 when fewer than three workers exist).
            runner_up = wt[order[1]] if num_workers > 1 else 0.0
            third = wt[order[2]] if num_workers > 2 else 0.0

            def others_excluding(x):
                return np.where(order[1] == x, third, runner_up)

            src_experts = np.flatnonzero(assignment[l] == bottleneck)
            coef_l = coef[:, l, :]                        # (N, E)

            # moves: (src expert, target worker) grid
            targets = np.flatnonzero((worker_ids != bottleneck)
                                     & (loads < caps))
            if src_experts.size and targets.size:
                new_src = wt[bottleneck] - coef_l[bottleneck, src_experts]
                new_dst = wt[targets][None, :] + \
                    coef_l[targets][:, src_experts].T     # (Eb, T)
                new_max = np.maximum(np.maximum(new_src[:, None], new_dst),
                                     others_excluding(targets)[None, :])
                delta = current_max - new_max
                flat = int(np.argmax(delta))
                cand = float(delta.reshape(-1)[flat])
                if cand > best_delta:
                    e = int(src_experts[flat // targets.size])
                    target = int(targets[flat % targets.size])
                    best_delta = cand
                    best_action = ("move", l, e, bottleneck, target)

            # swaps: (src expert, other-worker expert) grid
            other_experts = np.flatnonzero(assignment[l] != bottleneck)
            if src_experts.size and other_experts.size:
                owners = assignment[l, other_experts]
                new_src = (wt[bottleneck]
                           - coef_l[bottleneck, src_experts][:, None]
                           + coef_l[bottleneck, other_experts][None, :])
                new_dst = (wt[owners] - coef_l[owners, other_experts])[None, :] \
                    + coef_l[owners][:, src_experts].T    # (Eb, Eo)
                new_max = np.maximum(np.maximum(new_src, new_dst),
                                     others_excluding(owners)[None, :])
                delta = current_max - new_max
                flat = int(np.argmax(delta))
                cand = float(delta.reshape(-1)[flat])
                if cand > best_delta:
                    e = int(src_experts[flat // other_experts.size])
                    e2 = int(other_experts[flat % other_experts.size])
                    best_delta = cand
                    best_action = ("swap", l, e, bottleneck, e2,
                                   int(assignment[l, e2]))
        return best_delta, best_action

    def refine(self, placement: Placement,
               problem: PlacementProblem) -> RefinementReport:
        """Hill-climb from ``placement``; returns the refined report."""
        coef = comm_coefficients(problem)  # (N, L, E)
        num_workers = problem.num_workers
        layers, experts = placement.num_layers, placement.num_experts
        caps = np.asarray(problem.effective_capacities())
        assignment = placement.assignment.copy()
        loads = np.bincount(assignment.reshape(-1), minlength=num_workers)

        # worker_time[n, l] = sum of coef over experts assigned to n in l.
        worker_time = np.zeros((num_workers, layers))
        for l in range(layers):
            for e in range(experts):
                worker_time[assignment[l, e], l] += coef[assignment[l, e], l, e]

        initial = float(worker_time.max(axis=0).sum())
        moves = swaps = 0
        actions: List[Tuple] = []
        for _ in range(self.max_rounds):
            best_delta, best_action = self._best_action(
                assignment, worker_time, loads, caps, coef)
            if best_action is None or best_delta <= 1e-15:
                break
            # plain-int tuples: replayable, JSON-friendly, clean reprs
            best_action = (best_action[0],
                           *(int(x) for x in best_action[1:]))
            actions.append(best_action)
            if best_action[0] == "move":
                _, l, e, src, dst = best_action
                assignment[l, e] = dst
                worker_time[src, l] -= coef[src, l, e]
                worker_time[dst, l] += coef[dst, l, e]
                loads[src] -= 1
                loads[dst] += 1
                moves += 1
            else:
                _, l, e, src, e2, dst = best_action
                assignment[l, e] = dst
                assignment[l, e2] = src
                worker_time[src, l] += coef[src, l, e2] - coef[src, l, e]
                worker_time[dst, l] += coef[dst, l, e] - coef[dst, l, e2]
                swaps += 1

        refined = float(worker_time.max(axis=0).sum())
        return RefinementReport(
            placement=Placement(assignment,
                                capacities=problem.effective_capacities(),
                                name=f"{placement.name}+ls"),
            initial_objective=initial, refined_objective=refined,
            moves_applied=moves, swaps_applied=swaps, actions=actions)

    def refine_from_window(self, placement: Placement, config, topology,
                           window, **problem_kwargs) -> RefinementReport:
        """Refine against a recent routing window instead of a profile.

        The online re-placement entry point: ``window`` is anything
        :func:`~repro.placement.lp.problem_from_window` accepts (a
        :class:`~repro.placement.replan.RoutingWindow`, a trace, or a raw
        count array); keyword arguments (``tokens_per_step``,
        ``capacities``, ...) pass through to the problem.
        """
        problem = problem_from_window(config, topology, window,
                                      **problem_kwargs)
        return self.refine(placement, problem)


class RefinedLocalityPlacement(PlacementStrategy):
    """VELA's LP + rounding, then local-search refinement."""

    name = "vela+ls"

    def __init__(self, base: Optional[PlacementStrategy] = None,
                 max_rounds: int = 200):
        self.base = base or LocalityAwarePlacement()
        self.refiner = LocalSearchRefiner(max_rounds=max_rounds)

    def solve(self, problem: PlacementProblem) -> RefinementReport:
        """Solve and return the full diagnostic report."""
        return self.refiner.refine(self.base.place(problem), problem)

    def place(self, problem: PlacementProblem) -> Placement:
        """Compute a placement for ``problem``."""
        return self.solve(problem).placement
