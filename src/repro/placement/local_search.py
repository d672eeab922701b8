"""Local-search refinement of rounded placements.

The paper's threshold-rounding is fast but leaves an integrality gap (the
diagnostics in :class:`~repro.placement.vela.PlacementSolution` report ~40 %
on the evaluation workloads).  A standard remedy is local search on the true
binary objective: starting from the rounded solution, greedily apply the
best *move* (re-seat one expert) or *swap* (exchange two experts between
workers) until no move improves Eq. (7).

The search exploits the objective's structure: an action changes only its
own layer's worker times, so each layer's best candidate, scored as numpy
delta grids over its bottleneck's experts, stays valid until an action
touches that layer.  The one input the layers share is which workers have
a free seat (``loads < caps``).  The first round scores every layer; each
later round re-scores only the layer the last action touched, or every
layer when a move filled a worker's last free seat or freed one on a full
worker.
"""

from __future__ import annotations

import numbers
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


def _layer_best(l, assignment, worker_time, free, coef):
    """Layer ``l``'s best candidate as ``(delta, action)``.

    Candidate order is all moves in (expert, target) row-major order, then
    all swaps in (expert, expert) row-major order; strict-``>``
    tie-breaking against ``-1e-15`` picks the first best one (``action``
    is None when no candidate beats it).  ``free[n]`` says whether worker
    ``n`` has a free seat.
    """
    num_workers = worker_time.shape[0]
    best_delta = -1e-15
    best_action: Optional[Tuple] = None
    wt = worker_time[:, l]
    current_max = wt.max()
    order = np.argsort(-wt)
    bottleneck = order[0]
    # Max over workers excluding {bottleneck, x} for any second exclusion
    # x: the runner-up unless x *is* the runner-up, then the third-best
    # (0.0 when fewer than three workers exist).
    runner_up = wt[order[1]] if num_workers > 1 else 0.0
    third = wt[order[2]] if num_workers > 2 else 0.0

    def others_excluding(x):
        return np.where(order[1] == x, third, runner_up)

    src_experts = np.flatnonzero(assignment[l] == bottleneck)
    coef_l = coef[:, l, :]                            # (N, E)

    # moves: (src expert, target worker) grid
    targets = np.flatnonzero((np.arange(num_workers) != bottleneck) & free)
    if src_experts.size and targets.size:
        new_src = wt[bottleneck] - coef_l[bottleneck, src_experts]
        new_dst = wt[targets][None, :] + \
            coef_l[targets][:, src_experts].T         # (Eb, T)
        new_max = np.maximum(np.maximum(new_src[:, None], new_dst),
                             others_excluding(targets)[None, :])
        delta = current_max - new_max
        flat = int(np.argmax(delta))
        cand = float(delta.reshape(-1)[flat])
        if cand > best_delta:
            e = int(src_experts[flat // targets.size])
            target = int(targets[flat % targets.size])
            best_delta = cand
            best_action = ("move", l, e, int(bottleneck), target)

    # swaps: (src expert, other-worker expert) grid
    other_experts = np.flatnonzero(assignment[l] != bottleneck)
    if src_experts.size and other_experts.size:
        owners = assignment[l, other_experts]
        new_src = (wt[bottleneck]
                   - coef_l[bottleneck, src_experts][:, None]
                   + coef_l[bottleneck, other_experts][None, :])
        new_dst = (wt[owners] - coef_l[owners, other_experts])[None, :] \
            + coef_l[owners][:, src_experts].T        # (Eb, Eo)
        new_max = np.maximum(np.maximum(new_src, new_dst),
                             others_excluding(owners)[None, :])
        delta = current_max - new_max
        flat = int(np.argmax(delta))
        cand = float(delta.reshape(-1)[flat])
        if cand > best_delta:
            e = int(src_experts[flat // other_experts.size])
            e2 = int(other_experts[flat % other_experts.size])
            best_delta = cand
            best_action = ("swap", l, e, int(bottleneck), e2,
                           int(assignment[l, e2]))
    return best_delta, best_action


class LocalSearchRefiner:
    """Best-improvement hill climbing over moves and swaps.

    Each round applies the best strictly improving candidate.  Candidates
    are visited layer by layer in ascending order (within a layer, in
    :func:`_layer_best`'s order) with strict-improvement tie-breaks, so
    the action sequence equals a full per-candidate scan of every layer
    on every round (kept as a test oracle in ``tests/oracles.py``).
    """

    def __init__(self, max_rounds: int = 200):
        if isinstance(max_rounds, bool) or \
                not isinstance(max_rounds, numbers.Integral) or max_rounds < 0:
            raise ValueError(f"max_rounds must be a non-negative integer, "
                             f"got {max_rounds!r}")
        self.max_rounds = max_rounds

    def refine(self, placement: Placement,
               problem: PlacementProblem) -> RefinementReport:
        """Hill-climb from ``placement``; returns the refined report.

        Raises ``ValueError``, before any work, when ``placement`` is not
        ``(layers, experts)`` of the problem's model or seats an expert on
        a worker the problem does not have.
        """
        num_workers = problem.num_workers
        shape = (problem.config.num_layers, problem.config.num_experts)
        if placement.assignment.shape != shape:
            raise ValueError(f"placement is {placement.assignment.shape}, "
                             f"the problem expects (layers, experts) = "
                             f"{shape}")
        if np.any(placement.assignment >= num_workers):
            raise ValueError(f"placement seats an expert on worker "
                             f"{int(placement.assignment.max())}, the "
                             f"problem has {num_workers} workers")
        coef = comm_coefficients(problem)  # (N, L, E)
        layers, experts = shape
        caps = np.asarray(problem.effective_capacities())
        assignment = placement.assignment.copy()
        loads = np.bincount(assignment.reshape(-1), minlength=num_workers)

        # worker_time[n, l] = sum of coef over experts assigned to n in l,
        # accumulated in expert order (bincount adds its weights in turn).
        layer_ids = np.arange(layers)[:, None]
        seated = coef[assignment, layer_ids, np.arange(experts)]  # (L, E)
        worker_time = np.bincount(
            (assignment * layers + layer_ids).reshape(-1),
            weights=seated.reshape(-1),
            minlength=num_workers * layers).reshape(num_workers, layers)

        initial = float(worker_time.max(axis=0).sum())
        moves = swaps = 0
        actions: List[Tuple] = []
        free = loads < caps
        bests = [_layer_best(l, assignment, worker_time, free, coef)
                 for l in range(layers)]
        for _ in range(self.max_rounds):
            # The first maximum in layer order: the full scan's tie-break.
            best_delta, best_action = max(bests, key=lambda best: best[0])
            if best_action is None or best_delta <= 1e-15:
                break
            actions.append(best_action)
            stale = [best_action[1]]
            if best_action[0] == "move":
                _, l, e, src, dst = best_action
                assignment[l, e] = dst
                worker_time[src, l] -= coef[src, l, e]
                worker_time[dst, l] += coef[dst, l, e]
                loads[src] -= 1
                loads[dst] += 1
                moves += 1
                seats = loads < caps
                if not np.array_equal(seats, free):
                    free, stale = seats, range(layers)
            else:
                _, l, e, src, e2, dst = best_action
                assignment[l, e] = dst
                assignment[l, e2] = src
                worker_time[src, l] += coef[src, l, e2] - coef[src, l, e]
                worker_time[dst, l] += coef[dst, l, e] - coef[dst, l, e2]
                swaps += 1
            for l in stale:
                bests[l] = _layer_best(l, assignment, worker_time, free, coef)

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
