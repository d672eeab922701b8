"""The paper's LP transformation of the expert-placement problem.

Section IV-B formulates placement as

    min   sum_l  max_n ( (b*H / 4*B_n) * sum_e X[n,l,e] * P[l,e] * K )
    s.t.  sum_n X[n,l,e] = 1            for every expert (l, e)
          sum_{l,e} X[n,l,e] <= C_n     for every worker n
          X[n,l,e] in {0, 1}

and linearizes it by (1) replacing each layer's max with an auxiliary
variable ``lambda_l`` bounded below by every worker's expected communication
time, and (2) relaxing the binary constraint to ``0 <= X <= 1``.

This module builds that LP in standard ``scipy.optimize.linprog`` form.  The
variable vector is ``[X.flatten(order=(n,l,e)), lambda_0..lambda_{L-1}]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .base import PlacementProblem

if TYPE_CHECKING:  # scipy loads when an LP is built, not on import
    from scipy import sparse


@dataclass
class PlacementLP:
    """A built LP instance, ready for any solver.

    ``A_ub x <= b_ub``, ``A_eq x = b_eq``, bounds ``lower <= x <= upper``,
    objective ``min c @ x``.  The first ``N*L*E`` variables are the relaxed
    assignment tensor (``order='C'`` over ``(n, l, e)``); the last ``L`` are
    the per-layer auxiliary maxima.
    """

    c: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    num_workers: int
    num_layers: int
    num_experts: int
    cost_scale: float = 1.0

    @property
    def num_assignment_vars(self) -> int:
        """Count of relaxed assignment variables (N*L*E)."""
        return self.num_workers * self.num_layers * self.num_experts

    @property
    def num_vars(self) -> int:
        """Total LP variables (assignments + per-layer maxima)."""
        return self.num_assignment_vars + self.num_layers

    def extract_assignment(self, solution: np.ndarray) -> np.ndarray:
        """Reshape a solution vector into the relaxed ``X[n, l, e]`` tensor."""
        x = solution[:self.num_assignment_vars]
        return x.reshape(self.num_workers, self.num_layers, self.num_experts)


def problem_from_window(config, topology, window, *,
                        tokens_per_step: int = 4096,
                        capacities: Optional[Sequence[int]] = None,
                        bandwidth_override: Optional[Sequence[float]] = None
                        ) -> PlacementProblem:
    """Build a :class:`PlacementProblem` from recent routing statistics.

    ``window`` is any source of routing counts: a
    :class:`~repro.placement.replan.RoutingWindow` (anything with a
    ``total()`` method), a :class:`~repro.routing.trace.RoutingTrace`
    (anything with a ``counts`` array), or a raw ``(layers, experts)`` /
    ``(steps, layers, experts)`` array.  The summed counts are normalized
    into a locality profile whose rows sum to ``config.top_k`` — the same
    convention as ``RoutingTrace.probability_matrix`` — with a uniform
    fallback for layers that routed nothing.  This is the online
    re-placement entry point: the profiling pass's probability matrix,
    measured on recent traffic instead of pre-fine-tuning traffic.
    """
    if hasattr(window, "total"):
        counts = np.asarray(window.total(), dtype=np.float64)
    elif hasattr(window, "counts"):
        counts = np.asarray(window.counts, dtype=np.float64)
    else:
        counts = np.asarray(window, dtype=np.float64)
    if counts.ndim == 3:
        counts = counts.sum(axis=0)
    expected = (config.num_layers, config.num_experts)
    if counts.shape != expected:
        raise ValueError(f"window counts shape {counts.shape} != {expected}")
    row_mass = counts.sum(axis=1, keepdims=True)
    uniform = np.full_like(counts, 1.0 / config.num_experts)
    with np.errstate(invalid="ignore", divide="ignore"):
        profile = np.where(row_mass > 0, counts / np.where(
            row_mass > 0, row_mass, 1.0), uniform)
    return PlacementProblem(config=config, topology=topology,
                            probability_matrix=profile * config.top_k,
                            tokens_per_step=tokens_per_step,
                            capacities=capacities,
                            bandwidth_override=bandwidth_override)


def comm_coefficients(problem: PlacementProblem) -> np.ndarray:
    """Per-(worker, layer, expert) expected communication seconds.

    ``coef[n, l, e] = (b*H / (4*B_n)) * P[l, e] * K`` — the contribution of
    assigning expert ``(l, e)`` to worker ``n``, from Eq. (6).
    """
    if problem.probability_matrix is None:
        raise ValueError("locality-aware placement needs a probability matrix")
    config = problem.config
    p = np.asarray(problem.probability_matrix, dtype=np.float64)
    bandwidths = np.asarray(problem.effective_bandwidths())
    per_token_time = (config.bits_per_feature * config.hidden_size
                      / 4.0) / bandwidths  # (N,), seconds per token unit
    return per_token_time[:, None, None] * p[None, :, :] * problem.tokens_per_step


def build_placement_lp(problem: PlacementProblem) -> PlacementLP:
    """Construct the relaxed LP for a placement problem.

    The constraint matrices come from index arrays whose COO entries run
    row by row (within a row, in column order, ``lambda_l`` last), so
    they convert to the same CSR arrays as a row-at-a-time assembly.
    """
    from scipy import sparse

    config = problem.config
    n_workers = problem.num_workers
    layers, experts = config.num_layers, config.num_experts
    n_x = n_workers * layers * experts
    n_vars = n_x + layers

    coef = comm_coefficients(problem)
    # Communication times are ~1e-8..1e-3 seconds; normalize so the solver
    # works at O(1) magnitudes (its feasibility tolerances are absolute).
    cost_scale = float(coef.max()) or 1.0
    coef = coef / cost_scale

    # cols[n, l, e] is the flat index of X[n, l, e].
    cols = np.arange(n_x).reshape(n_workers, layers, experts)

    # Objective: minimize sum of lambdas.
    c = np.zeros(n_vars)
    c[n_x:] = 1.0

    # Equality: each expert assigned exactly once -> L*E rows, row l*E + e
    # holding X[n, l, e] for every worker n.
    n_eq = layers * experts
    a_eq = sparse.csr_matrix(
        (np.ones(n_x), (np.repeat(np.arange(n_eq), n_workers),
                        cols.transpose(1, 2, 0).reshape(-1))),
        shape=(n_eq, n_vars))
    b_eq = np.ones(n_eq)

    # Inequalities: capacity rows (N), sum_{l,e} X[n,l,e] <= C_n, then
    # lambda rows (N*L), row N + n*L + l:
    # (b*H / 4*B_n) * sum_e X[n,l,e] P[l,e] K - lambda_l <= 0
    n_lambda = n_workers * layers
    lambda_cols = np.column_stack([cols.reshape(n_lambda, experts),
                                   np.tile(n_x + np.arange(layers),
                                           n_workers)])
    lambda_vals = np.column_stack([coef.reshape(n_lambda, experts),
                                   np.full(n_lambda, -1.0)])
    ub_rows = np.concatenate([
        np.repeat(np.arange(n_workers), layers * experts),
        np.repeat(n_workers + np.arange(n_lambda), experts + 1)])
    ub_cols = np.concatenate([cols.reshape(-1), lambda_cols.reshape(-1)])
    ub_vals = np.concatenate([np.ones(n_x), lambda_vals.reshape(-1)])
    a_ub = sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)),
                             shape=(n_workers + n_lambda, n_vars))
    b_ub = np.concatenate([
        np.asarray(problem.effective_capacities(), dtype=np.float64),
        np.zeros(n_lambda)])

    lower = np.zeros(n_vars)
    upper = np.concatenate([np.ones(n_x), np.full(layers, np.inf)])

    return PlacementLP(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq,
                       b_eq=b_eq, lower=lower, upper=upper,
                       num_workers=n_workers, num_layers=layers,
                       num_experts=experts, cost_scale=cost_scale)


def solve_lp_scipy(lp: PlacementLP) -> np.ndarray:
    """Solve with scipy's HiGHS backend; returns the full variable vector."""
    from scipy.optimize import linprog

    # An (n, 2) bounds array; linprog reads an infinite bound as none.
    bounds = np.column_stack([lp.lower, lp.upper])
    result = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq,
                     b_eq=lp.b_eq, bounds=bounds, method="highs")
    if not result.success:
        raise RuntimeError(f"LP solve failed: {result.message}")
    return result.x
