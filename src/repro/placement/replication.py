"""Expert replication: spending spare memory on extra copies of hot experts.

The paper assigns each expert to exactly one worker (constraint (10)).  When
worker capacities exceed the ``L*E`` total, the leftover memory can hold
*replicas* of popular experts, splitting their token load across copies —
the direction systems like Lina and SmartMoE explore for inference, adapted
here to VELA's master-worker fine-tuning with a consistency caveat: during
fine-tuning a replica must either stay frozen (valid for the frozen expert
weights + per-replica LoRA averaging) or sync adapters each step; the model
below charges an adapter all-reduce between replica holders per step.

``ReplicationStrategy`` greedily replicates the experts that dominate the
per-layer bottleneck (Eq. (7)) until capacity or improvement runs out.

Every price here comes from one dense share tensor,
:meth:`ReplicatedPlacement.shares`: ``shares[e, n, l]`` is the fraction of
expert ``(l, e)``'s tokens that worker ``n`` serves.  Weighting it by the
Eq. (6) coefficients and reducing over its leading (expert) axis gives the
per-(worker, layer) times; the reduction adds in expert-id order, so the
result is bitwise the per-expert loop's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .base import Placement, PlacementProblem, PlacementStrategy
from .lp import comm_coefficients, problem_from_window
from .vela import LocalityAwarePlacement


class ReplicatedPlacement:
    """A placement where experts may live on several workers.

    Token load of a replicated expert splits across its holders
    proportionally to master-link bandwidth (the minimizer of the per-expert
    contribution to every holder's transfer time under a linear cost).
    """

    def __init__(self, primary: Placement,
                 replicas: Dict[Tuple[int, int], List[int]],
                 bandwidths: Sequence[float], name: str = "vela+replication"):
        self.primary = primary
        self.bandwidths = np.asarray(list(bandwidths), dtype=np.float64)
        self.name = name
        self.replicas: Dict[Tuple[int, int], List[int]] = {}
        for key, workers in replicas.items():
            layer, expert = key
            holders = set(workers)
            primary_worker = primary.worker_of(layer, expert)
            holders.discard(primary_worker)
            if holders:
                self.replicas[key] = sorted(holders)

    @property
    def num_layers(self) -> int:
        """Number of MoE blocks."""
        return self.primary.num_layers

    @property
    def num_experts(self) -> int:
        """Experts per block."""
        return self.primary.num_experts

    @property
    def num_replicas(self) -> int:
        """Extra expert copies beyond the primaries."""
        return sum(len(v) for v in self.replicas.values())

    @property
    def assignment(self) -> np.ndarray:
        """The primary's ``(layers, experts)`` worker-id matrix.

        Consumers that score against a single-owner assignment (the
        routing-health monitor's locality gauges, ``CommCostModel``) see
        the primary placement; replica holders are only visible through
        :meth:`holders` / :meth:`fractions`.
        """
        return self.primary.assignment

    def holders(self, layer: int, expert: int) -> List[int]:
        """All workers holding a copy of expert ``(layer, expert)``."""
        extra = self.replicas.get((layer, expert), [])
        return [self.primary.worker_of(layer, expert)] + list(extra)

    def fractions(self, layer: int, expert: int) -> np.ndarray:
        """Load split across holders, proportional to their bandwidth."""
        holders = self.holders(layer, expert)
        weights = self.bandwidths[holders]
        return weights / weights.sum()

    def worker_loads(self, num_workers: int) -> np.ndarray:
        """Hosted copies per worker (primaries + replicas)."""
        loads = self.primary.worker_loads(num_workers).astype(np.int64)
        for workers in self.replicas.values():
            for worker in workers:
                loads[worker] += 1
        return loads

    def shares(self, num_workers: int) -> np.ndarray:
        """``(experts, workers, layers)`` load shares.

        ``shares[e, n, l]`` is :meth:`fractions`'s share of expert
        ``(l, e)`` for worker ``n`` when ``n`` holds a copy, else 0; a sole
        holder's share is 1.
        """
        layers, experts = self.num_layers, self.num_experts
        out = np.zeros((experts, num_workers, layers))
        out[np.arange(experts)[None, :], np.asarray(self.primary.assignment),
            np.arange(layers)[:, None]] = 1.0
        for layer, expert in self.replicas:
            out[expert, :, layer] = self.expert_shares(layer, expert,
                                                       num_workers)
        return out

    def expert_shares(self, layer: int, expert: int,
                      num_workers: int) -> np.ndarray:
        """One expert's ``(workers,)`` column of :meth:`shares`."""
        out = np.zeros(num_workers)
        out[self.holders(layer, expert)] = self.fractions(layer, expert)
        return out

    def tokens_per_worker(self, step_counts: np.ndarray,
                          num_workers: int) -> np.ndarray:
        """Expected ``K[n, l]`` with replicated experts' load split."""
        step_counts = np.asarray(step_counts, dtype=np.float64)
        return _reduce_experts(step_counts.T[:, None, :]
                               * self.shares(num_workers))

    def replica_sync_bytes(self, config, lora_rank: int = 8) -> float:
        """Per-step adapter bytes synchronized between replica holders.

        Each replicated expert's LoRA matrices (fp32) are all-reduced across
        its holders once per step.
        """
        per_expert = 3 * (config.hidden_size + config.ffn_hidden_size) * \
            lora_rank * 4.0
        return per_expert * self.num_replicas


def _reduce_experts(per_expert: np.ndarray) -> np.ndarray:
    """Sum an ``(experts, ...)`` array over its leading axis, adding in
    expert-id order as a loop over experts does.

    ``np.sum`` adds 8 or more terms pairwise when they lie contiguous in
    memory (here: one worker and one layer), which changes the bits; a
    cumulative sum adds in order for every shape.
    """
    return np.cumsum(per_expert, axis=0)[-1]


def _coefficients(problem: PlacementProblem) -> np.ndarray:
    """:func:`~repro.placement.lp.comm_coefficients` in the ``(experts,
    workers, layers)`` layout of :meth:`ReplicatedPlacement.shares`."""
    return comm_coefficients(problem).transpose(2, 0, 1)


def _worker_times(coef: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """Per-(worker, layer) communication seconds from ``(experts, workers,
    layers)`` coefficients and shares."""
    return _reduce_experts(coef * shares)


def _objective(worker_times: np.ndarray) -> float:
    """Eq. (7): the per-layer bottleneck times, summed in layer order (a
    cumulative sum, as in :func:`_reduce_experts`)."""
    return float(np.cumsum(worker_times.max(axis=0))[-1])


def expected_step_comm_time_replicated(placement: ReplicatedPlacement,
                                       problem: PlacementProblem) -> float:
    """Eq. (7) generalized to split expert loads."""
    return _objective(_worker_times(
        _coefficients(problem), placement.shares(problem.num_workers)))


class FrozenPlacementStrategy(PlacementStrategy):
    """A strategy that always returns one fixed, precomputed placement.

    Used as the ``base`` of :class:`ReplicationStrategy` when the primary
    assignment must not move — the live decode path's online hot-expert
    replication promotes copies *on top of* the serving placement without
    migrating any primary (migration is
    :class:`~repro.placement.replan.ReplacementController`'s job, on its
    own cadence).
    """

    name = "frozen"

    def __init__(self, placement: Placement):
        self.placement = placement

    def place(self, problem: PlacementProblem) -> Placement:
        """Return the frozen placement (the problem only prices it)."""
        if problem.config.num_layers != self.placement.num_layers or \
                problem.config.num_experts != self.placement.num_experts:
            raise ValueError(
                f"frozen placement is {self.placement.num_layers}x"
                f"{self.placement.num_experts} but the problem wants "
                f"{problem.config.num_layers}x{problem.config.num_experts}")
        return self.placement


@dataclass
class ReplicationReport:
    """Summary of a replication pass: objective before/after."""
    placement: ReplicatedPlacement
    base_objective: float
    replicated_objective: float
    replicas_added: int

    @property
    def improvement(self) -> float:
        """Fractional objective improvement (0 = none)."""
        if self.base_objective <= 0:
            return 0.0
        return 1.0 - self.replicated_objective / self.base_objective


class ReplicationStrategy(PlacementStrategy):
    """Greedy bottleneck-driven replication on top of a base strategy.

    Each round finds the layer with the largest bottleneck time, takes the
    bottleneck worker's most expensive expert, and replicates it to the
    worker with spare capacity that most reduces that layer's maximum.
    Stops when capacity is exhausted or no move improves the objective.
    """

    name = "vela+replication"

    def __init__(self, base: PlacementStrategy = None,
                 max_replicas: int = 64):
        if max_replicas < 0:
            raise ValueError("max_replicas must be non-negative")
        self.base = base or LocalityAwarePlacement()
        self.max_replicas = max_replicas

    def solve(self, problem: PlacementProblem) -> ReplicationReport:
        """Solve and return the full diagnostic report."""
        primary = self.base.place(problem)
        bandwidths = problem.topology.master_bandwidths()
        placement = ReplicatedPlacement(primary, {}, bandwidths,
                                        name=self.name)
        capacities = np.asarray(problem.effective_capacities())
        coef = _coefficients(problem)
        base_objective = _objective(_worker_times(
            coef, placement.shares(problem.num_workers)))

        current = base_objective
        for _ in range(self.max_replicas):
            move = self._best_move(placement, coef, capacities)
            if move is None:
                break
            (layer, expert), worker, new_objective = move
            if new_objective >= current - 1e-15:
                break
            key = (layer, expert)
            placement.replicas.setdefault(key, []).append(worker)
            placement.replicas[key] = sorted(set(placement.replicas[key]))
            current = new_objective

        return ReplicationReport(placement=placement,
                                 base_objective=base_objective,
                                 replicated_objective=current,
                                 replicas_added=placement.num_replicas)

    def place(self, problem: PlacementProblem) -> ReplicatedPlacement:
        """Compute a placement for ``problem``."""
        return self.solve(problem).placement

    def solve_from_window(self, config, topology, window,
                          **problem_kwargs) -> ReplicationReport:
        """Re-solve (base strategy + replication) from a routing window.

        ``window`` is anything :func:`~repro.placement.lp.
        problem_from_window` accepts; keyword arguments pass through to
        the problem (pass ``capacities`` with real spare room, or
        replication has nothing to spend).
        """
        problem = problem_from_window(config, topology, window,
                                      **problem_kwargs)
        return self.solve(problem)

    # ------------------------------------------------------------------ #
    def _best_move(self, placement: ReplicatedPlacement, coef: np.ndarray,
                   capacities: np.ndarray):
        """The best ``(key, worker, objective)`` replica to add, or None.

        ``coef`` is the problem's ``(experts, workers, layers)``
        coefficient array.
        """
        num_workers = coef.shape[1]
        spare = capacities - placement.worker_loads(num_workers)
        if spare.max() <= 0:
            return None

        shares = placement.shares(num_workers)
        times = _worker_times(coef, shares)  # (workers, layers)
        bottleneck_layer = int(times.max(axis=0).argmax())
        bottleneck_worker = int(times[:, bottleneck_layer].argmax())

        # The bottleneck worker's most expensive expert in that layer (the
        # lowest id on ties; non-holders cost 0).
        costs = coef[:, bottleneck_worker, bottleneck_layer] * \
            shares[:, bottleneck_worker, bottleneck_layer]
        if not costs.max() > 0.0:
            return None
        best_expert = int(costs.argmax())

        # Try replicating it onto each spare-capacity worker; keep the best.
        key = (bottleneck_layer, best_expert)
        current_holders = placement.holders(*key)
        best = None
        for worker in range(num_workers):
            if spare[worker] <= 0 or worker in current_holders:
                continue
            trial = ReplicatedPlacement(
                placement.primary,
                {key: placement.replicas.get(key, []) + [worker]},
                placement.bandwidths)
            trial_shares = shares.copy()
            trial_shares[best_expert, :, bottleneck_layer] = \
                trial.expert_shares(*key, num_workers)
            objective = _objective(_worker_times(coef, trial_shares))
            if best is None or objective < best[2]:
                best = (key, worker, objective)
        return best
