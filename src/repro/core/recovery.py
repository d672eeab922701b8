"""Worker-failure recovery for the master-worker framework.

Long fine-tuning runs lose workers (preemption, OOM, hardware faults).  In
VELA's architecture the master owns the checkpoint, so recovery is a
placement problem: re-seat the failed worker's experts on the survivors,
respecting their remaining capacities and (since the locality profile is
still valid — Theorem 1) re-optimizing communication for the degraded
cluster.

``FailureRecoveryPlanner`` produces the new placement, the restore traffic,
and the expected per-step slowdown in the degraded configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..comm.cost import CommCostModel
from ..placement.base import Placement, PlacementProblem
from ..placement.objective import expected_step_comm_time
from ..placement.replan import plan_migration
from ..placement.vela import LocalityAwarePlacement
from .config import VelaConfig


@dataclass
class RecoveryPlan:
    """Outcome of planning around a failed worker."""

    failed_worker: int
    new_placement: Placement
    experts_restored: int
    restore_time_s: float
    degraded_step_comm_time_s: float
    healthy_step_comm_time_s: float

    @property
    def slowdown(self) -> float:
        """Relative increase of the Eq. (7) objective after the failure."""
        if self.healthy_step_comm_time_s <= 0:
            return 0.0
        return self.degraded_step_comm_time_s / \
            self.healthy_step_comm_time_s - 1.0


class FailureRecoveryPlanner:
    """Plan expert re-placement after a worker failure.

    The failed worker gets capacity zero; surviving workers keep their
    capacities.  If the survivors cannot host all experts, planning raises
    — the deployment needs a standby, which ``required_standby_capacity``
    quantifies.
    """

    def __init__(self, config: VelaConfig):
        self.config = config
        self.strategy = LocalityAwarePlacement()

    def _degraded_capacities(self, failed_worker: int) -> List[int]:
        capacities = list(self.config.worker_capacities())
        if not 0 <= failed_worker < len(capacities):
            raise ValueError(f"failed_worker {failed_worker} out of range")
        capacities[failed_worker] = 0
        return capacities

    def can_recover(self, failed_worker: int) -> bool:
        """Whether survivors can host every expert after this failure."""
        capacities = self._degraded_capacities(failed_worker)
        return sum(capacities) >= self.config.model.total_experts

    def required_standby_capacity(self) -> int:
        """Extra expert slots needed so any single failure is survivable."""
        capacities = self.config.worker_capacities()
        total = self.config.model.total_experts
        worst = max(capacities)
        shortfall = total - (sum(capacities) - worst)
        return max(0, shortfall)

    def plan(self, current: Placement, failed_worker: int,
             probability_matrix: np.ndarray) -> RecoveryPlan:
        """Re-place the failed worker's experts; returns the full plan."""
        if failed_worker == self.config.topology.master_worker_id:
            raise ValueError(
                "the master's own worker failing means the master process "
                "is gone; that is a checkpoint-restart, not a re-placement")
        capacities = self._degraded_capacities(failed_worker)
        if sum(capacities) < self.config.model.total_experts:
            raise ValueError(
                f"survivors' capacity {sum(capacities)} cannot host all "
                f"{self.config.model.total_experts} experts; provision "
                f">= {self.required_standby_capacity()} standby slots")

        problem = PlacementProblem(
            config=self.config.model, topology=self.config.topology,
            probability_matrix=probability_matrix,
            tokens_per_step=self.config.tokens_per_step,
            capacities=capacities)
        new_placement = self.strategy.place(problem)
        new_placement.name = f"recovered-from-w{failed_worker}"

        lost = int((current.assignment == failed_worker).sum())
        model, topology = self.config.model, self.config.topology
        migration = plan_migration(current, new_placement, model,
                                   num_workers=topology.num_workers)
        restore = migration.transfer_time(CommCostModel(model, topology))

        healthy_problem = PlacementProblem(
            config=self.config.model, topology=self.config.topology,
            probability_matrix=probability_matrix,
            tokens_per_step=self.config.tokens_per_step,
            capacities=self.config.worker_capacities())
        return RecoveryPlan(
            failed_worker=failed_worker,
            new_placement=new_placement,
            experts_restored=lost,
            restore_time_s=restore,
            degraded_step_comm_time_s=expected_step_comm_time(new_placement,
                                                              problem),
            healthy_step_comm_time_s=expected_step_comm_time(current,
                                                             healthy_problem))

    def survey(self, current: Placement,
               probability_matrix: np.ndarray) -> List[RecoveryPlan]:
        """Plan recovery for every survivable single-worker failure."""
        plans = []
        for worker in range(self.config.topology.num_workers):
            if worker == self.config.topology.master_worker_id:
                continue
            if not self.can_recover(worker):
                continue
            plans.append(self.plan(current, worker, probability_matrix))
        return plans
