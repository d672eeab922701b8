"""Expert placement strategies (the paper's Section IV-B and baselines)."""

from .base import Placement, PlacementProblem, PlacementStrategy
from .expert_parallel import ExpertParallelPlacement
from .greedy import GreedyPlacement
from .hierarchical import HierarchicalPlacement
from .local_search import (LocalSearchRefiner, RefinedLocalityPlacement,
                           RefinementReport)
from .lp import (PlacementLP, build_placement_lp, comm_coefficients,
                 problem_from_window, solve_lp_scipy)
from .milp import ExactMILPPlacement
from .objective import (expected_cross_node_bytes, expected_step_comm_time,
                        expected_worker_times, relaxed_objective)
from .io import load_placement, save_placement
from .random_ import RandomPlacement
from .replan import (BreakEvenReport, ExpertMove, MigrationPlan,
                     ReplacementController, ReplanConfig, ReplanDecision,
                     RoutingWindow, TRIGGER_POLICIES, plan_migration)
from .replication import (FrozenPlacementStrategy, ReplicatedPlacement,
                          ReplicationReport, ReplicationStrategy,
                          expected_step_comm_time_replicated)
from .rounding import round_relaxed_assignment
from .sequential import SequentialPlacement
from .vela import LocalityAwarePlacement, PlacementSolution

__all__ = [
    "Placement", "PlacementProblem", "PlacementStrategy",
    "SequentialPlacement", "RandomPlacement", "ExpertParallelPlacement",
    "GreedyPlacement", "ExactMILPPlacement", "LocalityAwarePlacement",
    "HierarchicalPlacement", "RefinedLocalityPlacement",
    "LocalSearchRefiner", "RefinementReport",
    "PlacementSolution", "PlacementLP", "build_placement_lp",
    "comm_coefficients", "solve_lp_scipy",
    "round_relaxed_assignment",
    "expected_step_comm_time", "expected_worker_times",
    "expected_cross_node_bytes", "relaxed_objective",
    "save_placement", "load_placement",
    "ReplicatedPlacement", "ReplicationStrategy", "ReplicationReport",
    "FrozenPlacementStrategy", "expected_step_comm_time_replicated",
    "problem_from_window", "RoutingWindow", "ExpertMove", "MigrationPlan",
    "plan_migration", "BreakEvenReport", "ReplanConfig", "ReplanDecision",
    "ReplacementController", "TRIGGER_POLICIES",
]
