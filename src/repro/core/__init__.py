"""VELA core: system facade, configuration, strategy comparison, recovery."""

from .baselines import (PAPER_STRATEGIES, STRATEGY_FACTORIES,
                        compare_strategies, make_strategy, reduction_vs)
from .config import VelaConfig
from .planner import (DEFAULT_OPTIONS, ClusterOption, ClusterPlanner,
                      PlanResult)
from .recovery import FailureRecoveryPlanner, RecoveryPlan
from .system import VelaSystem

__all__ = [
    "VelaConfig", "VelaSystem",
    "compare_strategies", "make_strategy", "reduction_vs",
    "STRATEGY_FACTORIES", "PAPER_STRATEGIES",
    "FailureRecoveryPlanner", "RecoveryPlan",
    "ClusterPlanner", "ClusterOption", "PlanResult", "DEFAULT_OPTIONS",
]
