"""VELA: communication-efficient MoE fine-tuning with locality-aware expert
placement — a from-scratch reproduction of Hu, Kang & Li (ICDCS 2025).

Public API tour:

* ``repro.nn`` — numpy autograd substrate (tensors, layers, optimizers).
* ``repro.models`` — MoE transformers (live tiny models + Mixtral-scale specs).
* ``repro.lora`` — LoRA parameter-efficient fine-tuning.
* ``repro.data`` — the synthetic Tiny-Shakespeare corpus and its tokenizer.
* ``repro.routing`` — traces, locality profiling, synthetic routers,
  Theorem-1 stability analysis.
* ``repro.cluster`` / ``repro.comm`` — hardware topology, byte accounting
  and the expert-parallel collectives.
* ``repro.placement`` — the LP-based locality-aware placement plus all
  baselines (sequential, random, expert-parallel, greedy, exact MILP).
* ``repro.runtime`` — the master-worker and expert-parallel step engines.
* ``repro.core`` — :class:`VelaSystem`, the profile->place->run facade.
* ``repro.finetune`` — live-model LoRA trainer (generates real traces).
* ``repro.bench`` — workloads and experiments regenerating every figure.
"""

from .core import (PAPER_STRATEGIES, VelaConfig, VelaSystem,
                   compare_strategies, make_strategy, reduction_vs)
from .placement import (ExpertParallelPlacement, GreedyPlacement,
                        LocalityAwarePlacement, Placement, PlacementProblem,
                        RandomPlacement, SequentialPlacement)
from .routing import (ALPACA_REGIME, WIKITEXT_REGIME, LocalityProfiler,
                      RoutingTrace, SyntheticRouter)

__version__ = "1.0.0"

__all__ = [
    "VelaSystem", "VelaConfig", "compare_strategies", "make_strategy",
    "reduction_vs", "PAPER_STRATEGIES",
    "Placement", "PlacementProblem", "LocalityAwarePlacement",
    "SequentialPlacement", "RandomPlacement", "ExpertParallelPlacement",
    "GreedyPlacement",
    "RoutingTrace", "SyntheticRouter", "LocalityProfiler",
    "WIKITEXT_REGIME", "ALPACA_REGIME",
    "__version__",
]
