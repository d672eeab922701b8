"""Expert routing: traces, locality profiling, synthetic gates, stability."""

from .analysis import (CusumDriftDetector, DriftDetection, calibrate_slack,
                       hot_set, hot_set_jaccard, predicted_cross_node_bytes,
                       profile_drift, windowed_hot_set_stability)
from .confidence import (BudgetPoint, profile_budget_study, standard_error,
                         tokens_for_precision)
from .fitting import (RegimeFit, fit_dirichlet_alpha, fit_gate_temperature,
                      fit_regime, fit_regime_from_trace, selection_entropy)
from .profiler import LocalityProfile, LocalityProfiler
from .stability import (StabilityMonitor, StabilityReport, effective_lipschitz,
                        softmax_sensitivity_bound, theorem1_bound,
                        uncertainty_term, verify_softmax_bound)
from .synthetic import (ALPACA_REGIME, UNIFORM_REGIME, WIKITEXT_REGIME,
                        LocalityRegime, SyntheticRouter, phase_switch_trace,
                        regime_with_alpha)
from .trace import RoutingTrace

__all__ = [
    "RoutingTrace", "LocalityProfile", "LocalityProfiler",
    "SyntheticRouter", "LocalityRegime", "regime_with_alpha",
    "phase_switch_trace",
    "WIKITEXT_REGIME", "ALPACA_REGIME", "UNIFORM_REGIME",
    "theorem1_bound", "softmax_sensitivity_bound", "uncertainty_term",
    "verify_softmax_bound", "effective_lipschitz",
    "StabilityMonitor", "StabilityReport",
    "CusumDriftDetector", "DriftDetection", "calibrate_slack",
    "profile_drift",
    "hot_set", "hot_set_jaccard", "windowed_hot_set_stability",
    "predicted_cross_node_bytes",
    "standard_error", "tokens_for_precision", "profile_budget_study",
    "BudgetPoint",
    "fit_regime", "fit_regime_from_trace", "fit_dirichlet_alpha",
    "fit_gate_temperature", "selection_entropy", "RegimeFit",
]
