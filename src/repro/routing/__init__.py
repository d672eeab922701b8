"""Expert routing: traces, locality profiling, synthetic gates, stability."""

from .analysis import (CusumDriftDetector, DriftDetection, calibrate_slack,
                       profile_drift)
from .confidence import BudgetPoint, profile_budget_study, standard_error
from .fitting import (RegimeFit, fit_dirichlet_alpha, fit_gate_temperature,
                      fit_regime, selection_entropy)
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
    "standard_error", "profile_budget_study", "BudgetPoint",
    "fit_regime", "fit_dirichlet_alpha",
    "fit_gate_temperature", "selection_entropy", "RegimeFit",
]
