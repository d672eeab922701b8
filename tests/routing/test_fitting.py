"""Tests for regime fitting (synthetic-router calibration)."""

import numpy as np
import pytest

from repro.models import nano_moe, tiny_mistral
from repro.routing import SyntheticRouter, WIKITEXT_REGIME, UNIFORM_REGIME
from repro.routing.fitting import (fit_dirichlet_alpha, fit_gate_temperature,
                                   fit_regime, selection_entropy)
from repro.routing.synthetic import LocalityRegime


class TestAlphaEstimation:
    def test_uniform_profile_gives_huge_alpha(self):
        p = np.full((4, 8), 2.0 / 8)
        assert fit_dirichlet_alpha(p) > 1e5

    def test_recovers_order_of_magnitude(self):
        """Fit on actual Dirichlet draws recovers alpha within ~2x."""
        rng = np.random.default_rng(0)
        for true_alpha in (0.5, 2.0, 8.0):
            draws = rng.dirichlet(np.full(8, true_alpha), size=400)
            estimate = fit_dirichlet_alpha(draws)
            assert true_alpha / 2.5 < estimate < true_alpha * 2.5, \
                f"alpha {true_alpha} estimated as {estimate}"

    def test_skewed_lower_than_diffuse(self):
        rng = np.random.default_rng(1)
        skewed = rng.dirichlet(np.full(8, 0.5), size=50)
        diffuse = rng.dirichlet(np.full(8, 5.0), size=50)
        assert fit_dirichlet_alpha(skewed) < fit_dirichlet_alpha(diffuse)

    def test_needs_two_experts(self):
        with pytest.raises(ValueError):
            fit_dirichlet_alpha(np.ones((3, 1)))


class TestEntropyAndTemperature:
    def test_entropy_bounds(self):
        uniform = np.full((2, 4), 0.5)
        assert selection_entropy(uniform) == pytest.approx(1.0)
        collapsed = np.zeros((2, 4))
        collapsed[:, 0] = 2.0
        assert selection_entropy(collapsed + 1e-15) < 0.01

    def test_temperature_monotone_in_entropy(self):
        """Hotter gates flatten selection frequencies."""
        config = nano_moe()
        entropies = []
        for temp in (0.3, 1.0, 2.5):
            regime = LocalityRegime(name="t", dirichlet_alpha=1.0,
                                    gate_temperature=temp)
            router = SyntheticRouter(config, regime, seed=4)
            entropies.append(selection_entropy(
                router.probability_matrix(4096)))
        assert entropies[0] < entropies[1] < entropies[2]


class TestFitRegime:
    def test_self_consistency(self):
        """Fitting a profile produced by a known regime approximately
        reproduces that regime's selection statistics."""
        config = nano_moe()
        source = SyntheticRouter(config, WIKITEXT_REGIME, seed=7)
        profile = source.probability_matrix(16384)
        fit = fit_regime(config, profile, seed=7)
        assert fit.entropy_error < 0.05

    def test_uniform_fit(self):
        config = nano_moe()
        source = SyntheticRouter(config, UNIFORM_REGIME, seed=7)
        fit = fit_regime(config, source.probability_matrix(8192))
        assert fit.target_entropy > 0.95
        assert fit.achieved_entropy > 0.9

    def test_fitted_router_supports_whatif(self):
        """The fitted regime plugs straight into the placement pipeline."""
        from repro.cluster import paper_cluster
        from repro.placement import (LocalityAwarePlacement,
                                     PlacementProblem)
        config = nano_moe()
        source = SyntheticRouter(config, WIKITEXT_REGIME, seed=3)
        fit = fit_regime(config, source.probability_matrix(8192), seed=3)
        clone = SyntheticRouter(config, fit.regime, seed=3)
        problem = PlacementProblem(
            config=config, topology=paper_cluster(),
            probability_matrix=clone.probability_matrix(4096),
            tokens_per_step=256)
        placement = LocalityAwarePlacement().place(problem)
        assert placement.worker_loads(6).sum() == config.total_experts

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_regime(nano_moe(), np.ones((1, 1)))

    def test_fit_on_live_model_profile(self):
        """End-to-end: profile a live tiny model, fit a synthetic twin."""
        from repro.bench.workloads import tiny_finetune_workload
        from repro.finetune import pretrain_router
        from repro.routing import LocalityProfiler

        model, loader = tiny_finetune_workload(seed=0)
        pretrain_router(model, loader, steps=15)
        profile = LocalityProfiler(model).profile(iter(loader), max_batches=4)
        fit = fit_regime(model.config, profile.probability_matrix,
                         samples=2048)
        assert fit.entropy_error < 0.15
