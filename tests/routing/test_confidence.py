"""Tests for profiling-budget confidence analysis."""

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.models import nano_moe
from repro.placement import PlacementProblem
from repro.routing import (SyntheticRouter, WIKITEXT_REGIME, BudgetPoint,
                           profile_budget_study, standard_error)


class TestStandardError:
    def test_formula(self):
        se = standard_error(np.array([[0.5]]), profile_tokens=100)
        np.testing.assert_allclose(se, [[0.05]])

    def test_shrinks_with_budget(self):
        p = np.array([[0.3, 0.7]])
        assert np.all(standard_error(p, 10000) < standard_error(p, 100))

    def test_zero_at_extremes(self):
        se = standard_error(np.array([[0.0, 1.0]]), 50)
        np.testing.assert_array_equal(se, [[0.0, 0.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            standard_error(np.array([[0.5]]), 0)


class TestBudgetStudy:
    def test_regret_decreases_with_budget(self, nano_config):
        router = SyntheticRouter(nano_config, WIKITEXT_REGIME, seed=3)
        template = PlacementProblem(
            config=nano_config, topology=paper_cluster(),
            probability_matrix=router.probability_matrix(1024),
            tokens_per_step=512, capacities=[1, 2, 2, 1, 1, 1])
        points = profile_budget_study(router, template,
                                      budgets=[64, 16384], trials=3, seed=0)
        assert len(points) == 2
        # tiny budgets can only do worse (or equal) on the true profile
        assert points[0].mean_regret >= points[1].mean_regret - 1e-9
        assert points[1].mean_regret < 0.15

    def test_reference_objective_consistent(self, nano_config):
        router = SyntheticRouter(nano_config, WIKITEXT_REGIME, seed=3)
        template = PlacementProblem(
            config=nano_config, topology=paper_cluster(),
            probability_matrix=router.probability_matrix(1024),
            tokens_per_step=512)
        points = profile_budget_study(router, template, budgets=[256],
                                      trials=2)
        assert points[0].reference_objective > 0
        assert points[0].worst_objective >= points[0].mean_objective - 1e-12

    def test_validation(self, nano_config):
        router = SyntheticRouter(nano_config, WIKITEXT_REGIME, seed=3)
        template = PlacementProblem(
            config=nano_config, topology=paper_cluster(),
            probability_matrix=router.probability_matrix(1024),
            tokens_per_step=512)
        with pytest.raises(ValueError):
            profile_budget_study(router, template, budgets=[])
        with pytest.raises(ValueError):
            profile_budget_study(router, template, budgets=[10], trials=0)
