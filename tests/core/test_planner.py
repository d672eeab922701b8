"""Tests for the cluster capacity planner."""

import numpy as np
import pytest

from repro.cluster import DeviceSpec, ExpertMemoryModel
from repro.core.planner import (DEFAULT_OPTIONS, ClusterOption,
                                ClusterPlanner, PlanResult)
from repro.models import mixtral_8x7b_sim, nano_moe
from repro.routing import SyntheticRouter, WIKITEXT_REGIME


@pytest.fixture(scope="module")
def workload():
    config = mixtral_8x7b_sim()
    router = SyntheticRouter(config, WIKITEXT_REGIME, seed=1)
    return config, router.probability_matrix(4096), \
        router.generate_trace(3, 1920)


class TestClusterOption:
    def test_derived_fields(self):
        option = ClusterOption(3, 2)
        assert option.num_gpus == 6
        assert "3x2" in option.label
        assert option.topology().num_workers == 6


class TestPlanner:
    def test_infeasible_small_cluster_flagged(self, workload):
        config, profile, trace = workload
        planner = ClusterPlanner(config)
        result = planner.evaluate(ClusterOption(1, 2), profile, trace)
        assert not result.feasible
        assert "capacity" in result.reason

    def test_paper_cluster_feasible(self, workload):
        config, profile, trace = workload
        planner = ClusterPlanner(config)
        result = planner.evaluate(ClusterOption(3, 2), profile, trace)
        assert result.feasible
        assert result.avg_step_time_s > 0
        assert result.external_traffic_per_node > 0

    def test_survey_sorted_by_cost(self, workload):
        config, profile, trace = workload
        planner = ClusterPlanner(config)
        options = (ClusterOption(3, 2), ClusterOption(1, 4),
                   ClusterOption(2, 4))
        results = planner.survey(profile, trace, options=options)
        gpus = [r.gpus for r in results]
        assert gpus == sorted(gpus)

    def test_recommend_meets_target(self, workload):
        config, profile, trace = workload
        planner = ClusterPlanner(config)
        options = (ClusterOption(3, 2), ClusterOption(2, 4))
        generous = planner.recommend(profile, trace,
                                     target_step_time_s=60.0,
                                     options=options)
        assert generous is not None
        assert generous.feasible
        # cheapest-first: the 6-GPU option wins when both qualify
        assert generous.gpus == 6

    def test_recommend_none_when_impossible(self, workload):
        config, profile, trace = workload
        planner = ClusterPlanner(config)
        result = planner.recommend(profile, trace,
                                   target_step_time_s=1e-9,
                                   options=(ClusterOption(3, 2),))
        assert result is None

    def test_recommend_validates_target(self, workload):
        config, profile, trace = workload
        with pytest.raises(ValueError):
            ClusterPlanner(config).recommend(profile, trace,
                                             target_step_time_s=0)

    def test_zero_step_replay_rejected(self, workload):
        """No step to replay is an error, not an empty run whose NaN step
        time meets no target."""
        config, profile, trace = workload
        with pytest.raises(ValueError, match="max_steps"):
            ClusterPlanner(config).recommend(profile, trace,
                                             target_step_time_s=1e3,
                                             options=(ClusterOption(3, 2),),
                                             max_steps=0)

    def test_nano_fits_anywhere(self):
        config = nano_moe()
        router = SyntheticRouter(config, WIKITEXT_REGIME, seed=0)
        planner = ClusterPlanner(config, seq_len=16)
        trace = router.generate_trace(2, 64)
        result = planner.evaluate(ClusterOption(1, 4),
                                  router.probability_matrix(1024), trace)
        assert result.feasible
