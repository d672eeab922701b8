"""LP solver benchmarks: formulation build time and HiGHS solve time at
paper scale (N=6 workers, L=32 blocks, E=8 experts -> 1,568 variables).
"""

import numpy as np
import pytest

from repro.cluster import ExpertMemoryModel, paper_cluster
from repro.models import mixtral_8x7b_sim
from repro.placement import (LocalityAwarePlacement, PlacementProblem,
                             build_placement_lp, solve_lp_scipy)
from repro.routing import SyntheticRouter, WIKITEXT_REGIME


@pytest.fixture(scope="module")
def paper_scale_problem():
    config = mixtral_8x7b_sim()
    topology = paper_cluster()
    router = SyntheticRouter(config, WIKITEXT_REGIME, seed=1)
    return PlacementProblem(
        config=config, topology=topology,
        probability_matrix=router.probability_matrix(8192),
        tokens_per_step=1920,
        capacities=ExpertMemoryModel().capacities(topology, config))


def test_build_lp_paper_scale(benchmark, paper_scale_problem):
    lp = benchmark(build_placement_lp, paper_scale_problem)
    assert lp.num_vars == 6 * 32 * 8 + 32


def test_solve_highs_paper_scale(benchmark, paper_scale_problem):
    lp = build_placement_lp(paper_scale_problem)
    solution = benchmark(solve_lp_scipy, lp)
    x = lp.extract_assignment(solution)
    np.testing.assert_allclose(x.sum(axis=0), 1.0, atol=1e-6)


def test_full_vela_pipeline_paper_scale(benchmark, paper_scale_problem):
    """Profile-to-placement latency a user pays before fine-tuning starts."""
    solution = benchmark(LocalityAwarePlacement().solve, paper_scale_problem)
    assert solution.placement.worker_loads(6).sum() == 256
