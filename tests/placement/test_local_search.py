"""Tests for local-search placement refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterTopology, Link, v100_32gb
from repro.models import nano_moe
from repro.placement import (ExactMILPPlacement, LocalityAwarePlacement,
                             LocalSearchRefiner, Placement, PlacementProblem,
                             RefinedLocalityPlacement, SequentialPlacement,
                             expected_step_comm_time)
from tests.oracles import ScanLocalSearchRefiner


class TestRefiner:
    def test_never_worse(self, small_problem):
        base = LocalityAwarePlacement().place(small_problem)
        report = LocalSearchRefiner().refine(base, small_problem)
        assert report.refined_objective <= report.initial_objective + 1e-15
        assert report.improvement >= -1e-12

    def test_objective_bookkeeping_consistent(self, small_problem):
        """Incrementally tracked objective == recomputed Eq. (7)."""
        base = SequentialPlacement().place(small_problem)
        report = LocalSearchRefiner().refine(base, small_problem)
        recomputed = expected_step_comm_time(report.placement, small_problem)
        assert report.refined_objective == pytest.approx(recomputed, rel=1e-9)

    def test_respects_capacities(self, nano_config, small_topology,
                                 small_probability):
        problem = PlacementProblem(config=nano_config, topology=small_topology,
                                   probability_matrix=small_probability,
                                   tokens_per_step=512,
                                   capacities=[2, 2, 2, 2])
        report = RefinedLocalityPlacement().solve(problem)
        loads = report.placement.worker_loads(4)
        assert np.all(loads <= [2, 2, 2, 2])
        assert loads.sum() == nano_config.total_experts

    def test_improves_bad_start(self, small_problem):
        """Starting from a deliberately bad placement, the search recovers
        most of the gap to the LP-based strategy."""
        bad = SequentialPlacement().place(small_problem)
        report = LocalSearchRefiner().refine(bad, small_problem)
        vela = expected_step_comm_time(
            LocalityAwarePlacement().place(small_problem), small_problem)
        assert report.refined_objective <= \
            expected_step_comm_time(bad, small_problem)
        assert report.refined_objective <= vela * 1.5

    def test_zero_rounds_is_identity(self, small_problem):
        base = SequentialPlacement().place(small_problem)
        report = LocalSearchRefiner(max_rounds=0).refine(base, small_problem)
        np.testing.assert_array_equal(report.placement.assignment,
                                      base.assignment)
        assert report.moves_applied == report.swaps_applied == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalSearchRefiner(max_rounds=-1)

    def test_close_to_milp_on_small_instance(self, small_problem):
        """Refined rounding should land within 30 % of the exact optimum."""
        refined = RefinedLocalityPlacement().solve(small_problem)
        milp = ExactMILPPlacement(time_limit=30).place(small_problem)
        milp_obj = expected_step_comm_time(milp, small_problem)
        assert refined.refined_objective <= milp_obj * 1.3 + 1e-12

    def test_strategy_name_tagged(self, small_problem):
        placement = RefinedLocalityPlacement().place(small_problem)
        assert placement.name.endswith("+ls")


class TestModeEquivalence:
    """The delta-grid search against the per-candidate scan oracle."""

    @staticmethod
    def _assert_same_refinement(start, problem):
        ref = ScanLocalSearchRefiner().refine(start, problem)
        vec = LocalSearchRefiner().refine(start, problem)
        assert vec.actions == ref.actions
        np.testing.assert_array_equal(vec.placement.assignment,
                                      ref.placement.assignment)
        assert vec.refined_objective == ref.refined_objective
        assert vec.moves_applied == ref.moves_applied
        assert vec.swaps_applied == ref.swaps_applied
        return vec

    def test_identical_on_small_problem(self, small_problem):
        self._assert_same_refinement(
            SequentialPlacement().place(small_problem), small_problem)

    def test_identical_with_tight_capacities(self, nano_config,
                                             small_topology,
                                             small_probability):
        """Exactly-tight capacities forbid every move, so the search must
        swap — both must pick the identical swap sequence."""
        problem = PlacementProblem(config=nano_config,
                                   topology=small_topology,
                                   probability_matrix=small_probability,
                                   tokens_per_step=512,
                                   capacities=[2, 2, 2, 2])
        start = SequentialPlacement().place(problem)
        report = self._assert_same_refinement(start, problem)
        assert report.swaps_applied > 0
        assert report.moves_applied == 0

    @given(st.integers(1, 4), st.integers(2, 8), st.integers(1, 2),
           st.integers(1, 3), st.booleans(), st.booleans(),
           st.integers(16, 4096), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_scan_oracle(self, layers, experts, nodes,
                                          gpus, tight, rounded, tokens,
                                          seed):
        """Random problems — topology, tight or slack capacities, rounded
        (tie-heavy) or raw locality profiles, a random feasible start —
        give the oracle's action sequence, objective and assignment."""
        rng = np.random.default_rng(seed)
        config = nano_moe(num_layers=layers, num_experts=experts,
                          top_k=int(rng.integers(1, experts + 1)))
        topology = ClusterTopology(num_nodes=nodes, gpus_per_node=gpus,
                                   device=v100_32gb(),
                                   intra_link=Link(18.3e9, 10e-6),
                                   cross_link=Link(1.17e9, 150e-6))
        workers = topology.num_workers
        total = layers * experts
        caps = np.bincount(rng.integers(0, workers, size=total),
                           minlength=workers)
        if not tight:
            caps += rng.integers(0, 3, size=workers)
        p = rng.dirichlet(np.ones(experts), size=layers) * config.top_k
        if rounded:
            p = np.round(p, 1)
        problem = PlacementProblem(config=config, topology=topology,
                                   probability_matrix=p,
                                   tokens_per_step=tokens,
                                   capacities=caps.tolist())
        seats = rng.permutation(np.repeat(np.arange(workers), caps))[:total]
        self._assert_same_refinement(
            Placement(seats.reshape(layers, experts)), problem)


class TestMovesWithSlack:
    def test_moves_applied_when_capacity_allows(self, nano_config,
                                                small_topology):
        """With slack capacity and a skewed start, the search uses moves
        (re-seating), not only swaps."""
        import numpy as np
        from repro.placement import LocalSearchRefiner, Placement

        p = np.zeros((nano_config.num_layers, nano_config.num_experts))
        p[:, 0] = 1.5
        p[:, 1:] = 0.5 / (nano_config.num_experts - 1)
        problem = PlacementProblem(config=nano_config,
                                   topology=small_topology,
                                   probability_matrix=p,
                                   tokens_per_step=1000,
                                   capacities=[8, 8, 8, 8])
        # everything piled on the slowest (cross-node) worker
        start = Placement(np.full((nano_config.num_layers,
                                   nano_config.num_experts), 3))
        report = LocalSearchRefiner().refine(start, problem)
        assert report.moves_applied > 0
        assert report.improvement > 0.3
