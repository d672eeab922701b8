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

    @pytest.mark.parametrize("max_rounds", [2.5, "3", True, np.float64(3)])
    def test_non_integer_max_rounds_rejected(self, max_rounds):
        """Non-integers and bools fail at construction, before a
        RefinedLocalityPlacement would solve its LP."""
        with pytest.raises(ValueError, match="max_rounds"):
            LocalSearchRefiner(max_rounds=max_rounds)
        with pytest.raises(ValueError, match="max_rounds"):
            RefinedLocalityPlacement(max_rounds=max_rounds)

    def test_numpy_integer_max_rounds_accepted(self, small_problem):
        base = SequentialPlacement().place(small_problem)
        report = LocalSearchRefiner(max_rounds=np.int64(1)).refine(
            base, small_problem)
        assert len(report.actions) <= 1
        assert RefinedLocalityPlacement(
            max_rounds=np.int64(3)).refiner.max_rounds == 3

    def test_close_to_milp_on_small_instance(self, small_problem):
        """Refined rounding should land within 30 % of the exact optimum."""
        refined = RefinedLocalityPlacement().solve(small_problem)
        milp = ExactMILPPlacement(time_limit=30).place(small_problem)
        milp_obj = expected_step_comm_time(milp, small_problem)
        assert refined.refined_objective <= milp_obj * 1.3 + 1e-12

    def test_strategy_name_tagged(self, small_problem):
        placement = RefinedLocalityPlacement().place(small_problem)
        assert placement.name.endswith("+ls")


class TestStartValidation:
    """A start that does not fit the problem raises before any work:
    nano_moe (2 layers x 4 experts) on the paper's 6 workers."""

    @pytest.fixture
    def problem(self, small_probability, paper_topology):
        return PlacementProblem(config=nano_moe(), topology=paper_topology,
                                probability_matrix=small_probability,
                                tokens_per_step=64)

    @pytest.mark.parametrize("layers", [1, 3])
    def test_wrong_shape_rejected(self, problem, layers):
        start = Placement(np.zeros((layers, 4), dtype=np.int64))
        with pytest.raises(ValueError, match=r"\(2, 4\)"):
            LocalSearchRefiner().refine(start, problem)

    def test_unknown_worker_rejected(self, problem):
        start = Placement(np.array([[0, 1, 2, 3], [4, 5, 6, 0]]))
        with pytest.raises(ValueError, match="6 workers"):
            LocalSearchRefiner().refine(start, problem)

    def test_refine_from_window_checks_start(self, problem):
        start = Placement(np.zeros((1, 4), dtype=np.int64))
        with pytest.raises(ValueError, match=r"\(2, 4\)"):
            LocalSearchRefiner().refine_from_window(
                start, problem.config, problem.topology,
                np.ones((2, 4)), tokens_per_step=64)


class TestModeEquivalence:
    """The incremental search against the full-scan oracle."""

    @staticmethod
    def _assert_same_refinement(start, problem):
        """Both searches agree; returns the oracle's report."""
        ref = ScanLocalSearchRefiner().refine(start, problem)
        vec = LocalSearchRefiner().refine(start, problem)
        assert vec.actions == ref.actions
        np.testing.assert_array_equal(vec.placement.assignment,
                                      ref.placement.assignment)
        assert vec.initial_objective == ref.initial_objective
        assert vec.refined_objective == ref.refined_objective
        assert vec.moves_applied == ref.moves_applied
        assert vec.swaps_applied == ref.swaps_applied
        return ref

    @staticmethod
    def _three_worker_problem(probability, capacities):
        """2 layers x 2 experts on three workers.  nano_moe's b*H/4 is 64,
        so these bandwidths give per-token times 1, 2 and 4 and, with
        K = 1, ``coef[n, l, e] = (1, 2, 4)[n] * P[l, e]``."""
        topology = ClusterTopology(num_nodes=1, gpus_per_node=3,
                                   device=v100_32gb(),
                                   intra_link=Link(18.3e9, 10e-6),
                                   cross_link=Link(1.17e9, 150e-6))
        return PlacementProblem(config=nano_moe(num_layers=2, num_experts=2),
                                topology=topology,
                                probability_matrix=np.array(probability),
                                tokens_per_step=1, capacities=capacities,
                                bandwidth_override=[64.0, 32.0, 16.0])

    def test_move_taking_last_free_seat(self):
        """Both layers' best move goes to worker 0, which has one free
        seat.  Layer 0 takes it (delta 12 against 10), so layer 1 must be
        re-scored although the action did not touch it: its next best
        moves the expert to worker 1 instead."""
        problem = self._three_worker_problem([[3.0, 1.0], [2.5, 1.0]],
                                             capacities=[1, 2, 5])
        ref = self._assert_same_refinement(Placement(np.full((2, 2), 2)),
                                           problem)
        assert ref.actions == [("move", 0, 0, 2, 0), ("move", 1, 0, 2, 1),
                               ("move", 0, 1, 2, 1)]

    def test_move_freeing_seat_on_full_worker(self):
        """Worker 0 starts full.  Layer 0 moves an expert off it (delta
        2.4), which opens worker 0 to layer 1: its best is no longer the
        move to worker 2 (delta 2) but the one to worker 0 (delta 4.2)."""
        problem = self._three_worker_problem([[5.0, 2.4], [2.2, 1.0]],
                                             capacities=[2, 4, 4])
        ref = self._assert_same_refinement(
            Placement(np.array([[0, 0], [1, 1]])), problem)
        assert ref.actions == [("move", 0, 1, 0, 1), ("move", 1, 0, 1, 0)]

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
