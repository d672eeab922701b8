"""Tests for the LP formulation, rounding and the VELA strategy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.bench.workloads import paper_workload
from repro.cluster import ClusterTopology, Link, v100_32gb
from repro.models import nano_moe
from repro.placement import (ExactMILPPlacement, LocalityAwarePlacement,
                             PlacementProblem, SequentialPlacement,
                             build_placement_lp, comm_coefficients,
                             expected_step_comm_time, expected_worker_times,
                             relaxed_objective, round_relaxed_assignment,
                             solve_lp_scipy)
from tests.oracles import reference_build_placement_lp

PAPER_CELLS = [("mixtral", "wikitext"), ("mixtral", "alpaca"),
               ("gritlm", "wikitext"), ("gritlm", "alpaca")]


class TestCoefficients:
    def test_formula(self, small_problem):
        """coef[n,l,e] = (b*H / 4B_n) * P[l,e] * K (Eq. (6))."""
        coef = comm_coefficients(small_problem)
        cfg = small_problem.config
        bw = small_problem.topology.master_bandwidths()
        n, l, e = 2, 1, 3
        expected = (cfg.bits_per_feature * cfg.hidden_size / (4 * bw[n])) * \
            small_problem.probability_matrix[l, e] * \
            small_problem.tokens_per_step
        assert coef[n, l, e] == pytest.approx(expected)

    def test_requires_probability(self, nano_config, small_topology):
        problem = PlacementProblem(config=nano_config, topology=small_topology)
        with pytest.raises(ValueError):
            comm_coefficients(problem)

    def test_cross_node_costs_more(self, small_problem):
        coef = comm_coefficients(small_problem)
        # worker 0 is loopback, worker 1 intra, workers 2-3 cross-node
        assert np.all(coef[2] >= coef[1])
        assert np.all(coef[1] >= coef[0])


class TestLPStructure:
    def test_variable_counts(self, small_problem):
        lp = build_placement_lp(small_problem)
        cfg = small_problem.config
        n_x = 4 * cfg.num_layers * cfg.num_experts
        assert lp.num_assignment_vars == n_x
        assert lp.num_vars == n_x + cfg.num_layers

    def test_constraint_counts(self, small_problem):
        lp = build_placement_lp(small_problem)
        cfg = small_problem.config
        assert lp.a_eq.shape[0] == cfg.num_layers * cfg.num_experts
        assert lp.a_ub.shape[0] == 4 + 4 * cfg.num_layers
        assert len(lp.b_ub) == lp.a_ub.shape[0]

    def test_objective_only_on_lambdas(self, small_problem):
        lp = build_placement_lp(small_problem)
        assert np.all(lp.c[:lp.num_assignment_vars] == 0)
        assert np.all(lp.c[lp.num_assignment_vars:] == 1)

    def test_extract_assignment_reads_c_order(self, small_problem):
        lp = build_placement_lp(small_problem)
        solution = np.zeros(lp.num_vars)
        shape = (lp.num_workers, lp.num_layers, lp.num_experts)
        solution[np.ravel_multi_index((2, 1, 3), shape)] = 0.7
        x = lp.extract_assignment(solution)
        assert x[2, 1, 3] == 0.7 and x.sum() == 0.7


class TestBuilderOracle:
    """The index-array LP builder against the row-by-row oracle."""

    @staticmethod
    def _assert_same_arrays(new, ref):
        assert new.dtype == ref.dtype
        np.testing.assert_array_equal(new, ref)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 8), st.booleans(), st.booleans(),
           st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_reference(self, nodes, gpus, layers, experts,
                                        slack, zero_profile, seed):
        """Random topologies, bandwidths, capacities and profiles (an
        all-zero one exercises the unit cost scale) give the oracle's
        vectors, cost scale and CSR arrays, values and dtypes."""
        rng = np.random.default_rng(seed)
        config = nano_moe(num_layers=layers, num_experts=experts,
                          top_k=int(rng.integers(1, experts + 1)))
        topology = ClusterTopology(num_nodes=nodes, gpus_per_node=gpus,
                                   device=v100_32gb(),
                                   intra_link=Link(18.3e9, 10e-6),
                                   cross_link=Link(1.17e9, 150e-6))
        workers = topology.num_workers
        caps = np.bincount(rng.integers(0, workers, size=layers * experts),
                           minlength=workers)
        if slack:
            caps += rng.integers(0, 4, size=workers)
        p = rng.dirichlet(np.ones(experts), size=layers) * config.top_k
        problem = PlacementProblem(
            config=config, topology=topology,
            probability_matrix=np.zeros_like(p) if zero_profile else p,
            tokens_per_step=int(rng.integers(1, 8192)),
            capacities=caps.tolist(),
            bandwidth_override=rng.uniform(1e8, 1e11, size=workers).tolist())
        new = build_placement_lp(problem)
        ref = reference_build_placement_lp(problem)
        for name in ("c", "b_ub", "b_eq", "lower", "upper"):
            self._assert_same_arrays(getattr(new, name), getattr(ref, name))
        for name in ("a_ub", "a_eq"):
            new_m, ref_m = getattr(new, name), getattr(ref, name)
            assert new_m.shape == ref_m.shape
            for part in ("data", "indices", "indptr"):
                self._assert_same_arrays(getattr(new_m, part),
                                         getattr(ref_m, part))

    @pytest.mark.parametrize("model,dataset", PAPER_CELLS)
    def test_paper_cell_solution_bitwise(self, model, dataset):
        """The (n, 2) bounds array gives HiGHS the model the per-variable
        tuple list gave it: the same ``x``, bit for bit."""
        workload = paper_workload(model, dataset, seed=1)
        config = workload.config
        lp = build_placement_lp(PlacementProblem(
            config=config.model, topology=config.topology,
            probability_matrix=workload.probability_matrix,
            tokens_per_step=config.tokens_per_step,
            capacities=config.worker_capacities()))
        tuple_bounds = list(zip(lp.lower, [None if np.isinf(u) else u
                                           for u in lp.upper]))
        old = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq,
                      b_eq=lp.b_eq, bounds=tuple_bounds, method="highs")
        assert old.success
        assert solve_lp_scipy(lp).tobytes() == old.x.tobytes()


class TestSolveAndRound:
    def test_relaxed_solution_feasible(self, small_problem):
        lp = build_placement_lp(small_problem)
        solution = solve_lp_scipy(lp)
        x = lp.extract_assignment(solution)
        np.testing.assert_allclose(x.sum(axis=0), 1.0, atol=1e-6)
        assert np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9)

    def test_rounding_produces_valid_placement(self, small_problem):
        lp = build_placement_lp(small_problem)
        x = lp.extract_assignment(solve_lp_scipy(lp))
        placement = round_relaxed_assignment(
            x, small_problem.effective_capacities())
        assert placement.worker_loads(4).sum() == \
            small_problem.config.total_experts

    def test_rounding_respects_capacity(self):
        # Relaxed solution that wants everything on worker 0.
        relaxed = np.zeros((2, 2, 3))
        relaxed[0] = 0.9
        relaxed[1] = 0.1
        placement = round_relaxed_assignment(relaxed, capacities=[4, 2])
        loads = placement.worker_loads(2)
        assert loads[0] == 4 and loads[1] == 2

    def test_rounding_keeps_strong_affinities(self):
        relaxed = np.zeros((2, 1, 2))
        relaxed[0, 0, 0] = 0.95
        relaxed[1, 0, 0] = 0.05
        relaxed[0, 0, 1] = 0.2
        relaxed[1, 0, 1] = 0.8
        placement = round_relaxed_assignment(relaxed, capacities=[2, 2])
        assert placement.worker_of(0, 0) == 0
        assert placement.worker_of(0, 1) == 1

    def test_rounding_handles_ties_at_half(self):
        relaxed = np.full((2, 1, 1), 0.5)  # neither side above 0.5
        placement = round_relaxed_assignment(relaxed, capacities=[1, 1])
        assert placement.worker_of(0, 0) in (0, 1)

    def test_rounding_insufficient_capacity_raises(self):
        relaxed = np.ones((1, 2, 2))
        with pytest.raises(ValueError):
            round_relaxed_assignment(relaxed, capacities=[3])


class TestLocalityAwarePlacement:
    def test_solution_diagnostics(self, small_problem):
        solution = LocalityAwarePlacement().solve(small_problem)
        assert solution.lp_objective <= solution.rounded_objective + 1e-9
        assert solution.integrality_gap >= -1e-9
        assert solution.relaxed_assignment.shape[0] == 4

    def test_beats_oblivious_baselines(self, small_problem):
        vela_time = expected_step_comm_time(
            LocalityAwarePlacement().place(small_problem), small_problem)
        seq_time = expected_step_comm_time(
            SequentialPlacement().place(small_problem), small_problem)
        assert vela_time <= seq_time + 1e-12

    def test_requires_probability_matrix(self, nano_config, small_topology):
        problem = PlacementProblem(config=nano_config, topology=small_topology)
        with pytest.raises(ValueError):
            LocalityAwarePlacement().place(problem)

    def test_respects_capacities(self, nano_config, small_topology,
                                 small_probability):
        caps = [2, 2, 2, 2]
        problem = PlacementProblem(config=nano_config, topology=small_topology,
                                   probability_matrix=small_probability,
                                   capacities=caps)
        placement = LocalityAwarePlacement().place(problem)
        assert np.all(placement.worker_loads(4) <= caps)

    def test_expected_worker_times_shape(self, small_problem):
        placement = LocalityAwarePlacement().place(small_problem)
        times = expected_worker_times(placement, small_problem)
        assert times.shape == (4, small_problem.config.num_layers)

    def test_objective_matches_eq7(self, small_problem):
        """expected_step_comm_time == sum_l max_n E(T_nl), by hand."""
        placement = SequentialPlacement().place(small_problem)
        times = expected_worker_times(placement, small_problem)
        assert expected_step_comm_time(placement, small_problem) == \
            pytest.approx(times.max(axis=0).sum())


class TestExactMILP:
    def test_milp_never_worse_than_rounded_lp(self, small_problem):
        """The LP bound <= MILP optimum <= rounded-LP objective."""
        vela = LocalityAwarePlacement().solve(small_problem)
        milp = ExactMILPPlacement(time_limit=30).place(small_problem)
        milp_obj = expected_step_comm_time(milp, small_problem)
        assert milp_obj <= vela.rounded_objective + 1e-9
        assert vela.lp_objective <= milp_obj + 1e-6

    def test_milp_small_gap_on_small_instance(self, small_problem):
        """Rounding loses little on small instances."""
        vela = LocalityAwarePlacement().solve(small_problem)
        milp = ExactMILPPlacement(time_limit=30).place(small_problem)
        milp_obj = expected_step_comm_time(milp, small_problem)
        assert vela.rounded_objective <= milp_obj * 1.5 + 1e-9

    def test_milp_validation(self):
        with pytest.raises(ValueError):
            ExactMILPPlacement(time_limit=0)
