"""Tests for the expert-replication extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterTopology, Link, paper_cluster
from repro.models import nano_moe
from repro.placement import (FrozenPlacementStrategy, LocalityAwarePlacement,
                             Placement, PlacementProblem,
                             ReplicatedPlacement, ReplicationStrategy,
                             expected_step_comm_time,
                             expected_step_comm_time_replicated)
from repro.placement.lp import comm_coefficients
from tests.oracles import (ReferenceReplicationStrategy,
                           reference_step_comm_time_replicated)


@pytest.fixture
def primary(nano_config):
    # 2 layers x 4 experts over 4 workers, striped.
    return Placement(np.array([[0, 1, 2, 3], [0, 1, 2, 3]]), name="seq")


@pytest.fixture
def bandwidths(small_topology):
    return small_topology.master_bandwidths()


class TestReplicatedPlacement:
    def test_no_replicas_equals_primary(self, primary, bandwidths):
        rp = ReplicatedPlacement(primary, {}, bandwidths)
        assert rp.num_replicas == 0
        assert rp.holders(0, 1) == [1]

    def test_primary_deduplicated_from_replicas(self, primary, bandwidths):
        rp = ReplicatedPlacement(primary, {(0, 1): [1, 3]}, bandwidths)
        assert rp.holders(0, 1) == [1, 3]
        assert rp.num_replicas == 1

    def test_fractions_sum_to_one(self, primary, bandwidths):
        rp = ReplicatedPlacement(primary, {(0, 0): [2, 3]}, bandwidths)
        fractions = rp.fractions(0, 0)
        assert fractions.shape == (3,)
        assert fractions.sum() == pytest.approx(1.0)

    def test_fractions_prefer_fast_links(self, primary, bandwidths):
        # worker 0 is the master's loopback (fastest), worker 3 cross-node
        rp = ReplicatedPlacement(primary, {(0, 3): [0]}, bandwidths)
        holders = rp.holders(0, 3)
        fractions = rp.fractions(0, 3)
        frac = dict(zip(holders, fractions))
        assert frac[0] > frac[3]

    def test_tokens_conserved_under_split(self, primary, bandwidths):
        rp = ReplicatedPlacement(primary, {(0, 0): [1]}, bandwidths)
        counts = np.array([[40, 30, 20, 10], [10, 20, 30, 40]])
        tokens = rp.tokens_per_worker(counts, 4)
        np.testing.assert_allclose(tokens.sum(axis=0),
                                   counts.sum(axis=1), atol=1e-9)

    def test_worker_loads_include_replicas(self, primary, bandwidths):
        rp = ReplicatedPlacement(primary, {(0, 0): [1], (1, 2): [3]},
                                 bandwidths)
        loads = rp.worker_loads(4)
        np.testing.assert_array_equal(loads, [2, 3, 2, 3])

    def test_replica_sync_bytes(self, primary, bandwidths, nano_config):
        rp = ReplicatedPlacement(primary, {(0, 0): [1]}, bandwidths)
        expected = 3 * (nano_config.hidden_size +
                        nano_config.ffn_hidden_size) * 8 * 4.0
        assert rp.replica_sync_bytes(nano_config) == pytest.approx(expected)


class TestObjective:
    def test_matches_unreplicated_objective(self, small_problem):
        placement = LocalityAwarePlacement().place(small_problem)
        rp = ReplicatedPlacement(placement, {},
                                 small_problem.topology.master_bandwidths())
        assert expected_step_comm_time_replicated(rp, small_problem) == \
            pytest.approx(expected_step_comm_time(placement, small_problem))

    def test_replicating_bottleneck_expert_helps(self, nano_config,
                                                 small_topology):
        """Splitting a hot cross-node expert onto a fast worker must reduce
        the Eq. (7) objective."""
        p = np.full((nano_config.num_layers, nano_config.num_experts), 0.1)
        p[:, 3] = 2.0 - 0.1 * (nano_config.num_experts - 1)
        problem = PlacementProblem(config=nano_config, topology=small_topology,
                                   probability_matrix=p, tokens_per_step=1000)
        primary = Placement(np.array([[0, 1, 2, 3], [0, 1, 2, 3]]))
        bandwidths = small_topology.master_bandwidths()
        base = expected_step_comm_time_replicated(
            ReplicatedPlacement(primary, {}, bandwidths), problem)
        split = expected_step_comm_time_replicated(
            ReplicatedPlacement(primary, {(0, 3): [0], (1, 3): [0]},
                                bandwidths), problem)
        assert split < base


class TestReplicationStrategy:
    def test_respects_capacity(self, nano_config, small_topology,
                               small_probability):
        problem = PlacementProblem(config=nano_config, topology=small_topology,
                                   probability_matrix=small_probability,
                                   tokens_per_step=512,
                                   capacities=[3, 3, 3, 3])
        report = ReplicationStrategy(max_replicas=10).solve(problem)
        loads = report.placement.worker_loads(4)
        assert np.all(loads <= [3, 3, 3, 3])

    def test_never_worse_than_base(self, small_problem):
        report = ReplicationStrategy(max_replicas=8).solve(small_problem)
        assert report.replicated_objective <= report.base_objective + 1e-12
        assert report.improvement >= -1e-12

    def test_zero_budget_adds_nothing(self, small_problem):
        report = ReplicationStrategy(max_replicas=0).solve(small_problem)
        assert report.replicas_added == 0

    def test_no_spare_capacity_adds_nothing(self, nano_config, small_topology,
                                            small_probability):
        problem = PlacementProblem(config=nano_config, topology=small_topology,
                                   probability_matrix=small_probability,
                                   tokens_per_step=512,
                                   capacities=[2, 2, 2, 2])  # exact fit
        report = ReplicationStrategy(max_replicas=10).solve(problem)
        assert report.replicas_added == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationStrategy(max_replicas=-1)


class TestFrozenPlacementStrategy:
    def test_returns_the_frozen_placement(self, primary, small_problem):
        assert FrozenPlacementStrategy(primary).place(small_problem) \
            is primary

    def test_rejects_mismatched_dimensions(self, small_problem):
        wrong = Placement(np.zeros((1, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            FrozenPlacementStrategy(wrong).place(small_problem)

    def test_replication_on_frozen_base_keeps_primary(self, nano_config,
                                                      small_topology,
                                                      small_probability):
        primary = Placement(np.array([[0, 1, 2, 3], [0, 1, 2, 3]]))
        problem = PlacementProblem(config=nano_config,
                                   topology=small_topology,
                                   probability_matrix=small_probability,
                                   tokens_per_step=512,
                                   capacities=[4, 2, 2, 2])
        report = ReplicationStrategy(base=FrozenPlacementStrategy(primary),
                                     max_replicas=2).solve(problem)
        np.testing.assert_array_equal(
            report.placement.primary.assignment, primary.assignment)

    def test_replicated_placement_exposes_primary_assignment(
            self, primary, bandwidths):
        rp = ReplicatedPlacement(primary, {(0, 0): [1]}, bandwidths)
        np.testing.assert_array_equal(rp.assignment, primary.assignment)


TOPOLOGIES = {
    "single": ClusterTopology(num_nodes=1, gpus_per_node=1),
    "small": ClusterTopology(num_nodes=2, gpus_per_node=2,
                             intra_link=Link(18.3e9, 10e-6),
                             cross_link=Link(1.17e9, 150e-6)),
    "paper": paper_cluster(),
}


@st.composite
def replication_cases(draw):
    """A problem at 6, 8 or 9 experts on 1–12 layers, a random primary and
    random replicas (some holders repeated or equal to the primary), and
    capacities with spare room.  Half the profiles take few distinct
    values, so costs tie."""
    layers = draw(st.integers(1, 12))
    experts = draw(st.sampled_from([6, 8, 9]))
    topology = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]
    workers = topology.num_workers
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    config = nano_moe().with_overrides(num_layers=layers,
                                       num_experts=experts)
    if draw(st.booleans()):
        profile = rng.integers(0, 3, size=(layers, experts)) + 0.0
    else:
        profile = rng.random((layers, experts)) ** 3
        profile[rng.random((layers, experts)) < 0.2] = 0.0
    profile[:, 0] += 1.0  # no all-zero layer
    profile *= config.top_k / profile.sum(axis=1, keepdims=True)
    primary = Placement(rng.integers(0, workers, size=(layers, experts)))
    replicas = {}
    for _ in range(draw(st.integers(0, 5))):
        key = (int(rng.integers(layers)), int(rng.integers(experts)))
        replicas.setdefault(key, []).extend(
            rng.integers(0, workers, size=rng.integers(1, 3)).tolist())
    placement = ReplicatedPlacement(primary, replicas,
                                    topology.master_bandwidths())
    loads = placement.worker_loads(workers)
    capacities = (loads + rng.integers(0, 3, size=workers)).tolist()
    problem = PlacementProblem(config=config, topology=topology,
                               probability_matrix=profile,
                               tokens_per_step=int(rng.integers(1, 5000)),
                               capacities=capacities)
    return problem, placement


class TestShareTensorProperty:
    """The share-tensor pricing is bitwise the per-holder loops."""

    @settings(max_examples=80, deadline=None)
    @given(case=replication_cases())
    def test_objective_and_loads_bitwise_equal_loops(self, case):
        problem, placement = case
        assert expected_step_comm_time_replicated(placement, problem) == \
            reference_step_comm_time_replicated(placement, problem)
        workers = problem.num_workers
        counts = problem.probability_matrix * problem.tokens_per_step
        expected = np.zeros((workers, placement.num_layers))
        for layer in range(placement.num_layers):
            for expert in range(placement.num_experts):
                for worker, fraction in zip(placement.holders(layer, expert),
                                            placement.fractions(layer,
                                                                expert)):
                    expected[worker, layer] += counts[layer, expert] * \
                        fraction
        np.testing.assert_array_equal(
            placement.tokens_per_worker(counts, workers), expected)

    @settings(max_examples=80, deadline=None)
    @given(case=replication_cases(), budget=st.integers(0, 6))
    def test_moves_and_replicas_bitwise_equal_loops(self, case, budget):
        problem, placement = case
        coef = comm_coefficients(problem).transpose(2, 0, 1)
        capacities = np.asarray(problem.effective_capacities())
        assert ReplicationStrategy()._best_move(
            placement, coef, capacities) == \
            ReferenceReplicationStrategy()._best_move(
                placement, coef, capacities)
        base = FrozenPlacementStrategy(placement.primary)
        fast = ReplicationStrategy(base=base,
                                   max_replicas=budget).solve(problem)
        slow = ReferenceReplicationStrategy(
            base=base, max_replicas=budget).solve(problem)
        assert fast.base_objective == slow.base_objective == \
            reference_step_comm_time_replicated(
                ReplicatedPlacement(placement.primary, {},
                                    problem.topology.master_bandwidths()),
                problem)
        assert fast.replicated_objective == slow.replicated_objective
        assert fast.placement.replicas == slow.placement.replicas
