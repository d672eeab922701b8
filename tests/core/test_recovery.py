"""Tests for worker-failure recovery planning."""

import numpy as np
import pytest

from repro import VelaConfig, VelaSystem
from repro.cluster import ClusterTopology, a100_80gb, paper_cluster, v100_32gb
from repro.core import FailureRecoveryPlanner
from repro.models import nano_moe
from repro.routing import SyntheticRouter, WIKITEXT_REGIME


@pytest.fixture
def config(nano_config, small_topology):
    # 8 experts, 4 workers; capacity 3 each -> any single failure leaves
    # 9 slots for 8 experts (recoverable with one slot to spare).
    return VelaConfig(model=nano_config, topology=small_topology,
                      batch_size=2, seq_len=32, capacities=[3, 3, 3, 3])


@pytest.fixture
def deployed(config):
    router = SyntheticRouter(config.model, WIKITEXT_REGIME, seed=7)
    profile = router.probability_matrix(4096)
    placement = VelaSystem(config).place(profile)
    return placement, profile


class TestRecoveryPlanning:
    def test_plan_evacuates_failed_worker(self, config, deployed):
        placement, profile = deployed
        planner = FailureRecoveryPlanner(config)
        plan = planner.plan(placement, failed_worker=2,
                            probability_matrix=profile)
        assert np.all(plan.new_placement.assignment != 2)
        loads = plan.new_placement.worker_loads(4)
        assert loads.sum() == config.model.total_experts

    def test_restore_cost_positive_when_experts_lost(self, config, deployed):
        placement, profile = deployed
        planner = FailureRecoveryPlanner(config)
        for worker in range(1, 4):
            lost = int((placement.assignment == worker).sum())
            if lost == 0:
                continue
            plan = planner.plan(placement, worker, profile)
            assert plan.experts_restored == lost
            assert plan.restore_time_s > 0

    def test_degraded_never_faster(self, config, deployed):
        placement, profile = deployed
        planner = FailureRecoveryPlanner(config)
        for plan in planner.survey(placement, profile):
            assert plan.slowdown >= -1e-9

    def test_master_failure_rejected(self, config, deployed):
        placement, profile = deployed
        planner = FailureRecoveryPlanner(config)
        with pytest.raises(ValueError, match="checkpoint-restart"):
            planner.plan(placement, config.topology.master_worker_id, profile)

    def test_unrecoverable_raises_with_guidance(self, nano_config,
                                                small_topology, deployed):
        placement, profile = deployed
        tight = VelaConfig(model=nano_config, topology=small_topology,
                           batch_size=2, seq_len=32, capacities=[2, 2, 2, 2])
        planner = FailureRecoveryPlanner(tight)
        assert not planner.can_recover(1)
        assert planner.required_standby_capacity() == 2
        with pytest.raises(ValueError, match="standby"):
            planner.plan(placement, 1, profile)

    def test_survey_skips_master_and_unrecoverable(self, config, deployed):
        placement, profile = deployed
        plans = FailureRecoveryPlanner(config).survey(placement, profile)
        failed = {p.failed_worker for p in plans}
        assert config.topology.master_worker_id not in failed
        assert len(plans) == 3

    def test_out_of_range_worker(self, config, deployed):
        placement, profile = deployed
        with pytest.raises(ValueError, match="out of range"):
            FailureRecoveryPlanner(config).plan(placement, 99, profile)


def mixed_fleet():
    """One A100 node (hosting the master) plus two V100 nodes."""
    devices = [a100_80gb(), a100_80gb()] + [v100_32gb()] * 4
    return ClusterTopology(3, 2, devices=devices)


class TestHeterogeneousCluster:
    def test_preset_shape(self):
        topo = mixed_fleet()
        assert topo.num_workers == 6
        assert topo.workers[0].device.name == "A100-80GB"
        assert topo.workers[5].device.name == "V100-32GB"

    def test_capacities_follow_memory(self):
        from repro.cluster import ExpertMemoryModel
        from repro.models import mixtral_8x7b_sim
        caps = ExpertMemoryModel().capacities(mixed_fleet(),
                                              mixtral_8x7b_sim())
        # non-master A100 can hold more experts than any V100
        assert caps[1] > max(caps[2:])

    def test_devices_length_validated(self):
        with pytest.raises(ValueError, match="one entry per worker"):
            ClusterTopology(2, 2, devices=[v100_32gb()])

    def test_placement_prefers_big_node(self):
        """With the A100 node hosting the master, VELA packs it heavily."""
        from repro.cluster import ExpertMemoryModel
        from repro.models import mixtral_8x7b_sim
        from repro.placement import LocalityAwarePlacement, PlacementProblem
        topo = mixed_fleet()
        model = mixtral_8x7b_sim()
        caps = ExpertMemoryModel().capacities(topo, model)
        router = SyntheticRouter(model, WIKITEXT_REGIME, seed=1)
        problem = PlacementProblem(config=model, topology=topo,
                                   probability_matrix=router.probability_matrix(4096),
                                   tokens_per_step=1920, capacities=caps)
        placement = LocalityAwarePlacement().place(problem)
        loads = placement.worker_loads(6)
        node0 = loads[0] + loads[1]
        assert node0 > loads[2] + loads[3]
        assert node0 > loads[4] + loads[5]
