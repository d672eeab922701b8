"""Tests for the master-worker and expert-parallel step engines."""

import numpy as np
import pytest

from repro.cluster import ExpertMemoryModel, paper_cluster
from repro.comm import CommCostModel
from repro.models import nano_moe
from repro.placement import (ExpertParallelPlacement, PlacementProblem,
                             SequentialPlacement)
from repro.routing import SyntheticRouter, WIKITEXT_REGIME
from repro.runtime import (ExpertParallelEngine, MasterWorkerEngine,
                           lora_backbone_param_count, lora_expert_param_count)


@pytest.fixture
def setup(nano_config, small_topology, small_probability):
    problem = PlacementProblem(config=nano_config, topology=small_topology,
                               probability_matrix=small_probability,
                               tokens_per_step=64)
    placement = SequentialPlacement().place(problem)
    router = SyntheticRouter(nano_config, WIKITEXT_REGIME, seed=0)
    trace = router.generate_trace(4, 64)
    return nano_config, small_topology, placement, trace


class TestLoRAParamCounts:
    def test_backbone_count(self, nano_config):
        count = lora_backbone_param_count(nano_config, rank=4)
        expected = nano_config.num_layers * 4 * 2 * nano_config.hidden_size * 4 \
            + (nano_config.vocab_size + nano_config.hidden_size) * 4
        assert count == expected

    def test_expert_count(self, nano_config):
        count = lora_expert_param_count(nano_config, rank=4)
        assert count == 3 * (nano_config.hidden_size +
                             nano_config.ffn_hidden_size) * 4


class TestMasterWorkerEngine:
    def test_step_metrics_populated(self, setup):
        cfg, topo, placement, trace = setup
        engine = MasterWorkerEngine(cfg, topo, placement, 64, seq_len=16)
        metrics = engine.run_step(trace.step_counts(0))
        assert metrics.total_time > 0
        assert metrics.comm_time > 0
        assert metrics.compute_time > 0
        assert metrics.sync_time == 0.0   # no status sync in master-worker
        assert metrics.total_bytes > 0

    def test_traffic_matches_cost_model(self, setup):
        """Engine byte accounting == analytic cost model."""
        cfg, topo, placement, trace = setup
        engine = MasterWorkerEngine(cfg, topo, placement, 64, seq_len=16)
        counts = trace.step_counts(0)
        metrics = engine.run_step(counts)
        tokens = placement.tokens_per_worker(counts, topo.num_workers)
        assert metrics.cross_node_bytes == \
            pytest.approx(CommCostModel(cfg, topo).cross_node_bytes(tokens))

    def test_run_trace_length(self, setup):
        cfg, topo, placement, trace = setup
        engine = MasterWorkerEngine(cfg, topo, placement, 64, seq_len=16)
        run = engine.run_trace(trace)
        assert run.num_steps == trace.num_steps

    def test_max_steps_limits(self, setup):
        cfg, topo, placement, trace = setup
        engine = MasterWorkerEngine(cfg, topo, placement, 64, seq_len=16)
        assert engine.run_trace(trace, max_steps=2).num_steps == 2

    def test_local_placement_has_no_cross_traffic(self, nano_config,
                                                  small_topology):
        """All experts on the master's node -> zero external traffic."""
        assignment = np.zeros((nano_config.num_layers,
                               nano_config.num_experts), dtype=int)
        from repro.placement import Placement
        placement = Placement(assignment)  # all on worker 0 (master GPU)
        router = SyntheticRouter(nano_config, WIKITEXT_REGIME, seed=0)
        trace = router.generate_trace(2, 64)
        engine = MasterWorkerEngine(nano_config, small_topology, placement,
                                    64, seq_len=16)
        run = engine.run_trace(trace)
        assert run.total_cross_node_bytes() == 0.0

    def test_validation(self, setup):
        cfg, topo, placement, _ = setup
        with pytest.raises(ValueError):
            MasterWorkerEngine(cfg, topo, placement, 0, seq_len=16)
        for seq_len in (0, -1):
            with pytest.raises(ValueError, match="seq_len must be positive"):
                MasterWorkerEngine(cfg, topo, placement, 64, seq_len=seq_len)


class TestExpertParallelEngine:
    def test_metrics_include_sync_and_allreduce(self, setup):
        cfg, topo, placement, trace = setup
        engine = ExpertParallelEngine(cfg, topo, placement, 64, seq_len=16)
        metrics = engine.run_step(trace.step_counts(0))
        assert metrics.sync_time > 0
        assert metrics.allreduce_time > 0

    def test_sync_overhead_configurable(self, setup):
        cfg, topo, placement, trace = setup
        fast = ExpertParallelEngine(cfg, topo, placement, 64, 16,
                                    sync_software_overhead_s=0.0)
        slow = ExpertParallelEngine(cfg, topo, placement, 64, 16,
                                    sync_software_overhead_s=0.05)
        t_fast = fast.run_step(trace.step_counts(0)).total_time
        t_slow = slow.run_step(trace.step_counts(0)).total_time
        expected_extra = 0.05 * 2 * cfg.num_layers
        assert t_slow - t_fast == pytest.approx(expected_extra)

    def test_cross_traffic_near_two_thirds_on_paper_cluster(self):
        """Uniform sources: ~2/3 of token bytes cross nodes (3-node cluster),
        plus the gradient all-reduce."""
        cfg = nano_moe()
        topo = paper_cluster()
        problem = PlacementProblem(config=cfg, topology=topo,
                                   tokens_per_step=600)
        placement = ExpertParallelPlacement().place(problem)
        router = SyntheticRouter(cfg, WIKITEXT_REGIME, seed=0)
        trace = router.generate_trace(2, 600)
        engine = ExpertParallelEngine(cfg, topo, placement, 600, seq_len=20)
        metrics = engine.run_step(trace.step_counts(0))
        token_bytes = cfg.token_feature_nbytes()
        total_selected = trace.step_counts(0).sum()
        expected_tokens_cross = 4 * total_selected * token_bytes * (2 / 3)
        assert metrics.cross_node_bytes > expected_tokens_cross  # + allreduce
        assert metrics.cross_node_bytes < expected_tokens_cross * 1.5

    def test_ring_cross_edges_paper_cluster(self, nano_config):
        topo = paper_cluster()
        problem = PlacementProblem(config=nano_config, topology=topo,
                                   tokens_per_step=64)
        placement = ExpertParallelPlacement().place(problem)
        engine = ExpertParallelEngine(nano_config, topo, placement, 64, 16)
        # ring 0-1|2-3|4-5-0: boundaries at 1-2, 3-4, 5-0
        assert engine._ring_cross_edges() == 3

    def test_validation(self, setup):
        cfg, topo, placement, _ = setup
        with pytest.raises(ValueError):
            ExpertParallelEngine(cfg, topo, placement, 64, 16,
                                 sync_software_overhead_s=-1)
        for seq_len in (0, -1):
            with pytest.raises(ValueError, match="seq_len must be positive"):
                ExpertParallelEngine(cfg, topo, placement, 64, seq_len)


class TestMetricsAggregation:
    def test_summary_keys(self, setup):
        cfg, topo, placement, trace = setup
        run = MasterWorkerEngine(cfg, topo, placement, 64, 16).run_trace(trace)
        summary = run.summary()
        for key in ("strategy", "steps", "avg_step_time_s",
                    "avg_external_traffic_mb_per_node"):
            assert key in summary

    def test_series_lengths(self, setup):
        cfg, topo, placement, trace = setup
        run = MasterWorkerEngine(cfg, topo, placement, 64, 16).run_trace(trace)
        assert len(run.step_times()) == trace.num_steps
        assert len(run.external_traffic_series()) == trace.num_steps

    def test_external_traffic_per_node_divides(self, setup):
        cfg, topo, placement, trace = setup
        run = MasterWorkerEngine(cfg, topo, placement, 64, 16).run_trace(trace)
        step = run.steps[0]
        assert step.external_traffic_per_node == \
            pytest.approx(step.cross_node_bytes / topo.num_nodes)
