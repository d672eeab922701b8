"""Tests for the event-driven master-worker executor."""

import numpy as np
import pytest

from repro.placement import PlacementProblem, SequentialPlacement
from repro.routing import SyntheticRouter, WIKITEXT_REGIME
from repro.runtime import (EventDrivenMasterWorker, MasterWorkerEngine,
                           contention_penalty)
from repro.telemetry import Telemetry


@pytest.fixture
def setup(nano_config, small_topology, small_probability):
    problem = PlacementProblem(config=nano_config, topology=small_topology,
                               probability_matrix=small_probability,
                               tokens_per_step=64)
    placement = SequentialPlacement().place(problem)
    trace = SyntheticRouter(nano_config, WIKITEXT_REGIME,
                            seed=0).generate_trace(3, 64)
    return nano_config, small_topology, placement, trace


class TestDESValidation:
    def test_matches_closed_form_without_contention(self, setup):
        """The key cross-check: DES == fork-join formula, exactly."""
        cfg, topo, placement, trace = setup
        closed = MasterWorkerEngine(cfg, topo, placement, 64, seq_len=16)
        des = EventDrivenMasterWorker(cfg, topo, placement, 64, seq_len=16,
                                      nic_contention=False)
        for step in range(trace.num_steps):
            counts = trace.step_counts(step)
            t_closed = closed.run_step(counts).total_time
            t_des = des.run_step(counts).total_time
            assert t_des == pytest.approx(t_closed, rel=1e-12)

    def test_layer_finish_times_monotone(self, setup):
        cfg, topo, placement, trace = setup
        des = EventDrivenMasterWorker(cfg, topo, placement, 64, seq_len=16)
        result = des.run_step(trace.step_counts(0))
        assert result.num_layer_passes == 2 * cfg.num_layers
        assert np.all(np.diff(result.layer_finish_times) >= 0)

    def test_validation(self, setup):
        cfg, topo, placement, _ = setup
        with pytest.raises(ValueError):
            EventDrivenMasterWorker(cfg, topo, placement, 0, seq_len=16)
        for seq_len in (0, -1):
            with pytest.raises(ValueError, match="seq_len must be positive"):
                EventDrivenMasterWorker(cfg, topo, placement, 64,
                                        seq_len=seq_len)


class TestTraceReplay:
    def test_max_steps(self, setup):
        cfg, topo, placement, trace = setup
        des = EventDrivenMasterWorker(cfg, topo, placement, 64, seq_len=16,
                                      nic_contention=False)
        assert len(des.run_trace(trace, max_steps=2)) == 2

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_negative_max_steps_rejected(self, setup, telemetry):
        """A negative or zero ``max_steps`` is rejected before any work."""
        cfg, topo, placement, trace = setup
        tel = Telemetry() if telemetry else None
        des = EventDrivenMasterWorker(cfg, topo, placement, 64, seq_len=16,
                                      telemetry=tel)
        for max_steps in (-1, 0):
            with pytest.raises(ValueError, match="max_steps"):
                des.run_trace(trace, max_steps=max_steps)
        if tel is not None:
            assert not tel.spans


class TestContention:
    def test_contention_never_faster(self, setup):
        cfg, topo, placement, trace = setup
        counts = trace.step_counts(0)
        ideal = EventDrivenMasterWorker(cfg, topo, placement, 64, 16,
                                        nic_contention=False)
        contended = EventDrivenMasterWorker(cfg, topo, placement, 64, 16,
                                            nic_contention=True)
        assert contended.run_step(counts).total_time >= \
            ideal.run_step(counts).total_time - 1e-12

    def test_contention_penalty_positive_with_multiple_cross_workers(self, setup):
        """Two cross-node workers share one NIC -> measurable penalty."""
        cfg, topo, placement, trace = setup
        penalty = contention_penalty(cfg, topo, placement,
                                     trace.step_counts(0), 64, 16)
        assert penalty > 0.0

    def test_egress_busy_tracked(self, setup):
        cfg, topo, placement, trace = setup
        des = EventDrivenMasterWorker(cfg, topo, placement, 64, 16,
                                      nic_contention=True)
        result = des.run_step(trace.step_counts(0))
        assert result.master_egress_busy["nic"] > 0

    def test_single_cross_worker_no_penalty(self, nano_config,
                                            small_probability):
        """With all experts on the master's node, contention is irrelevant."""
        from repro.cluster import ClusterTopology
        from repro.placement import Placement
        topo = ClusterTopology(2, 2)
        assignment = np.zeros((nano_config.num_layers,
                               nano_config.num_experts), dtype=int)
        placement = Placement(assignment)
        counts = SyntheticRouter(nano_config, WIKITEXT_REGIME,
                                 seed=0).generate_trace(1, 64).step_counts(0)
        penalty = contention_penalty(nano_config, topo, placement, counts,
                                     64, 16)
        assert penalty == pytest.approx(0.0, abs=1e-12)
