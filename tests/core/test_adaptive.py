"""Tests for re-placement on non-stationary workloads."""

import numpy as np
import pytest

from repro import VelaConfig, VelaSystem
from repro.comm.cost import CommCostModel
from repro.placement import (Placement, ReplacementController, ReplanConfig,
                             plan_migration)
from repro.routing import (ALPACA_REGIME, UNIFORM_REGIME, WIKITEXT_REGIME,
                           SyntheticRouter, phase_switch_trace, profile_drift)
from repro.telemetry import MonitorThresholds, RoutingHealthMonitor


@pytest.fixture
def config(nano_config, small_topology):
    # Tight capacities: placement decisions (and therefore re-placements)
    # must spread experts; unconstrained nano capacity would let every
    # profile map to the same everything-on-master placement.
    return VelaConfig(model=nano_config, topology=small_topology,
                      batch_size=2, seq_len=32, capacities=[2, 2, 2, 2])


def interval_controller(config, placement, interval):
    return ReplacementController(
        config.model, config.topology, placement,
        tokens_per_step=config.tokens_per_step,
        capacities=config.worker_capacities(),
        replan=ReplanConfig(trigger="interval", interval=interval,
                            window_size=interval, min_window_steps=interval,
                            cooldown_steps=0))


def replay(controller, trace):
    for step in range(trace.num_steps):
        controller.observe_step(trace.step_counts(step), step=step)
    return [d for d in controller.history if d.outcome == "applied"]


class TestProfileDrift:
    def test_zero_for_identical(self, small_probability):
        assert profile_drift(small_probability, small_probability) == 0.0

    def test_bounded_by_one(self, nano_config):
        a = np.zeros((2, 4))
        a[:, 0] = 2.0
        b = np.zeros((2, 4))
        b[:, 3] = 2.0
        assert profile_drift(a, b) == pytest.approx(1.0)

    def test_symmetric(self, nano_config, rng):
        a = rng.dirichlet(np.ones(4), size=2) * 2
        b = rng.dirichlet(np.ones(4), size=2) * 2
        assert profile_drift(a, b) == pytest.approx(profile_drift(b, a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            profile_drift(np.ones((2, 3)), np.ones((3, 2)))


class TestMigration:
    def test_no_move_no_bytes(self, nano_config):
        p = Placement(np.zeros((2, 4), dtype=int))
        assert plan_migration(p, p, nano_config).bytes_per_worker().sum() \
            == 0.0

    def test_bytes_counted_at_destination(self, nano_config):
        old = Placement(np.zeros((2, 4), dtype=int))
        new_assignment = np.zeros((2, 4), dtype=int)
        new_assignment[0, 0] = 2
        new = Placement(new_assignment)
        incoming = plan_migration(old, new, nano_config).bytes_per_worker()
        assert incoming[2] == pytest.approx(nano_config.expert_nbytes())
        assert incoming[0] == 0.0

    def test_migration_time_uses_slow_link(self, nano_config, small_topology):
        old = Placement(np.zeros((2, 4), dtype=int))
        to_intra = np.zeros((2, 4), dtype=int)
        to_intra[0, 0] = 1  # same node as master
        to_cross = np.zeros((2, 4), dtype=int)
        to_cross[0, 0] = 2  # other node
        cost = CommCostModel(nano_config, small_topology)
        workers = small_topology.num_workers
        t_intra = plan_migration(old, Placement(to_intra), nano_config,
                                 num_workers=workers).transfer_time(cost)
        t_cross = plan_migration(old, Placement(to_cross), nano_config,
                                 num_workers=workers).transfer_time(cost)
        assert t_cross > t_intra > 0

    def test_shape_mismatch(self, nano_config):
        with pytest.raises(ValueError):
            plan_migration(Placement(np.zeros((1, 2), dtype=int)),
                           Placement(np.zeros((2, 2), dtype=int)),
                           nano_config)


class TestPhaseSwitchTrace:
    def test_concatenates_phases(self, nano_config):
        trace = phase_switch_trace(nano_config,
                                   [WIKITEXT_REGIME, ALPACA_REGIME],
                                   tokens_per_step=64, steps_per_phase=5)
        assert trace.num_steps == 10
        assert "wikitext" in trace.model_name
        assert "alpaca" in trace.model_name

    def test_phases_statistically_differ(self, nano_config):
        trace = phase_switch_trace(nano_config,
                                   [WIKITEXT_REGIME, UNIFORM_REGIME],
                                   tokens_per_step=512, steps_per_phase=10)
        first = trace.probability_matrix(0, 10)
        second = trace.probability_matrix(10, 20)
        assert profile_drift(first, second) > 0.1

    def test_validation(self, nano_config):
        with pytest.raises(ValueError):
            phase_switch_trace(nano_config, [WIKITEXT_REGIME], 64, 0)


class TestController:
    def test_stationary_workload_no_replacement(self, config):
        router = SyntheticRouter(config.model, WIKITEXT_REGIME, seed=4)
        placement = VelaSystem(config).place(router.probability_matrix(2048))
        # The stationary trace's locality hit rate stays above 0.28; the
        # same router switching to uniform routing falls to about 0.22.
        thresholds = MonitorThresholds(min_locality_hit_rate=0.26)
        switch = phase_switch_trace(config.model,
                                    [WIKITEXT_REGIME, UNIFORM_REGIME],
                                    config.tokens_per_step,
                                    steps_per_phase=20, seed=4)
        probe = RoutingHealthMonitor(placement=placement,
                                     thresholds=thresholds)
        events = [event for step in range(switch.num_steps)
                  for event in probe.observe_step(switch.step_counts(step),
                                                  step=step)]
        assert any(event.kind == "locality_collapse" for event in events)

        monitor = RoutingHealthMonitor(placement=placement,
                                       thresholds=thresholds)
        controller = ReplacementController(
            config.model, config.topology, placement,
            tokens_per_step=config.tokens_per_step,
            capacities=config.worker_capacities(), monitor=monitor,
            replan=ReplanConfig(trigger="anomaly", window_size=10))
        trace = router.generate_trace(30, config.tokens_per_step)
        for step in range(trace.num_steps):
            monitor.observe_step(trace.step_counts(step), step=step)
        assert controller.steps_observed == 30
        assert controller.history == []
        assert controller.placement is placement

    def test_phase_switch_triggers_replacement(self, config):
        trace = phase_switch_trace(config.model,
                                   [WIKITEXT_REGIME, UNIFORM_REGIME],
                                   config.tokens_per_step,
                                   steps_per_phase=20, seed=2)
        router = SyntheticRouter(config.model, WIKITEXT_REGIME, seed=2)
        placement = VelaSystem(config).place(router.probability_matrix(2048))
        applied = replay(interval_controller(config, placement, 10), trace)
        assert len(applied) >= 1
        first = applied[0]
        assert first.step > 20  # after the switch
        assert first.plan.num_transfers > 0
        assert first.report.migration_time_s > 0

    def test_adaptive_beats_static_after_switch(self, config):
        """On the post-switch window, adaptive traffic <= static traffic."""
        trace = phase_switch_trace(config.model,
                                   [WIKITEXT_REGIME, UNIFORM_REGIME],
                                   config.tokens_per_step,
                                   steps_per_phase=25, seed=3)
        router = SyntheticRouter(config.model, WIKITEXT_REGIME, seed=3)
        system = VelaSystem(config)
        placement = system.place(router.probability_matrix(2048))
        static = system.simulate(trace, placement)
        applied = replay(interval_controller(config, placement, 5), trace)
        # each stretch between applied decisions runs on its own placement
        bounds = [0] + [d.step + 1 for d in applied] + [trace.num_steps]
        placements = [placement] + [d.placement for d in applied]
        adaptive = np.concatenate([
            system.simulate(trace.slice_steps(start, stop),
                            stretch).external_traffic_series()
            for start, stop, stretch in zip(bounds, bounds[1:], placements)
            if start < stop])
        static_tail = static.external_traffic_series()[-10:].mean()
        assert adaptive[-10:].mean() <= static_tail + 1e-9

    def test_validation(self, config):
        with pytest.raises(ValueError):
            ReplanConfig(interval=0)
        with pytest.raises(ValueError):
            ReplanConfig(window_size=0)
