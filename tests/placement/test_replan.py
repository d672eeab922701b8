"""Tests for online re-placement: windows, migration plans, the controller.

Covers the :mod:`repro.placement.replan` building blocks in isolation —
:class:`RoutingWindow`, :func:`plan_migration` byte accounting,
:class:`BreakEvenReport` arithmetic, :class:`ReplanConfig` validation —
plus the :class:`ReplacementController` trigger/skip/apply state machine
on a hand-built nano cluster where the profitable and unprofitable
outcomes are known by construction.  The full traffic-shift replay lives
in ``tests/integration/test_replacement_loop.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.comm.cost import CommCostModel
from repro.placement import (BreakEvenReport, ExpertMove, LocalSearchRefiner,
                             MigrationPlan, Placement, ReplacementController,
                             ReplanConfig, ReplicatedPlacement,
                             ReplicationStrategy, RoutingWindow,
                             plan_migration, problem_from_window)
from repro.telemetry import MonitorThresholds, RoutingHealthMonitor


# --------------------------------------------------------------------- #
# RoutingWindow
# --------------------------------------------------------------------- #
class TestRoutingWindow:
    def test_observe_total_mean(self):
        window = RoutingWindow(maxlen=4)
        window.observe(np.array([[1.0, 2.0], [3.0, 4.0]]))
        window.observe(np.array([[3.0, 2.0], [1.0, 0.0]]))
        assert len(window) == 2
        np.testing.assert_allclose(window.total(), [[4, 4], [4, 4]])
        np.testing.assert_allclose(window.mean(), [[2, 2], [2, 2]])

    def test_maxlen_evicts_oldest(self):
        window = RoutingWindow(maxlen=2)
        for value in (1.0, 2.0, 3.0):
            window.observe(np.full((1, 2), value))
        assert len(window) == 2
        np.testing.assert_allclose(window.total(), [[5.0, 5.0]])

    def test_observe_copies_input(self):
        window = RoutingWindow()
        counts = np.ones((1, 2))
        window.observe(counts)
        counts[:] = 99.0
        np.testing.assert_allclose(window.total(), [[1.0, 1.0]])

    def test_clear(self):
        window = RoutingWindow()
        window.observe(np.ones((1, 2)))
        window.clear()
        assert len(window) == 0

    def test_empty_raises(self):
        window = RoutingWindow()
        with pytest.raises(ValueError):
            window.total()
        with pytest.raises(ValueError):
            window.mean()

    def test_non_2d_rejected(self):
        window = RoutingWindow()
        with pytest.raises(ValueError):
            window.observe(np.ones(3))
        with pytest.raises(ValueError):
            RoutingWindow(maxlen=0)

    def test_probability_matrix_rows_sum_to_top_k(self):
        window = RoutingWindow()
        window.observe(np.array([[6.0, 2.0], [0.0, 0.0]]))
        profile = window.probability_matrix(top_k=2)
        np.testing.assert_allclose(profile.sum(axis=1), [2.0, 2.0])
        np.testing.assert_allclose(profile[0], [1.5, 0.5])
        # the zero layer falls back to uniform
        np.testing.assert_allclose(profile[1], [1.0, 1.0])


# --------------------------------------------------------------------- #
# problem_from_window and the *_from_window re-solve entry points
# --------------------------------------------------------------------- #
class TestProblemFromWindow:
    def test_from_routing_window(self, nano_config, small_topology):
        window = RoutingWindow()
        window.observe(np.ones((nano_config.num_layers,
                                nano_config.num_experts)))
        problem = problem_from_window(nano_config, small_topology, window,
                                      tokens_per_step=64)
        assert problem.tokens_per_step == 64
        np.testing.assert_allclose(problem.probability_matrix.sum(axis=1),
                                   nano_config.top_k)

    def test_from_raw_arrays(self, nano_config, small_topology):
        shape = (nano_config.num_layers, nano_config.num_experts)
        flat = problem_from_window(nano_config, small_topology, np.ones(shape))
        stacked = problem_from_window(nano_config, small_topology,
                                      np.ones((5,) + shape))
        np.testing.assert_allclose(flat.probability_matrix,
                                   stacked.probability_matrix)

    def test_shape_mismatch_rejected(self, nano_config, small_topology):
        with pytest.raises(ValueError):
            problem_from_window(nano_config, small_topology, np.ones((3, 3)))

    def test_refine_from_window(self, nano_config, small_topology):
        counts = np.ones((nano_config.num_layers, nano_config.num_experts))
        start = Placement(np.full(counts.shape, 3, dtype=np.int64))
        report = LocalSearchRefiner().refine_from_window(
            start, nano_config, small_topology, counts, tokens_per_step=64)
        assert report.refined_objective <= report.initial_objective
        assert len(report.actions) == report.moves_applied + \
            report.swaps_applied

    def test_solve_from_window(self, nano_config, small_topology):
        counts = np.ones((nano_config.num_layers, nano_config.num_experts))
        report = ReplicationStrategy(max_replicas=2).solve_from_window(
            nano_config, small_topology, counts, tokens_per_step=64,
            capacities=[4, 4, 4, 4])
        assert isinstance(report.placement, ReplicatedPlacement)
        assert report.replicated_objective <= report.base_objective


# --------------------------------------------------------------------- #
# migration plans
# --------------------------------------------------------------------- #
class TestPlanMigration:
    def test_diff_and_byte_accounting(self, small_topology):
        old = Placement(np.array([[0, 1], [2, 3]]))
        new = Placement(np.array([[0, 2], [2, 0]]))
        plan = plan_migration(old, new, None, num_workers=4,
                              expert_bytes=100.0)
        assert plan.moves == (ExpertMove(0, 1, src=1, dst=2),
                              ExpertMove(1, 1, src=3, dst=0))
        assert plan.num_transfers == 2
        assert not plan.is_empty
        np.testing.assert_allclose(plan.bytes_per_worker(),
                                   [100.0, 0.0, 100.0, 0.0])
        assert plan.total_bytes == 200.0
        # workers 2, 3 sit on the far node of the 2x2 topology
        assert plan.cross_node_bytes(small_topology) == 100.0

    def test_identical_placements_empty(self):
        placement = Placement(np.array([[0, 1]]))
        plan = plan_migration(placement, placement, None, num_workers=2,
                              expert_bytes=1.0)
        assert plan.is_empty
        assert plan.total_bytes == 0.0

    def test_move_to_old_replica_is_free(self):
        old = ReplicatedPlacement(Placement(np.array([[0, 1]])),
                                  {(0, 0): [2]}, bandwidths=[1, 1, 1])
        new = Placement(np.array([[2, 1]]))
        plan = plan_migration(old, new, None, num_workers=3,
                              expert_bytes=50.0)
        assert plan.moves == ()
        assert plan.free_moves == (ExpertMove(0, 0, src=0, dst=2),)
        assert not plan.is_empty        # the promotion still changes state
        assert plan.total_bytes == 0.0  # but nothing crosses the wire
        # the now-stale replica registration is dropped for free
        assert plan.replica_drops == ((0, 0, 2),)

    def test_replica_adds_and_drops(self):
        base = Placement(np.array([[0, 1]]))
        old = ReplicatedPlacement(base, {(0, 0): [1]}, bandwidths=[1, 1, 1])
        new = ReplicatedPlacement(base, {(0, 1): [2]}, bandwidths=[1, 1, 1])
        plan = plan_migration(old, new, None, num_workers=3,
                              expert_bytes=10.0)
        assert plan.replica_adds == ((0, 1, 2),)
        assert plan.replica_drops == ((0, 0, 1),)
        assert plan.num_transfers == 1
        np.testing.assert_allclose(plan.bytes_per_worker(), [0, 0, 10.0])

    def test_add_on_existing_holder_ships_nothing(self):
        base = Placement(np.array([[0, 1]]))
        # expert (0, 0)'s new replica on worker 0 — already its primary
        new = ReplicatedPlacement(base, {(0, 0): [0]}, bandwidths=[1, 1])
        plan = plan_migration(base, new, None, num_workers=2,
                              expert_bytes=10.0)
        assert plan.replica_adds == ()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            plan_migration(Placement(np.array([[0, 1]])),
                           Placement(np.array([[0, 1], [1, 0]])),
                           None, num_workers=2, expert_bytes=1.0)

    def test_to_dict(self):
        old = Placement(np.array([[0, 1]]))
        new = Placement(np.array([[1, 1]]))
        plan = plan_migration(old, new, None, num_workers=2,
                              expert_bytes=7.0)
        summary = plan.to_dict()
        assert summary["experts_moved"] == 1
        assert summary["total_bytes"] == 7.0


class TestMigrationTime:
    def test_slowest_link_wins(self, nano_config, small_topology):
        cost = CommCostModel(nano_config, small_topology)
        # worker 1 on the fast intra link, worker 2 across nodes
        time_fast = cost.migration_time([0.0, 1e9, 0.0, 0.0])
        time_slow = cost.migration_time([0.0, 0.0, 1e9, 0.0])
        assert time_slow > time_fast > 0.0
        both = cost.migration_time([0.0, 1e9, 1e9, 0.0])
        assert both == pytest.approx(time_slow)  # parallel receive

    def test_empty_plan_is_instant(self, nano_config, small_topology):
        cost = CommCostModel(nano_config, small_topology)
        assert cost.migration_time(np.zeros(4)) == 0.0

    def test_negative_rejected(self, nano_config, small_topology):
        cost = CommCostModel(nano_config, small_topology)
        with pytest.raises(ValueError):
            cost.migration_time([-1.0, 0.0, 0.0, 0.0])


# --------------------------------------------------------------------- #
# break-even analysis
# --------------------------------------------------------------------- #
class TestBreakEvenReport:
    def test_profitable_case(self):
        report = BreakEvenReport(migration_bytes=100.0, migration_time_s=1.0,
                                 old_bytes_per_step=30.0,
                                 new_bytes_per_step=10.0, horizon_steps=10)
        assert report.saved_bytes_per_step == 20.0
        assert report.break_even_steps == pytest.approx(5.0)
        assert report.projected_saved_bytes == 200.0
        assert report.benefit_ratio == pytest.approx(2.0)
        assert report.profitable

    def test_no_savings_never_breaks_even(self):
        report = BreakEvenReport(migration_bytes=100.0, migration_time_s=1.0,
                                 old_bytes_per_step=10.0,
                                 new_bytes_per_step=30.0, horizon_steps=10)
        assert report.saved_bytes_per_step == -20.0
        assert math.isinf(report.break_even_steps)
        assert report.benefit_ratio == 0.0
        assert not report.profitable

    def test_free_migration_is_always_profitable(self):
        report = BreakEvenReport(migration_bytes=0.0, migration_time_s=0.0,
                                 old_bytes_per_step=30.0,
                                 new_bytes_per_step=10.0, horizon_steps=10,
                                 min_benefit_ratio=1e9)
        assert math.isinf(report.benefit_ratio)
        assert report.profitable

    def test_min_benefit_ratio_declines_marginal_wins(self):
        report = BreakEvenReport(migration_bytes=100.0, migration_time_s=1.0,
                                 old_bytes_per_step=30.0,
                                 new_bytes_per_step=10.0, horizon_steps=10,
                                 min_benefit_ratio=3.0)
        assert report.benefit_ratio == pytest.approx(2.0)
        assert not report.profitable

    def test_to_dict_maps_inf_to_none(self):
        report = BreakEvenReport(migration_bytes=100.0, migration_time_s=1.0,
                                 old_bytes_per_step=10.0,
                                 new_bytes_per_step=30.0, horizon_steps=10)
        summary = report.to_dict()
        assert summary["break_even_steps"] is None
        assert summary["profitable"] is False


# --------------------------------------------------------------------- #
# ReplanConfig validation
# --------------------------------------------------------------------- #
class TestReplanConfig:
    def test_defaults_valid(self):
        config = ReplanConfig()
        assert config.trigger == "anomaly"
        assert config.background is False

    @pytest.mark.parametrize("kwargs", [
        {"trigger": "sometimes"},
        {"min_window_steps": 33},  # beyond the default 32-step window
        {"window_size": 0},
        {"min_window_steps": 0},
        {"min_window_steps": 9, "window_size": 8},
        {"interval": 0},
        {"cooldown_steps": -1},
        {"min_benefit_ratio": -0.1},
        {"horizon_steps": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReplanConfig(**kwargs)


# --------------------------------------------------------------------- #
# the controller
# --------------------------------------------------------------------- #
class RecordingTarget:
    """A swap_placement-capable stub that records every swap."""

    def __init__(self):
        self.swaps = []

    def swap_placement(self, placement):
        self.swaps.append(placement)


def make_controller(nano_config, small_topology, assignment, counts=None,
                    capacities=(8, 8, 8, 8), **replan_kwargs):
    """A controller over a hand-built nano cluster.

    ``assignment`` seats the initial placement; the synchronous
    ``manual`` trigger is the default so tests drive re-solves
    explicitly.
    """
    replan_kwargs.setdefault("trigger", "manual")
    replan_kwargs.setdefault("min_window_steps", 1)
    replan_kwargs.setdefault("horizon_steps", 100)
    placement = Placement(np.asarray(assignment, dtype=np.int64))
    controller = ReplacementController(
        nano_config, small_topology, placement, tokens_per_step=64,
        capacities=list(capacities), replan=ReplanConfig(**replan_kwargs))
    if counts is not None:
        controller.observe_step(np.asarray(counts, dtype=np.float64))
    return controller


# everything seated on worker 3 (far node): moving experts home to the
# master's node is free (no cross-node migration bytes) and kills the
# cross-node traffic, so the re-solve must apply.
ALL_FAR = [[3, 3, 3, 3], [3, 3, 3, 3]]
UNIFORM = [[8.0, 8.0, 8.0, 8.0], [8.0, 8.0, 8.0, 8.0]]


class TestReplacementController:
    def test_profitable_replan_applies(self, nano_config, small_topology):
        controller = make_controller(nano_config, small_topology, ALL_FAR,
                                     counts=UNIFORM)
        target = RecordingTarget()
        controller.add_target(target)
        decision = controller.request_replan()
        assert decision.outcome == "applied"
        assert decision.report.profitable
        # migration home to the master's node never crosses nodes
        assert decision.report.migration_bytes == 0.0
        assert decision.report.saved_bytes_per_step > 0.0
        assert target.swaps == [decision.placement]
        assert controller.placement is decision.placement
        # the swapped placement drains the far node
        new_tokens = decision.placement.tokens_per_worker(
            np.asarray(UNIFORM), 4)
        old_tokens = Placement(np.asarray(ALL_FAR)).tokens_per_worker(
            np.asarray(UNIFORM), 4)
        assert new_tokens[2:].sum() < old_tokens[2:].sum()

    def test_unprofitable_replan_skipped(self, nano_config, small_topology):
        # Everything on worker 1 (master's node, capacity-locked off the
        # master itself) with one scorching expert: the only objective
        # improvement is shipping cold experts across nodes, which *adds*
        # cross-node traffic — the controller must decline it.
        controller = make_controller(
            nano_config, small_topology, [[1, 1, 1, 1], [1, 1, 1, 1]],
            counts=[[10000.0, 100.0, 100.0, 100.0]] * 2,
            capacities=(0, 8, 8, 8))
        decision = controller.request_replan()
        assert decision.outcome == "skipped"
        assert decision.reason == "unprofitable"
        assert not decision.report.profitable
        assert decision.report.saved_bytes_per_step <= 0.0
        assert controller.placement.assignment.tolist() == \
            [[1, 1, 1, 1], [1, 1, 1, 1]]
        event = controller.event_log.events[-1]
        assert event.kind == "replacement_skipped"
        assert event.severity == "warning"
        assert event.labels["reason"] == "unprofitable"

    def test_no_change_skipped(self, nano_config, small_topology):
        # An already-optimal seating (everything on the free master link)
        # re-solves to itself.
        controller = make_controller(
            nano_config, small_topology, [[0, 0, 0, 0], [0, 0, 0, 0]],
            counts=UNIFORM)
        decision = controller.request_replan()
        assert decision.outcome == "skipped"
        assert decision.reason == "no_change"
        assert decision.plan.is_empty

    def test_events_and_gauges(self, nano_config, small_topology):
        controller = make_controller(nano_config, small_topology, ALL_FAR,
                                     counts=UNIFORM)
        controller.request_replan()
        kinds = [e.kind for e in controller.event_log.events]
        assert kinds == ["replacement_started", "replacement_applied"]
        telemetry = controller.telemetry
        assert telemetry.gauge("placement.migration_bytes").value > 0.0
        assert telemetry.gauge("placement.saved_bytes_per_step").value > 0.0
        counter = telemetry.counter("placement.replacements",
                                    outcome="applied")
        assert counter.value == 1.0
        assert len(controller.history) == 1

    def test_manual_trigger_never_fires_from_observation(self, nano_config,
                                                         small_topology):
        controller = make_controller(nano_config, small_topology, ALL_FAR)
        for _ in range(50):
            assert controller.observe_step(np.asarray(UNIFORM)) is None
        assert controller.history == []

    def test_interval_trigger(self, nano_config, small_topology):
        controller = make_controller(nano_config, small_topology, ALL_FAR,
                                     trigger="interval", interval=5,
                                     cooldown_steps=0)
        decisions = [controller.observe_step(np.asarray(UNIFORM))
                     for _ in range(10)]
        fired = [i for i, d in enumerate(decisions) if d is not None]
        assert fired == [4, 9]

    def test_min_window_gates_trigger(self, nano_config, small_topology):
        controller = make_controller(nano_config, small_topology, ALL_FAR,
                                     trigger="interval", interval=1,
                                     cooldown_steps=0, min_window_steps=4,
                                     window_size=8)
        decisions = [controller.observe_step(np.asarray(UNIFORM))
                     for _ in range(5)]
        assert [d is not None for d in decisions] == \
            [False, False, False, True, True]

    def test_cooldown_spaces_attempts(self, nano_config, small_topology):
        controller = make_controller(nano_config, small_topology, ALL_FAR,
                                     trigger="interval", interval=1,
                                     cooldown_steps=4)
        decisions = [controller.observe_step(np.asarray(UNIFORM))
                     for _ in range(9)]
        fired = [i for i, d in enumerate(decisions) if d is not None]
        assert fired == [0, 4, 8]

    def test_anomaly_trigger_follows_monitor(self, nano_config,
                                             small_topology):
        # worker 0 (the monitor's local worker) holds nothing, so the hit
        # rate is 0 and the collapse latches on the first step.
        placement = Placement(np.asarray(ALL_FAR, dtype=np.int64))
        monitor = RoutingHealthMonitor(
            placement=placement,
            thresholds=MonitorThresholds(min_locality_hit_rate=0.05))
        controller = ReplacementController(
            nano_config, small_topology, placement, tokens_per_step=64,
            capacities=[8, 8, 8, 8], monitor=monitor,
            replan=ReplanConfig(trigger="anomaly", min_window_steps=3,
                                window_size=8, cooldown_steps=0))
        # the controller listens: feeding the monitor feeds the window
        for step in range(4):
            monitor.observe_step(np.asarray(UNIFORM), step=step)
        # anomaly latched at step 0, window cleared, refilled by steps
        # 0..3; min_window_steps=3 delays the re-solve to step 2.  The
        # swap restores locality, so step 3 measures recovery and the
        # healthy monitor never re-triggers.
        assert [d.step for d in controller.history] == [2]
        assert controller.history[0].outcome == "applied"
        assert monitor.healthy is True
        kinds = [e.kind for e in monitor.event_log.events]
        assert "locality_collapse.recovered" in kinds
        # the monitor's own placement followed the swap
        assert monitor.placement is controller.placement

    def test_anomaly_latch_clears_window(self, nano_config, small_topology):
        # experts 0, 1 live on the monitor's local worker: traffic on them
        # is healthy, traffic on experts 2, 3 collapses locality.
        placement = Placement(np.array([[0, 0, 3, 3], [0, 0, 3, 3]]))
        monitor = RoutingHealthMonitor(
            placement=placement,
            thresholds=MonitorThresholds(min_locality_hit_rate=0.05))
        controller = ReplacementController(
            nano_config, small_topology, placement, tokens_per_step=64,
            capacities=[8, 8, 8, 8], monitor=monitor,
            replan=ReplanConfig(trigger="manual", min_window_steps=1))
        shifted = [[0.0, 0.0, 32.0, 32.0]] * 2
        monitor.observe_step(np.array([[32.0, 32.0, 0.0, 0.0]] * 2), step=0)
        assert monitor.healthy and len(controller.window) == 1
        # collapse latches here: the pre-anomaly step is dropped
        monitor.observe_step(np.asarray(shifted), step=1)
        assert monitor.healthy is False
        assert len(controller.window) == 1
        np.testing.assert_allclose(controller.window.total(), shifted)

    def test_background_replan(self, nano_config, small_topology):
        controller = make_controller(nano_config, small_topology, ALL_FAR,
                                     counts=UNIFORM, background=True)
        assert controller.request_replan() is None
        controller.join(timeout=10.0)
        assert not controller.busy
        assert len(controller.history) == 1
        assert controller.history[0].outcome == "applied"

    def test_horizon_override(self, nano_config, small_topology):
        controller = make_controller(nano_config, small_topology, ALL_FAR,
                                     counts=UNIFORM)
        decision = controller.request_replan(horizon_steps=7)
        assert decision.report.horizon_steps == 7
