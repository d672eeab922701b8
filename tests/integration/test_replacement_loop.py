"""Integration: anomaly -> re-solve -> hot-swap on a traffic-shift replay.

The paper-scale closed loop: a 60-step Mixtral replay whose routing hot
set shifts at step 30.  The locality monitor latches a collapse, the
:class:`~repro.placement.replan.ReplacementController` re-solves against
its post-shift window, prices the migration, and hot-swaps the broker —
and the measured cross-node traffic (vs. a shadow broker frozen on the
old placement) must drop enough to repay the migration within the steps
that remain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.comm.cost import CommCostModel
from repro.core.config import VelaConfig
from repro.models import mixtral_8x7b_sim
from repro.placement import (LocalityAwarePlacement, PlacementProblem,
                             ReplacementController, ReplanConfig)
from repro.routing import WIKITEXT_REGIME, SyntheticRouter, phase_switch_trace
from repro.runtime.broker import ExpertBroker
from repro.telemetry import MonitorThresholds, RoutingHealthMonitor

STEPS_PER_PHASE = 30


@pytest.fixture(scope="module")
def replay():
    """Run the full loop once; every test inspects the outcome."""
    model = mixtral_8x7b_sim()
    topology = paper_cluster()
    config = VelaConfig(model, topology, batch_size=16, seq_len=256)
    capacities = config.worker_capacities()
    # two wikitext-shaped regimes with different hot sets (per-phase seeds)
    trace = phase_switch_trace(model, [WIKITEXT_REGIME, WIKITEXT_REGIME],
                               config.tokens_per_step,
                               steps_per_phase=STEPS_PER_PHASE, seed=7)
    router = SyntheticRouter(model, WIKITEXT_REGIME, seed=7)
    problem = PlacementProblem(
        config=model, topology=topology,
        probability_matrix=router.probability_matrix(config.profile_tokens),
        tokens_per_step=config.tokens_per_step, capacities=capacities)
    placement = LocalityAwarePlacement().place(problem)
    monitor = RoutingHealthMonitor(
        placement=placement,
        thresholds=MonitorThresholds(min_locality_hit_rate=0.08))
    broker = ExpertBroker(model, placement, topology.num_workers)
    controller = ReplacementController(
        model, topology, placement, tokens_per_step=config.tokens_per_step,
        capacities=capacities, monitor=monitor, targets=[broker],
        replan=ReplanConfig(window_size=8, min_window_steps=5,
                            cooldown_steps=10, horizon_steps=25))
    cost = CommCostModel(model, topology)
    shadow = ExpertBroker(model, placement, topology.num_workers)

    live_bytes, shadow_bytes = [], []
    for step, counts in enumerate(trace.counts):
        monitor.observe_step(counts, step=step)
        live_bytes.append(cost.cross_node_bytes(broker.plan_step(counts)))
        shadow_bytes.append(
            cost.cross_node_bytes(shadow.plan_step(counts)))

    return {"controller": controller, "monitor": monitor, "broker": broker,
            "topology": topology, "placement": placement,
            "live_bytes": live_bytes, "shadow_bytes": shadow_bytes,
            "steps": len(trace.counts)}


class TestReplacementLoop:
    def test_collapse_detected_at_shift(self, replay):
        events = replay["monitor"].event_log.events
        collapse = [e for e in events if e.kind == "locality_collapse"]
        assert len(collapse) == 1
        assert collapse[0].step == STEPS_PER_PHASE

    def test_migration_applied_after_shift(self, replay):
        applied = [d for d in replay["controller"].history
                   if d.outcome == "applied"]
        assert len(applied) == 1
        decision = applied[0]
        assert STEPS_PER_PHASE <= decision.step < 2 * STEPS_PER_PHASE
        assert decision.plan.num_transfers > 0
        assert decision.report.profitable

    def test_break_even_within_remaining_steps(self, replay):
        decision = [d for d in replay["controller"].history
                    if d.outcome == "applied"][0]
        remaining = replay["steps"] - decision.step - 1
        assert decision.report.break_even_steps <= remaining

    def test_measured_cross_node_drop(self, replay):
        """Post-swap traffic drops >= 20% vs. the frozen shadow broker."""
        decision = [d for d in replay["controller"].history
                    if d.outcome == "applied"][0]
        start = decision.step + 1
        old = np.mean(replay["shadow_bytes"][start:])
        new = np.mean(replay["live_bytes"][start:])
        assert 1.0 - new / old >= 0.20

    def test_savings_recoup_migration_bytes(self, replay):
        """Measured (not projected) savings repay the migration in-run."""
        decision = [d for d in replay["controller"].history
                    if d.outcome == "applied"][0]
        start = decision.step + 1
        saved = sum(o - n for o, n in zip(replay["shadow_bytes"][start:],
                                          replay["live_bytes"][start:]))
        migration = decision.plan.cross_node_bytes(replay["topology"])
        assert migration > 0
        assert saved > migration

    def test_event_lifecycle_order(self, replay):
        """detect -> replan -> apply -> recover, in that order."""
        kinds = [e.kind for e in replay["monitor"].event_log.events]
        sequence = [kinds.index("locality_collapse"),
                    kinds.index("replacement_started"),
                    kinds.index("replacement_applied"),
                    kinds.index("locality_collapse.recovered")]
        assert sequence == sorted(sequence)
        assert replay["monitor"].healthy

    def test_broker_swapped_and_monitor_follows(self, replay):
        controller = replay["controller"]
        decision = [d for d in controller.history
                    if d.outcome == "applied"][0]
        assert replay["broker"].placement is decision.placement
        assert replay["monitor"].placement is decision.placement
        assert controller.placement is decision.placement
        assert decision.placement is not replay["placement"]

    def test_gauges_track_latest_plan(self, replay):
        telemetry = replay["controller"].telemetry
        assert telemetry.gauge("placement.migration_bytes").value > 0
        assert telemetry.gauge("placement.saved_bytes_per_step").value > 0

    def test_unprofitable_shift_declined(self):
        """A shift too close to the end of the run is declined and logged.

        Same replay, but the controller believes only 2 steps remain
        (``horizon_steps=2``): no migration can repay itself, so every
        decision must be a logged ``replacement_skipped``.
        """
        model = mixtral_8x7b_sim()
        topology = paper_cluster()
        config = VelaConfig(model, topology, batch_size=16, seq_len=256)
        capacities = config.worker_capacities()
        trace = phase_switch_trace(model, [WIKITEXT_REGIME, WIKITEXT_REGIME],
                                   config.tokens_per_step,
                                   steps_per_phase=20, seed=7)
        router = SyntheticRouter(model, WIKITEXT_REGIME, seed=7)
        problem = PlacementProblem(
            config=model, topology=topology,
            probability_matrix=router.probability_matrix(
                config.profile_tokens),
            tokens_per_step=config.tokens_per_step, capacities=capacities)
        placement = LocalityAwarePlacement().place(problem)
        monitor = RoutingHealthMonitor(
            placement=placement,
            thresholds=MonitorThresholds(min_locality_hit_rate=0.08))
        controller = ReplacementController(
            model, topology, placement,
            tokens_per_step=config.tokens_per_step, capacities=capacities,
            monitor=monitor,
            replan=ReplanConfig(window_size=8, min_window_steps=5,
                                cooldown_steps=10, horizon_steps=2))
        for step, counts in enumerate(trace.counts):
            monitor.observe_step(counts, step=step)
        assert controller.history, "shift never triggered a re-solve"
        assert all(d.outcome == "skipped" for d in controller.history)
        assert all(d.reason == "unprofitable" for d in controller.history)
        skipped = [e for e in monitor.event_log.events
                   if e.kind == "replacement_skipped"]
        assert skipped and all(e.severity == "warning" for e in skipped)
        # nothing was swapped anywhere
        assert controller.placement is placement
        assert monitor.placement is placement
