"""Hot placement swaps must never stall or perturb decode.

Placement decides where experts *live* (and therefore what the routing
costs), never what the router *computes* — so swapping the active
placement mid-flight must leave greedy token ids bit-identical, evict
nothing, and re-prefill nothing.  These tests pin that invariant for
both live engines, with the swap staged directly and with a full
:class:`~repro.placement.replan.ReplacementController` driving it from
live routing records mid-run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model
from repro.placement import (Placement, ReplacementController, ReplanConfig,
                             ReplicatedPlacement)
from repro.serving import ContinuousBatchingEngine, LiveDecodeEngine, Request
from repro.telemetry import RoutingHealthMonitor
from repro.telemetry.events import EventLog

# all experts seated on the far node of the 2x2 test topology: any
# re-solve moves them home, so a controller-driven swap always lands.
ALL_FAR = np.full((2, 4), 3, dtype=np.int64)


def make_requests(config, n=5, decode_tokens=8):
    rng = np.random.default_rng(5)
    return [Request(i, arrival_time=0.0, decode_tokens=decode_tokens,
                    prompt_ids=rng.integers(0, config.vocab_size,
                                            size=4 + (i % 3)))
            for i in range(n)]


def ids_by_request(metrics):
    return {o.request_id: o.token_ids.tolist() for o in metrics.outcomes}


class TestContinuousBatchingSwap:
    def test_staged_swap_applies_at_iteration_boundary(self, nano_config):
        model = build_model(nano_config)
        events = EventLog()
        engine = ContinuousBatchingEngine(model, max_slots=2, events=events)
        new_placement = Placement(ALL_FAR, name="staged")
        engine.swap_placement(new_placement)
        assert engine.active_placement is not new_placement  # staged only
        engine.serve(make_requests(nano_config, n=2))
        assert engine.active_placement is new_placement
        swaps = [e for e in events.events if e.kind == "placement_swap"]
        assert len(swaps) == 1
        assert swaps[0].labels["placement"] == "staged"

    def test_mid_run_swap_keeps_greedy_ids_bit_identical(self, nano_config,
                                                         small_topology):
        requests = make_requests(nano_config)
        baseline = ids_by_request(ContinuousBatchingEngine(
            build_model(nano_config), max_slots=2).serve(requests))

        model = build_model(nano_config)
        placement = Placement(ALL_FAR.copy())
        monitor = RoutingHealthMonitor(placement=placement)
        events = EventLog()
        engine = ContinuousBatchingEngine(model, max_slots=2,
                                          monitor=monitor, events=events)
        controller = ReplacementController(
            nano_config, small_topology, placement, tokens_per_step=64,
            capacities=[8, 8, 8, 8], monitor=monitor, targets=[engine],
            replan=ReplanConfig(trigger="interval", interval=4,
                                min_window_steps=1, window_size=8,
                                cooldown_steps=10 ** 6))
        metrics = engine.serve(requests)

        # the controller really swapped, mid-run, from live records
        applied = [d for d in controller.history if d.outcome == "applied"]
        assert len(applied) == 1
        swaps = [e for e in events.events if e.kind == "placement_swap"]
        assert len(swaps) == 1
        assert swaps[0].labels["active_slots"] > 0       # slots were live
        assert engine.active_placement is applied[0].placement
        assert monitor.placement is applied[0].placement

        # ...and decode never noticed: same ids, same finish reasons, and
        # exactly one evict per request (completion — nothing forced out).
        assert ids_by_request(metrics) == baseline
        assert all(o.finish_reason in ("max_tokens", "eos")
                   for o in metrics.outcomes)
        evictions = [e for e in events.events if e.kind == "request_evict"]
        assert len(evictions) == len(requests)
        admits = [e for e in events.events if e.kind == "request_admit"]
        assert len(admits) == len(requests)              # no re-prefill

    def test_swap_event_carries_queue_state(self, nano_config):
        model = build_model(nano_config)
        events = EventLog()
        engine = ContinuousBatchingEngine(model, max_slots=1, events=events)
        engine.swap_placement(Placement(ALL_FAR))
        engine.serve(make_requests(nano_config, n=3))
        swap = [e for e in events.events if e.kind == "placement_swap"][0]
        # a pre-staged swap lands at the very first boundary, before any
        # admission — the labels record that quiescent state
        assert swap.labels["active_slots"] == 0
        assert swap.labels["queue_depth"] == 0


BAD_SWAPS = pytest.mark.parametrize("bad, error", [
    ("all-far", TypeError),
    (ALL_FAR, TypeError),
    (Placement(np.zeros((3, 4), dtype=np.int64)), ValueError),
    (Placement(np.zeros((2, 3), dtype=np.int64)), ValueError),
    (ReplicatedPlacement(Placement(np.zeros((3, 4), dtype=np.int64)),
                         {(0, 0): [1]}, bandwidths=[1.0] * 4),
     ValueError),
], ids=["str", "array", "extra-layer", "missing-expert",
        "replicated-extra-layer"])


class TestSwapValidation:
    """A placement the model cannot use raises where the swap is staged,
    and neither the staged swap nor serving changes."""

    @BAD_SWAPS
    def test_bad_swap_raises_at_the_call(self, nano_config, bad, error):
        requests = make_requests(nano_config, n=3)
        baseline = ids_by_request(ContinuousBatchingEngine(
            build_model(nano_config), max_slots=2).serve(requests))
        placement = Placement(ALL_FAR.copy())
        monitor = RoutingHealthMonitor(placement=placement)
        engine = ContinuousBatchingEngine(build_model(nano_config),
                                          max_slots=2, monitor=monitor)
        staged = Placement(np.zeros((2, 4), dtype=np.int64), name="staged")
        engine.swap_placement(staged)
        with pytest.raises(error):
            engine.swap_placement(bad)
        assert engine.active_placement is placement
        assert ids_by_request(engine.serve(requests)) == baseline
        assert engine.active_placement is staged
        assert monitor.placement is staged

    def test_replicated_placement_is_staged(self, nano_model):
        engine = LiveDecodeEngine(nano_model)
        replicated = ReplicatedPlacement(Placement(ALL_FAR), {(1, 2): [0]},
                                         bandwidths=[1.0] * 4)
        engine.swap_placement(replicated)
        engine.decode(np.array([[1, 2]]), 2)
        assert engine.active_placement is replicated


class TestMonitorSwapValidation:
    """The monitor checks a swap at the call too, since the re-placement
    controller swaps it directly, past the engine's check.  A bad swap
    leaves the held placement, so the next serve still scores locality
    (a wrong shape would raise in the serve loop after its first
    forward)."""

    @BAD_SWAPS
    def test_bad_swap_raises_at_the_call(self, nano_config, bad, error):
        placement = Placement(ALL_FAR.copy())
        monitor = RoutingHealthMonitor(placement=placement)
        with pytest.raises(error):
            monitor.swap_placement(bad)
        assert monitor.placement is placement
        engine = ContinuousBatchingEngine(build_model(nano_config),
                                          max_slots=2, monitor=monitor)
        engine.serve(make_requests(nano_config, n=3))
        assert monitor.steps_observed > 0
        assert monitor.placement is placement

    def test_replicated_placement_is_held(self):
        monitor = RoutingHealthMonitor(placement=Placement(ALL_FAR.copy()))
        replicated = ReplicatedPlacement(Placement(ALL_FAR), {(1, 2): [0]},
                                         bandwidths=[1.0] * 4)
        monitor.swap_placement(replicated)
        assert monitor.placement is replicated

    def test_first_placement_sets_the_shape(self):
        monitor = RoutingHealthMonitor()
        first = Placement(np.zeros((3, 4), dtype=np.int64))
        monitor.swap_placement(first)
        with pytest.raises(ValueError, match="held placement"):
            monitor.swap_placement(Placement(ALL_FAR))
        assert monitor.placement is first


class TestLiveDecodeSwap:
    def test_staged_swap_applies_during_decode(self, nano_model):
        engine = LiveDecodeEngine(nano_model)
        new_placement = Placement(ALL_FAR, name="mid-decode")
        engine.swap_placement(new_placement)
        assert engine.active_placement is None           # nothing yet
        engine.decode(np.array([[1, 2, 3]]), 4)
        assert engine.active_placement is new_placement

    def test_swap_does_not_change_greedy_ids(self, nano_config):
        prompt = np.array([[5, 6, 7], [1, 2, 3]])
        baseline = LiveDecodeEngine(build_model(nano_config)).decode(prompt, 6)
        engine = LiveDecodeEngine(build_model(nano_config))
        engine.swap_placement(Placement(ALL_FAR))
        np.testing.assert_array_equal(engine.decode(prompt, 6), baseline)

    def test_monitor_follows_live_engine_swap(self, nano_model):
        placement = Placement(ALL_FAR.copy())
        monitor = RoutingHealthMonitor(placement=placement)
        engine = LiveDecodeEngine(nano_model, monitor=monitor)
        new_placement = Placement(np.zeros((2, 4), dtype=np.int64))
        engine.swap_placement(new_placement)
        engine.decode(np.array([[1, 2]]), 3)
        assert monitor.placement is new_placement

    def test_controller_driven_swap_mid_decode(self, nano_config,
                                               small_topology):
        prompt = np.array([[4, 5, 6]])
        baseline = LiveDecodeEngine(build_model(nano_config)).decode(prompt, 8)

        model = build_model(nano_config)
        placement = Placement(ALL_FAR.copy())
        monitor = RoutingHealthMonitor(placement=placement)
        engine = LiveDecodeEngine(model, monitor=monitor)
        controller = ReplacementController(
            nano_config, small_topology, placement, tokens_per_step=64,
            capacities=[8, 8, 8, 8], monitor=monitor, targets=[engine],
            replan=ReplanConfig(trigger="interval", interval=3,
                                min_window_steps=1, window_size=8,
                                cooldown_steps=10 ** 6))
        out = engine.decode(prompt, 8)

        applied = [d for d in controller.history if d.outcome == "applied"]
        assert len(applied) == 1
        assert engine.active_placement is applied[0].placement
        np.testing.assert_array_equal(out, baseline)

    def test_repeated_swaps_last_one_wins(self, nano_model):
        engine = LiveDecodeEngine(nano_model)
        first = Placement(ALL_FAR)
        second = Placement(np.zeros((2, 4), dtype=np.int64), name="latest")
        engine.swap_placement(first)
        engine.swap_placement(second)
        engine.decode(np.array([[1]]), 2)
        assert engine.active_placement is second
