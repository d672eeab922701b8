"""Tests for the expert broker's dispatch planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import nano_moe
from repro.placement import Placement, ReplicatedPlacement
from repro.runtime import ExpertBroker
from repro.telemetry import Telemetry


@pytest.fixture
def broker(nano_config):
    # nano: 2 layers x 4 experts onto 3 workers
    assignment = np.array([[0, 1, 2, 0],
                           [1, 1, 2, 0]])
    return ExpertBroker(nano_config, Placement(assignment), num_workers=3)


def step_counts():
    return np.array([[10, 20, 30, 40],
                     [5, 15, 25, 35]])


class TestPlanning:
    def test_tokens_per_worker(self, broker):
        plan = broker.plan_step(step_counts())
        np.testing.assert_array_equal(plan[:, 0], [50, 20, 30])
        np.testing.assert_array_equal(plan[:, 1], [35, 20, 25])

    def test_shape_validation(self, broker):
        with pytest.raises(ValueError):
            broker.plan_step(np.zeros((5, 5)))

    def test_placement_shape_checked(self, nano_config):
        with pytest.raises(ValueError):
            ExpertBroker(nano_config, Placement(np.zeros((1, 1), dtype=int)),
                         num_workers=2)

    def test_replicated_placement_rejected(self, nano_config, broker):
        """A replicated placement has no binary tensor to plan against:
        the constructor and the hot swap refuse it up front instead of
        ``plan_trace`` failing later."""
        replicated = ReplicatedPlacement(broker.placement, {(0, 0): [1]},
                                         bandwidths=[1.0, 1.0, 1.0])
        assert replicated.num_replicas == 1
        with pytest.raises(TypeError, match="ReplicatedPlacement"):
            ExpertBroker(nano_config, replicated, num_workers=3)
        with pytest.raises(TypeError, match="ReplicatedPlacement"):
            broker.swap_placement(replicated)
        assert isinstance(broker.placement, Placement)


class TestTracePlan:
    def trace_counts(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 40, size=(5, 2, 4))
        counts[1] = 0                   # an all-empty step
        counts[2, :, 1] = 0             # an expert nobody selects
        counts[3, 0, :] = 0             # an empty layer
        return counts

    def test_matches_per_step_plans(self, broker):
        counts = self.trace_counts()
        trace_plan = broker.plan_trace(counts)
        assert trace_plan.shape == (5, 3, 2)
        for step in range(counts.shape[0]):
            np.testing.assert_array_equal(trace_plan[step],
                                          broker.plan_step(counts[step]))

    def test_shape_validation(self, broker):
        with pytest.raises(ValueError):
            broker.plan_trace(np.zeros((5, 3, 3)))
        with pytest.raises(ValueError):
            broker.plan_trace(np.zeros((2, 4)))


@st.composite
def plan_inputs(draw):
    """A model, placement, worker count and int64 count tensor in which
    whole steps, single (step, layer) rows and experts may route nothing."""
    layers = draw(st.integers(1, 4))
    experts = draw(st.integers(1, 8))
    config = nano_moe(num_layers=layers, num_experts=experts, top_k=1)
    workers = draw(st.integers(1, 6))
    cells = layers * experts
    assignment = draw(st.lists(st.integers(0, workers - 1),
                               min_size=cells, max_size=cells))
    placement = Placement(np.array(assignment).reshape(layers, experts))
    steps = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = rng.integers(0, 60, size=(steps, layers, experts),
                          dtype=np.int64)
    for step in draw(st.sets(st.integers(0, steps - 1))):
        counts[step] = 0
    for step, layer in draw(st.sets(st.tuples(st.integers(0, steps - 1),
                                              st.integers(0, layers - 1)))):
        counts[step, layer] = 0
    for expert in draw(st.sets(st.integers(0, experts - 1))):
        counts[:, :, expert] = 0
    return config, placement, workers, counts


def _dispatch_bytes(telemetry):
    """``broker.dispatch_bytes`` per (layer, expert, worker) edge."""
    return {tuple(sorted(inst.labels.items())): inst.value
            for inst in telemetry.registry.instruments("counter")
            if inst.name == "broker.dispatch_bytes"}


class TestPlanProperty:
    @settings(max_examples=60, deadline=None)
    @given(inputs=plan_inputs())
    def test_property_matches_tokens_per_worker(self, inputs):
        """``plan_trace`` and step-by-step ``plan_step`` equal stacking
        ``Placement.tokens_per_worker`` over the steps, values and dtype,
        and attribute the same dispatch bytes."""
        config, placement, workers, counts = inputs
        oracle = np.stack([placement.tokens_per_worker(step, workers)
                           for step in counts])

        batched_telemetry = Telemetry()
        batched = ExpertBroker(config, placement, workers,
                               telemetry=batched_telemetry)
        trace_plan = batched.plan_trace(counts)
        assert trace_plan.dtype == oracle.dtype
        np.testing.assert_array_equal(trace_plan, oracle)

        stepped_telemetry = Telemetry()
        stepped = ExpertBroker(config, placement, workers,
                               telemetry=stepped_telemetry)
        for step in range(len(counts)):
            plan = stepped.plan_step(counts[step])
            assert plan.dtype == oracle.dtype
            np.testing.assert_array_equal(plan, oracle[step])

        expected = float(counts.sum()) * config.token_feature_nbytes()
        assert _dispatch_bytes(stepped_telemetry) == \
            _dispatch_bytes(batched_telemetry)
        assert stepped_telemetry.counter_total("broker.dispatch_bytes") == \
            batched_telemetry.counter_total("broker.dispatch_bytes") == \
            expected
