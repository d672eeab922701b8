"""Tests for the expert broker's dispatch planning."""

import numpy as np
import pytest

from repro.models import nano_moe
from repro.placement import Placement
from repro.runtime import ExpertBroker


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
        np.testing.assert_array_equal(plan.tokens[:, 0], [50, 20, 30])
        np.testing.assert_array_equal(plan.tokens[:, 1], [35, 20, 25])

    def test_bytes_use_token_feature_size(self, broker, nano_config):
        plan = broker.plan_step(step_counts())
        assert plan.bytes_to_worker(0, 0) == \
            pytest.approx(50 * nano_config.token_feature_nbytes())

    def test_layer_bytes_vector(self, broker):
        plan = broker.plan_step(step_counts())
        assert plan.layer_bytes(1).shape == (3,)

    def test_shape_validation(self, broker):
        with pytest.raises(ValueError):
            broker.plan_step(np.zeros((5, 5)))

    def test_placement_shape_checked(self, nano_config):
        with pytest.raises(ValueError):
            ExpertBroker(nano_config, Placement(np.zeros((1, 1), dtype=int)),
                         num_workers=2)


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
        for step in range(counts.shape[0]):
            step_plan = broker.plan_step(counts[step])
            np.testing.assert_array_equal(trace_plan.tokens[step],
                                          step_plan.tokens)
            np.testing.assert_array_equal(trace_plan.bytes()[step],
                                          step_plan.tokens
                                          * step_plan.token_bytes)
        assert trace_plan.token_bytes == step_plan.token_bytes

    def test_step_plan_view(self, broker):
        counts = self.trace_counts()
        trace_plan = broker.plan_trace(counts)
        view = trace_plan.step_plan(2)
        np.testing.assert_array_equal(view.tokens,
                                      broker.plan_step(counts[2]).tokens)
        assert view.num_workers == trace_plan.num_workers == 3
        assert view.num_layers == trace_plan.num_layers == 2
        assert trace_plan.num_steps == 5

    def test_shape_validation(self, broker):
        with pytest.raises(ValueError):
            broker.plan_trace(np.zeros((5, 3, 3)))
        with pytest.raises(ValueError):
            broker.plan_trace(np.zeros((2, 4)))
