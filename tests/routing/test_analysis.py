"""Tests for trace analytics (drift detection) and the closed-form traffic
prediction."""

import numpy as np
import pytest

from repro.models import nano_moe
from repro.placement import (Placement, PlacementProblem,
                             SequentialPlacement, expected_cross_node_bytes)
from repro.routing import (CusumDriftDetector, SyntheticRouter,
                           UNIFORM_REGIME, WIKITEXT_REGIME, calibrate_slack,
                           phase_switch_trace, profile_drift)
from repro.runtime import MasterWorkerEngine


@pytest.fixture
def router(nano_config):
    return SyntheticRouter(nano_config, WIKITEXT_REGIME, seed=5)


class TestCusum:
    def test_stationary_trace_no_detection(self, nano_config, router):
        trace = router.generate_trace(40, 512)
        reference = router.probability_matrix(4096)
        slack = calibrate_slack(trace.slice_steps(0, 10), reference) * 1.2
        detector = CusumDriftDetector(threshold=0.5, slack=slack)
        assert not detector.scan(trace, reference).detected

    def test_phase_switch_detected_shortly_after(self, nano_config):
        trace = phase_switch_trace(nano_config,
                                   [WIKITEXT_REGIME, UNIFORM_REGIME],
                                   tokens_per_step=512, steps_per_phase=20,
                                   seed=2)
        router = SyntheticRouter(nano_config, WIKITEXT_REGIME, seed=2)
        reference = router.probability_matrix(4096)
        slack = calibrate_slack(trace.slice_steps(0, 20), reference) * 1.2
        detection = CusumDriftDetector(threshold=0.3, slack=slack).scan(
            trace, reference)
        assert detection.detected
        assert 20 <= detection.change_step <= 30

    def test_statistic_is_cusum_of_profile_drift(self, nano_config):
        """Bitwise: the scan accumulates ``profile_drift`` per step, and
        ``calibrate_slack`` takes the quantile of the same values."""
        trace = phase_switch_trace(nano_config,
                                   [WIKITEXT_REGIME, UNIFORM_REGIME],
                                   tokens_per_step=512, steps_per_phase=10,
                                   seed=2)
        reference = SyntheticRouter(nano_config, WIKITEXT_REGIME,
                                    seed=2).probability_matrix(4096)
        detector = CusumDriftDetector(threshold=0.3, slack=0.05)
        drifts = [profile_drift(reference, trace.step_counts(step)
                                / trace.tokens_per_step)
                  for step in range(trace.num_steps)]
        expected = np.zeros(trace.num_steps)
        s = 0.0
        for step in range(2, trace.num_steps):
            s = max(0.0, s + drifts[step] - detector.slack)
            expected[step] = s
        np.testing.assert_array_equal(
            detector.scan(trace, reference, start=2).statistic, expected)
        assert calibrate_slack(trace, reference, 0.9) == \
            float(np.quantile(drifts, 0.9))

    def test_statistic_resets_below_slack(self, nano_config, router):
        trace = router.generate_trace(10, 512)
        reference = router.probability_matrix(4096)
        detector = CusumDriftDetector(threshold=10.0, slack=1.0)  # huge slack
        detection = detector.scan(trace, reference)
        assert np.all(detection.statistic == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CusumDriftDetector(threshold=0)
        with pytest.raises(ValueError):
            CusumDriftDetector(slack=-1)


class TestTrafficPrediction:
    def test_prediction_matches_simulation(self, nano_config, small_topology,
                                           router):
        """The closed form must agree with the engine in expectation."""
        profile = router.probability_matrix(16384)
        problem = PlacementProblem(config=nano_config, topology=small_topology,
                                   probability_matrix=profile,
                                   tokens_per_step=512)
        placement = SequentialPlacement().place(problem)
        predicted = expected_cross_node_bytes(placement, problem)
        trace = router.generate_trace(30, 512)
        engine = MasterWorkerEngine(nano_config, small_topology, placement,
                                    512, seq_len=32)
        measured = engine.run_trace(trace).total_cross_node_bytes() / 30
        assert measured == pytest.approx(predicted, rel=0.05)

    def test_all_local_predicts_zero(self, nano_config, small_topology,
                                     small_probability):
        problem = PlacementProblem(config=nano_config, topology=small_topology,
                                   probability_matrix=small_probability,
                                   tokens_per_step=512)
        placement = Placement(np.zeros((2, 4), dtype=int))
        assert expected_cross_node_bytes(placement, problem) == 0.0
