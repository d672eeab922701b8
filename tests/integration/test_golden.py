"""Golden-number regression tests.

Locks the headline reproduction results (the numbers EXPERIMENTS.md reports)
against drift from future refactoring.  Tolerances are loose enough for
legitimate numeric churn but tight enough that a broken cost model, LP, or
calibration constant fails loudly.
"""

import hashlib

import numpy as np
import pytest

from repro import compare_strategies, reduction_vs
from repro.bench import paper_workload

GOLDEN = {
    # (model, dataset): (traffic reduction vs EP, time reduction vs EP)
    ("mixtral", "wikitext"): (0.249, 0.282),
    ("mixtral", "alpaca"): (0.176, 0.192),
}
TOLERANCE = 0.05  # absolute, on the reduction fractions

STEPS = 12

# The routing counts themselves, which the tolerance above would let move by
# a count: sha256 over the four paper cells at seed 1, in the order
# mixtral/wikitext, mixtral/alpaca, gritlm/wikitext, gritlm/alpaca, of each
# cell's profiled probability_matrix bytes and then its STEPS-step trace's
# count bytes.
COUNTS_CELLS = [("mixtral", "wikitext"), ("mixtral", "alpaca"),
                ("gritlm", "wikitext"), ("gritlm", "alpaca")]
COUNTS_SHA256 = \
    "4a3d402b22d335c615249f85987315f5aa9d128629d2756a477d1f26be73f731"


@pytest.fixture(scope="module")
def results():
    out = {}
    for model, dataset in GOLDEN:
        workload = paper_workload(model, dataset, seed=1)
        trace = workload.trace(STEPS)
        out[(model, dataset)] = compare_strategies(
            workload.config, trace, workload.probability_matrix)
    return out


class TestGoldenNumbers:
    @pytest.mark.parametrize("cell", sorted(GOLDEN))
    def test_traffic_reduction(self, results, cell):
        expected, _ = GOLDEN[cell]
        measured = reduction_vs(results[cell],
                                "avg_external_traffic_mb_per_node")
        assert measured == pytest.approx(expected, abs=TOLERANCE), \
            f"{cell}: traffic reduction drifted to {measured:.3f}"

    @pytest.mark.parametrize("cell", sorted(GOLDEN))
    def test_time_reduction(self, results, cell):
        _, expected = GOLDEN[cell]
        measured = reduction_vs(results[cell], "avg_step_time_s")
        assert measured == pytest.approx(expected, abs=TOLERANCE), \
            f"{cell}: time reduction drifted to {measured:.3f}"

    def test_baseline_traffic_scale(self, results):
        """EP baseline stays at the paper's ~0.87-0.95 GB/node/step scale."""
        ep = results[("mixtral", "wikitext")]["expert_parallel"]
        per_node = ep.avg_external_traffic_per_node()
        assert per_node == pytest.approx(0.95e9, rel=0.15)

    def test_strategy_ordering_locked(self, results):
        for cell, runs in results.items():
            times = {k: r.avg_step_time() for k, r in runs.items()}
            assert times["vela"] == min(times.values()), cell
            traffic = {k: r.avg_external_traffic_per_node()
                       for k, r in runs.items()}
            assert traffic["vela"] == min(traffic.values()), cell


def test_routing_counts_digest():
    """The seeded profiles and traces are byte-identical to the pinned
    ones: a single moved count changes the digest."""
    digest = hashlib.sha256()
    for model, dataset in COUNTS_CELLS:
        workload = paper_workload(model, dataset, seed=1)
        digest.update(workload.probability_matrix.tobytes())
        digest.update(workload.trace(STEPS).counts.tobytes())
    assert digest.hexdigest() == COUNTS_SHA256
