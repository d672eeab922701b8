"""Tests for continuous-batching serving."""

import numpy as np
import pytest

from repro.models import mixtral_8x7b_sim, nano_moe
from repro.routing import SyntheticRouter, WIKITEXT_REGIME
from repro.serving import (BatchedDecodeSimulator, ExpertCache, Request,
                           ServingConfig, poisson_workload)


def make_sim(capacity=6, max_batch=4, seed=0):
    config = nano_moe()
    router = SyntheticRouter(config, WIKITEXT_REGIME, seed=2)
    return BatchedDecodeSimulator(config, router,
                                  ExpertCache(capacity), max_batch=max_batch,
                                  seed=seed)


class TestWorkload:
    def test_poisson_arrivals_increasing(self):
        requests = poisson_workload(20, arrival_rate=2.0, seed=1)
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(r.decode_tokens >= 1 for r in requests)

    def test_deterministic(self):
        a = poisson_workload(10, 1.0, seed=5)
        b = poisson_workload(10, 1.0, seed=5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_workload(0, 1.0)
        with pytest.raises(ValueError):
            poisson_workload(5, 0.0)
        for budget in (0, 2.5, 3.0, np.float64(4.0), "4", None):
            with pytest.raises(ValueError):
                Request(0, 0.0, decode_tokens=budget)
        assert Request(0, 0.0, np.int64(3)).decode_tokens == 3

    def test_caller_owned_rng_overrides_seed(self):
        rng = np.random.default_rng(9)
        a = poisson_workload(6, 1.0, rng=rng, seed=123)
        b = poisson_workload(6, 1.0, rng=np.random.default_rng(9), seed=456)
        assert a == b                       # seed ignored when rng given
        c = poisson_workload(6, 1.0, rng=rng)  # stream advanced by a
        assert a != c

    def test_prompt_ids_generation(self):
        requests = poisson_workload(8, 2.0, seed=4, prompt_len=(3, 7),
                                    vocab_size=32)
        for request in requests:
            assert 3 <= request.prompt_len <= 7
            assert request.prompt_ids.dtype == np.int64
            assert request.prompt_ids.min() >= 0
            assert request.prompt_ids.max() < 32
        fixed = poisson_workload(4, 2.0, seed=4, prompt_len=5,
                                 vocab_size=32)
        assert all(r.prompt_len == 5 for r in fixed)

    def test_prompt_knob_validation(self):
        with pytest.raises(ValueError):
            poisson_workload(4, 1.0, prompt_len=5)  # vocab_size required
        with pytest.raises(ValueError):
            poisson_workload(4, 1.0, prompt_len=(4, 2), vocab_size=32)
        with pytest.raises(ValueError):
            Request(0, 0.0, 4, prompt_ids=np.zeros((2, 2), dtype=np.int64))
        for ids in ([1.7, 2.2, 5.9], np.array([1.0, 2.0]), [True, False],
                    [], np.array([], dtype=np.int64)):
            with pytest.raises(ValueError):
                Request(0, 0.0, 4, prompt_ids=ids)
        narrow = Request(0, 0.0, 4, prompt_ids=np.array([1, 2], np.uint8))
        assert narrow.prompt_ids.dtype == np.int64
        assert Request(0, 0.0, 4).prompt_len == 0
        assert Request(0, 0.0, 4, prompt_ids=[1, 2, 3]).prompt_len == 3

    def test_outcome_finish_reason_validated(self):
        from repro.serving import FINISH_REASONS, RequestOutcome
        assert FINISH_REASONS == ("max_tokens", "eos")
        with pytest.raises(ValueError):
            RequestOutcome(0, 0.0, 0.0, 1.0, 4, finish_reason="oom")
        outcome = RequestOutcome(0, 0.0, 0.0, 1.0, 4)
        assert outcome.ttft is None         # simulator leaves it unset


class TestBatchedSimulator:
    def test_all_requests_complete(self):
        requests = poisson_workload(8, arrival_rate=10.0,
                                    mean_decode_tokens=5, seed=3)
        metrics = make_sim().run(requests)
        assert len(metrics.outcomes) == 8
        finished_ids = {o.request_id for o in metrics.outcomes}
        assert finished_ids == {r.request_id for r in requests}

    def test_latency_includes_queueing(self):
        requests = poisson_workload(6, arrival_rate=10.0,
                                    mean_decode_tokens=4, seed=3)
        metrics = make_sim(max_batch=1).run(requests)  # forced queueing
        for outcome in metrics.outcomes:
            assert outcome.latency >= outcome.queueing_delay >= 0
            assert outcome.finish_time > outcome.start_time

    def test_batch_limit_respected_via_queueing(self):
        """With max_batch=1, later requests must queue behind earlier ones."""
        requests = [Request(0, 0.0, 10), Request(1, 0.0, 10)]
        metrics = make_sim(max_batch=1).run(requests)
        first, second = metrics.outcomes
        assert second.start_time >= first.finish_time - 1e-9

    def test_batching_improves_throughput(self):
        """Sharing fetched experts across streams beats serial decoding."""
        requests = [Request(i, 0.0, 12) for i in range(4)]
        serial = make_sim(capacity=4, max_batch=1, seed=0).run(requests)
        batched = make_sim(capacity=4, max_batch=4, seed=0).run(requests)
        assert batched.wall_time < serial.wall_time
        assert batched.throughput_tokens_per_s() > \
            serial.throughput_tokens_per_s()

    def test_idle_gap_advances_clock(self):
        requests = [Request(0, 0.0, 2), Request(1, 100.0, 2)]
        metrics = make_sim().run(requests)
        second = [o for o in metrics.outcomes if o.request_id == 1][0]
        assert second.start_time >= 100.0

    def test_metrics_aggregation(self):
        requests = poisson_workload(5, 5.0, mean_decode_tokens=3, seed=2)
        metrics = make_sim().run(requests)
        assert metrics.mean_latency() > 0
        assert metrics.p99_latency() >= metrics.mean_latency()
        assert metrics.total_steps > 0
        assert 0 <= metrics.hit_rate <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            make_sim().run([])
        with pytest.raises(ValueError):
            make_sim(max_batch=0)

    def test_int8_weight_format_lowers_wall_time(self):
        """Fetches are priced at the serving config's weight format."""
        config = mixtral_8x7b_sim()
        router = SyntheticRouter(config, WIKITEXT_REGIME, seed=1)
        requests = [Request(i, 0.0, 12) for i in range(4)]
        wall = {}
        for fmt in ("fp16", "int8"):
            sim = BatchedDecodeSimulator(
                config, router, ExpertCache(config.total_experts // 2),
                max_batch=4, serving=ServingConfig(weight_format=fmt), seed=1)
            wall[fmt] = sim.run(requests).wall_time
        assert wall["int8"] < wall["fp16"]
