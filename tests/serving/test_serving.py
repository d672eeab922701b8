"""Tests for the offloaded-serving simulation."""

import numpy as np
import pytest

from repro.models import nano_moe
from repro.routing import SyntheticRouter, UNIFORM_REGIME, WIKITEXT_REGIME
from repro.serving import (ExpertCache, OverlappedFetchScheduler,
                           ServingConfig, hot_expert_keys, replay_stream,
                           sample_decode_stream)


def decode(config, router, cache, num_tokens, seed=0):
    """Modeled offloaded decode: no speculation, every miss synchronous."""
    return replay_stream(sample_decode_stream(config, router, num_tokens, seed),
                         OverlappedFetchScheduler(config, None, cache))


class TestExpertCache:
    def test_hit_after_insert(self):
        cache = ExpertCache(capacity=2)
        assert not cache.access((0, 1))  # cold miss
        assert cache.access((0, 1))      # now resident

    def test_lru_evicts_oldest(self):
        cache = ExpertCache(capacity=2, policy="lru")
        cache.access((0, 0))
        cache.access((0, 1))
        cache.access((0, 0))  # refresh 0
        cache.access((0, 2))  # evicts (0,1)
        assert (0, 1) not in cache
        assert (0, 0) in cache

    def test_lfu_evicts_least_frequent(self):
        cache = ExpertCache(capacity=2, policy="lfu")
        for _ in range(5):
            cache.access((0, 0))
        cache.access((0, 1))
        cache.access((0, 2))  # evicts (0,1): frequency 1 vs 5
        assert (0, 0) in cache
        assert (0, 1) not in cache

    def test_pinned_never_evicted(self):
        cache = ExpertCache(capacity=2, policy="pinned", pinned={(0, 0)})
        cache.access((0, 1))
        cache.access((0, 2))  # must evict (0,1), not the pinned (0,0)
        assert (0, 0) in cache
        assert (0, 1) not in cache

    def test_pinned_resident_at_start(self):
        cache = ExpertCache(capacity=3, policy="pinned", pinned={(1, 2)})
        assert cache.access((1, 2))  # hit without a prior insert

    def test_all_pinned_cache_raises_on_new_key(self):
        cache = ExpertCache(capacity=1, policy="pinned", pinned={(0, 0)})
        with pytest.raises(RuntimeError):
            cache.access((0, 1))

    def test_stats(self):
        cache = ExpertCache(capacity=4)
        cache.access((0, 0))
        cache.access((0, 0))
        cache.access((0, 1))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExpertCache(capacity=0)
        with pytest.raises(ValueError):
            ExpertCache(capacity=2, policy="random")
        with pytest.raises(ValueError):
            ExpertCache(capacity=1, policy="pinned", pinned={(0, 0), (0, 1)})
        with pytest.raises(ValueError):
            ExpertCache(capacity=2, policy="lru", pinned={(0, 0)})


class TestHotExpertKeys:
    def test_picks_largest(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        keys = hot_expert_keys(p, budget=2)
        assert keys == {(0, 0), (1, 1)}

    def test_budget_zero(self):
        assert hot_expert_keys(np.ones((2, 2)), 0) == set()


class TestDecodeSimulator:
    def run(self, regime, capacity, num_tokens, policy="lru", pinned=None,
            seed=0):
        config = nano_moe()
        router = SyntheticRouter(config, regime, seed=3)
        cache = ExpertCache(capacity=capacity, policy=policy, pinned=pinned)
        return decode(config, router, cache, num_tokens, seed=seed)

    def test_latency_series_shape(self):
        metrics = self.run(WIKITEXT_REGIME, capacity=4, num_tokens=30)
        assert metrics.num_tokens == 30
        assert np.all(metrics.token_latencies > 0)

    def test_all_resident_means_no_fetches(self):
        config = nano_moe()
        metrics = self.run(WIKITEXT_REGIME, capacity=config.total_experts,
                           num_tokens=40)
        # after compulsory misses, everything fits: fetch time is bounded
        assert metrics.evictions == 0
        assert metrics.hit_rate > 0.8

    def test_tiny_cache_thrashes(self):
        big = self.run(WIKITEXT_REGIME, capacity=8, num_tokens=40)
        small = self.run(WIKITEXT_REGIME, capacity=2, num_tokens=40)
        assert small.hit_rate < big.hit_rate
        assert small.mean_latency() > big.mean_latency()

    def test_skew_improves_hit_rate(self):
        """Locality is why caching works: skewed routing caches better."""
        skewed = self.run(WIKITEXT_REGIME, capacity=4, num_tokens=60)
        uniform = self.run(UNIFORM_REGIME, capacity=4, num_tokens=60)
        assert skewed.hit_rate > uniform.hit_rate

    def test_pinned_policy_with_profile_beats_lru(self):
        """Pinning the profile's hot experts beats recency eviction."""
        config = nano_moe()
        router = SyntheticRouter(config, WIKITEXT_REGIME, seed=3)
        profile = router.probability_matrix(8192)
        capacity = 6
        pinned = hot_expert_keys(profile, capacity - 2)
        lru = self.run(WIKITEXT_REGIME, capacity=capacity, num_tokens=80)
        pinned_metrics = self.run(WIKITEXT_REGIME, capacity=capacity,
                                  num_tokens=80, policy="pinned",
                                  pinned=pinned)
        assert pinned_metrics.hit_rate >= lru.hit_rate - 0.02

    def test_throughput_inverse_of_latency(self):
        metrics = self.run(WIKITEXT_REGIME, capacity=4, num_tokens=20)
        assert metrics.throughput_tokens_per_s() == \
            pytest.approx(20 / metrics.token_latencies.sum())

    def test_deterministic(self):
        a = self.run(WIKITEXT_REGIME, capacity=4, num_tokens=15, seed=9)
        b = self.run(WIKITEXT_REGIME, capacity=4, num_tokens=15, seed=9)
        np.testing.assert_array_equal(a.token_latencies, b.token_latencies)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.run(WIKITEXT_REGIME, capacity=4, num_tokens=0)

    def test_fetch_time_formula(self):
        serving = ServingConfig(pcie_bandwidth=1e9, fetch_latency_s=1e-3)
        assert serving.fetch_time(1e9) == pytest.approx(1.001)
