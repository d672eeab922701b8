"""Tests for the synthetic router's statistical properties and its
seeded stream contract."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import mixtral_8x7b_sim, nano_moe
from repro.routing import (ALPACA_REGIME, UNIFORM_REGIME, WIKITEXT_REGIME,
                           LocalityRegime, SyntheticRouter, regime_with_alpha)
from tests.oracles import reference_sample_counts


def normalized_entropy(p):
    p = p / p.sum(axis=1, keepdims=True)
    p = np.clip(p, 1e-12, None)
    return float((-(p * np.log(p)).sum(axis=1) / np.log(p.shape[1])).mean())


class TestRegimes:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalityRegime(name="x", dirichlet_alpha=0)
        with pytest.raises(ValueError):
            LocalityRegime(name="x", dirichlet_alpha=1, gate_temperature=0)
        with pytest.raises(ValueError):
            LocalityRegime(name="x", dirichlet_alpha=1, drift_scale=-1)

    def test_regime_with_alpha(self):
        regime = regime_with_alpha(0.5)
        assert regime.dirichlet_alpha == 0.5
        assert "0.5" in regime.name


class TestTraceGeneration:
    def setup_method(self):
        self.config = nano_moe()
        self.router = SyntheticRouter(self.config, WIKITEXT_REGIME, seed=3)

    def test_trace_shape(self):
        trace = self.router.generate_trace(5, 100)
        assert trace.num_steps == 5
        assert trace.num_layers == self.config.num_layers
        assert trace.num_experts == self.config.num_experts

    def test_counts_conserve_tokens(self):
        trace = self.router.generate_trace(4, 64)
        sums = trace.counts.sum(axis=2)
        assert np.all(sums == 64 * self.config.top_k)

    def test_deterministic(self):
        t1 = self.router.generate_trace(3, 50)
        t2 = SyntheticRouter(self.config, WIKITEXT_REGIME,
                             seed=3).generate_trace(3, 50)
        np.testing.assert_array_equal(t1.counts, t2.counts)

    def test_seed_changes_trace(self):
        t1 = self.router.generate_trace(3, 50, seed=10)
        t2 = self.router.generate_trace(3, 50, seed=11)
        assert not np.array_equal(t1.counts, t2.counts)

    def test_validates_args(self):
        with pytest.raises(ValueError):
            self.router.generate_trace(0, 10)


class TestLocalityProperties:
    def test_skew_ordering_wikitext_vs_alpaca_vs_uniform(self):
        """Lower Dirichlet alpha must produce more concentrated access."""
        config = mixtral_8x7b_sim()
        entropies = []
        for regime in (WIKITEXT_REGIME, ALPACA_REGIME, UNIFORM_REGIME):
            router = SyntheticRouter(config, regime, seed=1)
            entropies.append(normalized_entropy(
                router.probability_matrix(4096)))
        assert entropies[0] < entropies[1] < entropies[2]

    def test_probability_matrix_rows_sum_to_top_k(self):
        router = SyntheticRouter(nano_moe(), ALPACA_REGIME, seed=0)
        p = router.probability_matrix(2048)
        np.testing.assert_allclose(p.sum(axis=1), nano_moe().top_k, atol=1e-9)

    def test_profile_predicts_trace_frequencies(self):
        """The pre-run profile must match realized access within tolerance —
        the property that makes locality-aware placement work."""
        router = SyntheticRouter(nano_moe(), WIKITEXT_REGIME, seed=5)
        profile = router.probability_matrix(8192)
        trace = router.generate_trace(20, 512)
        realized = trace.probability_matrix()
        assert np.abs(profile - realized).max() < 0.08

    def test_drift_is_bounded(self):
        """Per-layer access frequencies stay near their initial values."""
        router = SyntheticRouter(nano_moe(), WIKITEXT_REGIME, seed=2)
        trace = router.generate_trace(40, 512)
        freq = trace.access_frequency_over_time(0)
        drift = np.abs(freq - freq[0]).max()
        assert drift < 0.1

    def test_uniform_regime_is_balanced(self):
        router = SyntheticRouter(nano_moe(), UNIFORM_REGIME, seed=0)
        p = router.probability_matrix(8192)
        expected = nano_moe().top_k / nano_moe().num_experts
        assert np.abs(p - expected).max() < 0.1

    def test_base_logits_copy(self):
        router = SyntheticRouter(nano_moe(), WIKITEXT_REGIME, seed=0)
        logits = router.base_logits
        logits += 100
        assert np.abs(router.base_logits).max() < 100


def _router(layers, experts, top_k, temperature=0.7, seed=0):
    config = nano_moe(num_layers=layers, num_experts=experts, top_k=top_k)
    regime = LocalityRegime(name="stream", dirichlet_alpha=1.0,
                            gate_temperature=temperature)
    return SyntheticRouter(config, regime, seed=seed)


class StreamGenerator:
    """A stand-in generator whose ``random(n)`` serves a fixed stream."""

    def __init__(self, stream):
        self.stream = np.asarray(stream, dtype=np.float64)
        self.used = 0

    def random(self, n):
        assert self.used + n <= self.stream.size, "stream exhausted"
        out = self.stream[self.used:self.used + n].copy()
        self.used += n
        return out


def scalar_gumbel_counts(logits, tokens, top_k, temperature, stream):
    """numpy's ``random_gumbel`` one draw at a time with ``math.log``
    (``U = 1 - u``, redrawn while ``U == 1``), then each token's top-k,
    an exact tie going to the lower expert.  Returns the counts and the
    number of stream entries consumed."""
    draws = iter(stream)
    used = 0
    layers, experts = logits.shape
    counts = np.zeros((layers, experts), dtype=np.int64)
    for layer in range(layers):
        for _ in range(tokens):
            scores = []
            for expert in range(experts):
                while True:
                    used += 1
                    one_minus_u = 1.0 - next(draws)
                    if one_minus_u < 1.0:
                        break
                gumbel = 0.0 - 1.0 * math.log(-math.log(one_minus_u))
                scores.append(logits[layer, expert] + gumbel * temperature)
            for expert in sorted(range(experts),
                                 key=lambda e: -scores[e])[:top_k]:
                counts[layer, expert] += 1
    return counts, used


@st.composite
def expert_shapes(draw):
    experts = draw(st.integers(1, 16))
    return experts, draw(st.integers(1, experts))


class TestStreamContract:
    """``_sample_counts`` against the scalar ``rng.gumbel`` oracle: the
    same counts and the same generator state afterwards, so
    ``generate_trace``'s following ``rng.normal`` draws do not move."""

    @given(layers=st.integers(1, 6), shape=expert_shapes(),
           tokens=st.integers(1, 300), temperature=st.floats(0.05, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @example(layers=3, shape=(8, 2), tokens=300, temperature=0.7,
             seed=1)  # mixtral / gritlm
    @example(layers=3, shape=(64, 1), tokens=300, temperature=0.9,
             seed=2)  # switch-xxl
    @example(layers=3, shape=(64, 6), tokens=300, temperature=0.7,
             seed=3)  # deepseek
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_gumbel_oracle(self, layers, shape, tokens,
                                          temperature, seed):
        experts, top_k = shape
        router = _router(layers, experts, top_k, temperature, seed)
        logits = router.base_logits
        rng = np.random.default_rng(seed + 1)
        oracle_rng = np.random.default_rng(seed + 1)
        counts = router._sample_counts(logits, tokens, rng)
        expected = reference_sample_counts(router, logits, tokens,
                                           oracle_rng)
        np.testing.assert_array_equal(counts, expected)
        assert counts.dtype == expected.dtype
        assert np.all(counts.sum(axis=1) == tokens * top_k)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_trace_matches_oracle(self, monkeypatch):
        """A whole drifting trace, profile included, equals the oracle's."""
        router = _router(4, 8, 2, seed=7)
        profile = router.probability_matrix(500)
        trace = router.generate_trace(5, 200)
        monkeypatch.setattr(SyntheticRouter, "_sample_counts",
                            reference_sample_counts)
        np.testing.assert_array_equal(profile, router.probability_matrix(500))
        np.testing.assert_array_equal(trace.counts,
                                      router.generate_trace(5, 200).counts)

    def test_exact_zeros_are_redrawn(self):
        """A ``u == 0`` draw is skipped as numpy's ``random_gumbel`` skips
        ``U == 1``, in stream order: zeros inside a layer, at its end, in
        its redraws and back to back."""
        layers, experts, top_k, tokens, temperature = 2, 5, 2, 7, 0.7
        router = _router(layers, experts, top_k, temperature, seed=4)
        logits = router.base_logits
        block = tokens * experts
        stream = np.random.default_rng(5).random(2 * block + 8)
        # Layer 0: zeros at 3, 4 and its last slot, and at the first
        # redraw (so it redraws twice); layer 1 then starts at block + 4.
        stream[[3, 4, block - 1, block]] = 0.0
        stream[block + 4 + 10] = 0.0
        fake = StreamGenerator(stream)
        counts = router._sample_counts(logits, tokens, fake)
        expected, used = scalar_gumbel_counts(logits, tokens, top_k,
                                              temperature, stream)
        np.testing.assert_array_equal(counts, expected)
        assert fake.used == used == 2 * block + 5

    def test_exact_ties_go_to_the_lower_expert(self):
        """Equal logits and repeated uniforms force exact score ties at
        the top-k threshold: each token still gets exactly ``top_k``
        experts, the lower index first."""
        router = _router(1, 5, 3)
        logits = np.zeros((1, 5))
        # A smaller u is a larger Gumbel score, -log(-log(1 - u)).
        uniforms = np.array([
            [0.5, 0.5, 0.5, 0.5, 0.5],   # all tied: 0, 1, 2
            [0.8, 0.1, 0.6, 0.6, 0.6],   # 1, then two of three tied: 2, 3
            [0.1, 0.1, 0.1, 0.1, 0.9],   # four tied at the top: 0, 1, 2
            [0.9, 0.7, 0.2, 0.7, 0.3],   # 2, 4, then the lower of 1 and 3
        ])
        counts = router._sample_counts(logits, len(uniforms),
                                       StreamGenerator(uniforms.ravel()))
        np.testing.assert_array_equal(counts, [[2, 4, 4, 1, 1]])
        assert counts.sum() == len(uniforms) * 3
