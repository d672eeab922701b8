"""Tests for the synthetic router's statistical properties and its
seeded stream contract."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import (deepseek_moe_sim, gritlm_8x7b_sim,
                          mixtral_8x7b_sim, nano_moe, switch_xxl_sim,
                          tiny_mistral)
from repro.routing import (ALPACA_REGIME, UNIFORM_REGIME, WIKITEXT_REGIME,
                           LocalityRegime, SyntheticRouter, regime_with_alpha)
from repro.routing.synthetic import _top_k_counts
from tests.oracles import reference_sample_counts, reference_top_k_counts


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

    @pytest.mark.parametrize("count", [0, -3, 2.5, True, "8", None])
    def test_counts_must_be_positive_integers(self, count):
        """A count that is not a positive integer raises at the call;
        an empty profile would otherwise be an all-NaN matrix."""
        router = self.router
        for call in (lambda: router.probability_matrix(count),
                     lambda: router.expected_selection_probability(count),
                     lambda: router.generate_trace(2, count),
                     lambda: router.generate_trace(count, 2)):
            with pytest.raises(ValueError, match="positive integer"):
                call()

    def test_numpy_integer_counts_accepted(self):
        count = np.int64(16)
        np.testing.assert_array_equal(self.router.probability_matrix(count),
                                      self.router.probability_matrix(16))
        assert self.router.generate_trace(count, count).num_steps == 16


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


# Few distinct values, so exact ties land at, above and below the k-th
# place; -0.0 and 0.0 tie too.
TIE_VALUES = (-2.0, -1.0, -0.5, -0.0, 0.0, 1.0)


class TestTopKThreshold:
    """``_top_k_counts`` thresholds at each token's ``k``-th largest score
    counting ties; the max-and-mask oracle at the ``k``-th largest distinct
    one.  They differ exactly when ties sit above the ``k``-th place, which
    the end-to-end property almost never draws."""

    @given(experts=st.integers(1, 16), tokens=st.integers(1, 300),
           values=st.lists(st.sampled_from(TIE_VALUES), min_size=1,
                           max_size=4),
           seed=st.integers(0, 2**32 - 1))
    @example(experts=16, tokens=300, values=[-0.0, 0.0], seed=0)
    @example(experts=8, tokens=50, values=[-1.0, 0.0, 1.0], seed=1)
    @settings(max_examples=100, deadline=None)
    def test_matches_max_and_mask_oracle(self, experts, tokens, values,
                                         seed):
        scores = np.random.default_rng(seed).choice(
            np.array(values), size=(experts, tokens))
        ranked = np.argsort(-scores, axis=0, kind="stable")
        for k in range(1, experts + 1):
            counts = _top_k_counts(scores, k)
            np.testing.assert_array_equal(
                counts, reference_top_k_counts(scores, k))
            # each token's k highest, an exact tie to the lower index
            np.testing.assert_array_equal(
                counts, np.bincount(ranked[:k].ravel(), minlength=experts))
            assert counts.sum() == k * tokens


PRESETS = (tiny_mistral, nano_moe, mixtral_8x7b_sim, gritlm_8x7b_sim,
           switch_xxl_sim, deepseek_moe_sim)
# The paper's regimes, plus a skewed prior at a temperature that clamps
# most ranking weights' exponents (1e-3) and at one that clamps none (1e3).
DIGEST_REGIMES = (
    WIKITEXT_REGIME, ALPACA_REGIME, UNIFORM_REGIME,
    LocalityRegime(name="cold", dirichlet_alpha=0.3, gate_temperature=1e-3),
    LocalityRegime(name="hot", dirichlet_alpha=0.3, gate_temperature=1e3))
PRESETS_SHA256 = \
    "629fd67f5963e336442e1b0ca848662f1481d157e4398c58d036636b4bfb6230"


def test_every_preset_counts_digest():
    """Every preset's profile and a short trace under five regimes are
    byte-identical to the pinned ones: switch-xxl's top-1, deepseek's 64
    experts with top-6, and temperatures far outside the paper's."""
    digest = hashlib.sha256()
    for i, preset in enumerate(PRESETS):
        for j, regime in enumerate(DIGEST_REGIMES):
            router = SyntheticRouter(preset(), regime, seed=10 * i + j)
            digest.update(router.probability_matrix(2048).tobytes())
            digest.update(router.generate_trace(3, 512).counts.tobytes())
    assert digest.hexdigest() == PRESETS_SHA256
