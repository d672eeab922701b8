"""Tests for autoregressive generation."""

import numpy as np
import pytest

from repro.models import decode_routing_counts, generate


class TestGenerate:
    def test_appends_requested_tokens(self, nano_model, rng):
        prompt = rng.integers(0, 16, size=5)
        out = generate(nano_model, prompt, max_new_tokens=7)
        assert len(out) == 12
        np.testing.assert_array_equal(out[:5], prompt)

    def test_tokens_in_vocab(self, nano_model, nano_config, rng):
        prompt = rng.integers(0, 16, size=3)
        out = generate(nano_model, prompt, max_new_tokens=10)
        assert out.max() < nano_config.vocab_size
        assert out.min() >= 0

    def test_greedy_deterministic(self, nano_model, rng):
        prompt = rng.integers(0, 16, size=4)
        a = generate(nano_model, prompt, 6, temperature=0.0)
        b = generate(nano_model, prompt, 6, temperature=0.0)
        np.testing.assert_array_equal(a, b)

    def test_sampling_seeded(self, nano_model, rng):
        prompt = rng.integers(0, 16, size=4)
        a = generate(nano_model, prompt, 6, temperature=1.0, seed=3)
        b = generate(nano_model, prompt, 6, temperature=1.0, seed=3)
        c = generate(nano_model, prompt, 6, temperature=1.0, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_top_k_limits_candidates(self, nano_model, rng):
        """With top_k=1, sampling equals greedy decoding."""
        prompt = rng.integers(0, 16, size=4)
        sampled = generate(nano_model, prompt, 6, temperature=1.0, top_k=1)
        greedy = generate(nano_model, prompt, 6, temperature=0.0)
        np.testing.assert_array_equal(sampled, greedy)

    def test_context_window_respected(self, nano_model, nano_config, rng):
        prompt = rng.integers(0, 16, size=nano_config.max_seq_len)
        out = generate(nano_model, prompt, max_new_tokens=3)
        assert len(out) == nano_config.max_seq_len + 3

    def test_restores_training_mode(self, nano_model, rng):
        nano_model.train()
        generate(nano_model, rng.integers(0, 16, size=3), 2)
        assert nano_model.training

    def test_validation(self, nano_model):
        with pytest.raises(ValueError):
            generate(nano_model, np.array([1]), 0)
        with pytest.raises(ValueError, match="max_new_tokens"):
            generate(nano_model, np.array([1, 2, 5]), 2.5, temperature=0.0)
        with pytest.raises(ValueError):
            generate(nano_model, np.array([]), 3)
        with pytest.raises(ValueError):
            generate(nano_model, np.array([1]), 3, temperature=-1)


class TestDecodeRoutingCounts:
    def test_counts_shape_and_totals(self, nano_model, nano_config, rng):
        prompt = rng.integers(0, 16, size=4)
        counts = decode_routing_counts(nano_model, prompt, max_new_tokens=9)
        assert counts.shape == (nano_config.num_layers,
                                nano_config.num_experts)
        # one routing decision (top_k selections) per generated token per layer
        assert np.all(counts.sum(axis=1) == 9 * nano_config.top_k)

    @pytest.mark.parametrize("prompt, max_new_tokens, match", [
        (np.array([1.7, 2.2]), 3, "integer"),
        (np.array([[1, 2]]), 3, "1-D"),
        (np.array([], dtype=np.int64), 3, "non-empty"),
        (np.array([1, 2]), 0, "max_new_tokens"),
        (np.array([1, 2]), -2, "max_new_tokens"),
        (np.array([1, 2]), 2.5, "max_new_tokens"),
    ])
    def test_checks_inputs_as_generate_does(self, nano_model, prompt,
                                            max_new_tokens, match):
        """Float ids used to be truncated (``[1.7, 2.2]`` counted as
        ``[1, 2]``) and ``max_new_tokens < 1`` returned zeros."""
        for decode in (generate, decode_routing_counts):
            with pytest.raises(ValueError, match=match):
                decode(nano_model, prompt, max_new_tokens)

    def test_out_of_vocab_prompt_rejected(self, nano_model, nano_config):
        with pytest.raises(ValueError, match="token ids"):
            decode_routing_counts(nano_model,
                                  np.array([nano_config.vocab_size]), 2)
