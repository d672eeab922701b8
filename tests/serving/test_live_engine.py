"""Tests for the live-model decode engine (a prompt batch through the one
serve loop), checked against the full re-forward ``generate`` oracle."""

import numpy as np
import pytest

from repro.models import (MoEBlock, build_model, generate, moe_block,
                          tiny_mistral)
from repro.serving import LiveDecodeEngine, serving_flags
from tests.oracles import reference_dispatch


def oracle(model, prompt_ids, num_tokens):
    """Per-row greedy ``generate`` ids, shaped like ``decode``'s output."""
    return np.stack([generate(model, row, num_tokens, temperature=0.0)
                     [len(row):] for row in np.asarray(prompt_ids)])


def run_path(path, model, prompt_ids, num_tokens):
    """``cached``: the engine's KV-cached decode; ``reference``: the
    ``generate`` oracle under the serving flags, as the serving benchmark
    times it."""
    if path == "cached":
        return LiveDecodeEngine(model).decode(prompt_ids, num_tokens)
    with serving_flags(model):
        return oracle(model, prompt_ids, num_tokens)


class TestLiveDecodeEngine:
    def test_decode_shape(self, nano_model):
        engine = LiveDecodeEngine(nano_model)
        out = engine.decode(np.array([[1, 2, 3], [4, 5, 6]]), 4)
        assert out.shape == (2, 4)
        assert out.dtype.kind in "iu"

    def test_greedy_decode_deterministic(self, nano_model):
        engine = LiveDecodeEngine(nano_model)
        prompt = np.array([[1, 2, 3]])
        np.testing.assert_array_equal(engine.decode(prompt, 5),
                                      engine.decode(prompt, 5))

    def test_dispatch_modes_decode_identically(self, nano_config,
                                               monkeypatch):
        """The engine's array dispatch decodes the ids of the Tensor graph
        path running the reference dispatch oracle."""
        model = build_model(nano_config)
        prompt = np.array([[1, 2, 3]])
        out_array = LiveDecodeEngine(model).decode(prompt, 5)
        monkeypatch.setattr(MoEBlock, "_array_ready", lambda self: False)
        monkeypatch.setattr(moe_block, "fused_dispatch", reference_dispatch)
        out_ref = LiveDecodeEngine(model).decode(prompt, 5)
        np.testing.assert_array_equal(out_array, out_ref)

    def test_cached_and_reference_modes_decode_identically(self, nano_model):
        """Batches through the engine equal per-row ``generate``."""
        rng = np.random.default_rng(17)
        vocab = nano_model.config.vocab_size
        engine = LiveDecodeEngine(nano_model)
        prompts = [np.array([[1, 2, 3], [9, 8, 7]])] + [
            rng.integers(0, vocab, size=shape)
            for shape in [(1, 1), (3, 5), (4, 2), (2, 9)]]
        for prompt, num_tokens in zip(prompts, [6, 1, 7, 12, 3]):
            np.testing.assert_array_equal(
                engine.decode(prompt, num_tokens),
                oracle(nano_model, prompt, num_tokens),
                err_msg=f"prompt {prompt.shape} tokens {num_tokens}")

    @pytest.mark.parametrize("path", ["cached", "reference"])
    def test_routing_records_flow_without_probs(self, nano_model, path):
        run_path(path, nano_model, np.array([[1, 2]]), 3)
        for block in nano_model.blocks:
            record = block.moe.last_record
            assert record is not None
            assert record.probs is None          # hot loop skips the copy
            assert record.expert_indices.size > 0
            assert block.moe.record_probs is True  # flag restored after

    @pytest.mark.parametrize("path", ["cached", "reference"])
    def test_mode_flags_restored(self, nano_model, path):
        nano_model.train()
        run_path(path, nano_model, np.array([[1]]), 2)
        assert nano_model.training is True

    def test_length_validation(self, nano_model):
        engine = LiveDecodeEngine(nano_model)
        max_len = nano_model.config.max_seq_len
        with pytest.raises(ValueError):
            engine.decode(np.zeros((1, max_len), dtype=np.int64), 1)
        with pytest.raises(ValueError):
            engine.decode(np.array([[1, 2]]), 0)
        with pytest.raises(ValueError):
            engine.decode(np.array([1, 2]), 1)

    @pytest.mark.parametrize("bad", [-1, 64], ids=["negative", "vocab_size"])
    def test_out_of_range_prompt_ids_rejected(self, nano_model, bad):
        """Through the one loop, decode() inherits serve()'s id check: a
        negative id would wrap onto the last embedding row, one at
        vocab_size would fail mid-run."""
        assert nano_model.config.vocab_size == 64
        engine = LiveDecodeEngine(nano_model)
        with pytest.raises(ValueError, match="request 1"):
            engine.decode(np.array([[1, 2, 3], [1, 2, bad]]), 2)
        assert engine.pool.free_count == engine.max_slots

    @pytest.mark.parametrize("path", ["cached", "reference"])
    def test_no_gradients_recorded(self, nano_model, path):
        run_path(path, nano_model, np.array([[1, 2]]), 2)
        assert all(p.grad is None for p in nano_model.parameters())

    def test_full_context_decode_fills_max_seq_len(self, nano_model):
        """The slot pool covers prompt + generation exactly."""
        max_len = nano_model.config.max_seq_len
        prompt = np.ones((1, max_len - 3), dtype=np.int64)
        out = LiveDecodeEngine(nano_model).decode(prompt, 3)
        assert out.shape == (1, 3)
        np.testing.assert_array_equal(out, oracle(nano_model, prompt, 3))


class TestFourWayEquivalence:
    """decode path {cached, reference} on a seeded tiny_mistral.

    The equivalence the serving path rests on: greedy token ids must be
    identical through the engine's KV-cached decode and through the full
    re-forward ``generate`` oracle.  (The dispatch implementations are
    pinned to each other at block level: ``tests/models/test_dispatch.py``
    and ``tests/models/test_incremental.py``.)
    """

    @pytest.fixture(scope="class")
    def tiny_model(self):
        return build_model(tiny_mistral(seed=0, max_seq_len=64))

    def test_grid_greedy_ids_identical(self, tiny_model):
        prompt = np.random.default_rng(11).integers(
            0, tiny_model.config.vocab_size, size=(2, 12))
        cached = run_path("cached", tiny_model, prompt, 10)
        baseline = run_path("reference", tiny_model, prompt, 10)
        assert baseline.shape == (2, 10)
        np.testing.assert_array_equal(cached, baseline)

    def test_grid_routing_counts_identical(self, tiny_model):
        """The generated stream routes identically on both paths: the last
        decode step's per-layer expert choices agree."""
        prompt = np.random.default_rng(13).integers(
            0, tiny_model.config.vocab_size, size=(1, 8))
        choices = {}
        for path in ("cached", "reference"):
            run_path(path, tiny_model, prompt, 6)
            choices[path] = [record.expert_indices[-1].copy()
                             for record in tiny_model.routing_records()]
        for layer, (got, want) in enumerate(zip(choices["cached"],
                                                choices["reference"])):
            np.testing.assert_array_equal(got, want, err_msg=f"layer {layer}")
