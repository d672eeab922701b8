"""Tests for the live-model decode engine (prefill/decode split hot loop)."""

import numpy as np
import pytest

from repro.models import build_model, tiny_mistral
from repro.serving import DECODE_MODES, LiveDecodeEngine


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

    def test_dispatch_modes_decode_identically(self, nano_config):
        model = build_model(nano_config)
        prompt = np.array([[1, 2, 3]])
        out_fused = LiveDecodeEngine(model, dispatch="fused").decode(prompt, 5)
        out_ref = LiveDecodeEngine(model, dispatch="reference").decode(prompt, 5)
        np.testing.assert_array_equal(out_fused, out_ref)

    def test_cached_and_reference_modes_decode_identically(self, nano_model):
        engine = LiveDecodeEngine(nano_model)
        prompt = np.array([[1, 2, 3], [9, 8, 7]])
        np.testing.assert_array_equal(engine.decode(prompt, 6, mode="cached"),
                                      engine.decode(prompt, 6,
                                                    mode="reference"))

    def test_invalid_dispatch_rejected(self, nano_model):
        with pytest.raises(ValueError):
            LiveDecodeEngine(nano_model, dispatch="eager")

    def test_invalid_mode_rejected(self, nano_model):
        assert DECODE_MODES == ("cached", "reference")
        with pytest.raises(ValueError):
            LiveDecodeEngine(nano_model, mode="speculative")
        engine = LiveDecodeEngine(nano_model)
        with pytest.raises(ValueError):
            engine.decode(np.array([[1, 2]]), 2, mode="speculative")

    def test_default_mode_is_cached(self, nano_model):
        assert LiveDecodeEngine(nano_model).mode == "cached"

    @pytest.mark.parametrize("mode", ["cached", "reference"])
    def test_routing_records_flow_without_probs(self, nano_model, mode):
        engine = LiveDecodeEngine(nano_model, mode=mode)
        engine.decode(np.array([[1, 2]]), 3)
        for block in nano_model.blocks:
            record = block.moe.last_record
            assert record is not None
            assert record.probs is None          # hot loop skips the copy
            assert record.expert_indices.size > 0
            assert block.moe.record_probs is True  # flag restored after

    @pytest.mark.parametrize("mode", ["cached", "reference"])
    def test_mode_flags_restored(self, nano_model, mode):
        nano_model.train()
        LiveDecodeEngine(nano_model, mode=mode).decode(np.array([[1]]), 2)
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

    @pytest.mark.parametrize("mode", ["cached", "reference"])
    def test_no_gradients_recorded(self, nano_model, mode):
        engine = LiveDecodeEngine(nano_model, mode=mode)
        engine.decode(np.array([[1, 2]]), 2)
        assert all(p.grad is None for p in nano_model.parameters())

    def test_full_context_decode_fills_max_seq_len(self, nano_model):
        """The preallocated ids buffer covers prompt + generation exactly."""
        max_len = nano_model.config.max_seq_len
        prompt = np.ones((1, max_len - 3), dtype=np.int64)
        out = LiveDecodeEngine(nano_model).decode(prompt, 3)
        assert out.shape == (1, 3)


class TestFourWayEquivalence:
    """dispatch {fused, reference} x decode mode {cached, reference}.

    The equivalence grid the serving PR rests on: greedy token ids must be
    identical whichever dispatch implementation and whichever decode mode
    runs, on a seeded tiny_mistral.  (The cached x reference-dispatch cell
    exercises the incremental path with the Tensor dispatch instead of the
    array dispatch.)
    """

    @pytest.fixture(scope="class")
    def tiny_model(self):
        return build_model(tiny_mistral(seed=0, max_seq_len=64))

    def test_grid_greedy_ids_identical(self, tiny_model):
        prompt = np.random.default_rng(11).integers(
            0, tiny_model.config.vocab_size, size=(2, 12))
        outputs = {}
        for dispatch in ("fused", "reference"):
            engine = LiveDecodeEngine(tiny_model, dispatch=dispatch)
            for mode in ("cached", "reference"):
                outputs[(dispatch, mode)] = engine.decode(prompt, 10,
                                                          mode=mode)
        baseline = outputs[("reference", "reference")]
        assert baseline.shape == (2, 10)
        for cell, out in outputs.items():
            np.testing.assert_array_equal(out, baseline, err_msg=str(cell))

    def test_grid_routing_counts_identical(self, tiny_model):
        """The generated stream routes identically in every cell: the last
        decode step's per-layer expert choices agree across the grid."""
        prompt = np.random.default_rng(13).integers(
            0, tiny_model.config.vocab_size, size=(1, 8))
        choices = {}
        for dispatch in ("fused", "reference"):
            for mode in ("cached", "reference"):
                engine = LiveDecodeEngine(tiny_model, dispatch=dispatch,
                                          mode=mode)
                engine.decode(prompt, 6)
                choices[(dispatch, mode)] = [
                    record.expert_indices[-1].copy()
                    for record in tiny_model.routing_records()]
        baseline = choices[("reference", "reference")]
        for cell, per_layer in choices.items():
            for layer, (got, want) in enumerate(zip(per_layer, baseline)):
                np.testing.assert_array_equal(got, want,
                                              err_msg=f"{cell} layer {layer}")
