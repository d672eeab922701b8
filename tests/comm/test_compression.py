"""Tests for activation compression (quantized transfers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (FP16, INT4, INT8, SCHEMES, CompressionScheme,
                        apply_scheme, dequantize_absmax, quantization_error,
                        quantize_absmax, roundtrip)
from repro.models import nano_moe


class TestScheme:
    def test_ratios(self):
        assert FP16.compression_ratio == 1.0
        assert INT8.compression_ratio == 0.5
        assert INT4.compression_ratio == 0.25

    def test_registry(self):
        assert set(SCHEMES) == {"fp16", "int8", "int4"}

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            CompressionScheme(name="x", bits=3)

    def test_apply_scheme_changes_traffic(self):
        cfg = nano_moe()
        cfg8 = apply_scheme(cfg, INT8)
        assert cfg8.token_feature_nbytes() == \
            pytest.approx(cfg.token_feature_nbytes() / 2)


class TestQuantizationKernels:
    def test_roundtrip_preserves_sign_and_scale(self, rng):
        x = rng.normal(size=(16, 32))
        out = roundtrip(x, INT8)
        assert np.sign(out[np.abs(x) > 0.1]).tolist() == \
            np.sign(x[np.abs(x) > 0.1]).tolist()

    def test_codes_in_range(self, rng):
        codes, _ = quantize_absmax(rng.normal(size=(8, 8)), bits=8)
        assert codes.max() <= 127 and codes.min() >= -127

    def test_dequantize_inverts_scale(self):
        x = np.array([[1.0, -0.5, 0.25]])
        codes, scales = quantize_absmax(x, bits=8)
        out = dequantize_absmax(codes, scales)
        np.testing.assert_allclose(out, x, atol=0.01)

    def test_zero_tensor(self):
        codes, scales = quantize_absmax(np.zeros((3, 3)), bits=8)
        assert np.all(codes == 0)
        np.testing.assert_array_equal(dequantize_absmax(codes, scales), 0.0)

    def test_per_channel_tighter_than_global(self, rng):
        # Rows at very different scales: per-channel must be more accurate.
        x = rng.normal(size=(4, 64)) * np.array([[0.01], [1.0], [100.], [5.]])
        per_channel = np.linalg.norm(x - roundtrip(x, INT8))
        global_codes, global_scales = quantize_absmax(x, 8, per_channel=False)
        global_error = np.linalg.norm(x - dequantize_absmax(global_codes,
                                                            global_scales))
        assert per_channel < global_error

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            quantize_absmax(np.ones(3), bits=1)

    def test_error_ordering(self, rng):
        """int4 > int8 > fp16 error, always."""
        x = rng.normal(size=(32, 64))
        e16 = quantization_error(x, FP16)
        e8 = quantization_error(x, INT8)
        e4 = quantization_error(x, INT4)
        assert e16 < e8 < e4

    @given(st.integers(2, 8), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip_bounded(self, bits, seed):
        """Roundtrip error is bounded by half a quantization step per row."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 16)) * rng.uniform(0.1, 10)
        codes, scales = quantize_absmax(x, bits)
        out = dequantize_absmax(codes, scales)
        step = scales  # (4, 1)
        assert np.all(np.abs(out - x) <= step * 0.5 + 1e-12)


class TestTrafficInteraction:
    def test_int8_halves_simulated_traffic(self, small_topology,
                                           small_probability):
        from repro.placement import PlacementProblem, SequentialPlacement
        from repro.routing import SyntheticRouter, WIKITEXT_REGIME
        from repro.runtime import MasterWorkerEngine

        base_cfg = nano_moe()
        trace = SyntheticRouter(base_cfg, WIKITEXT_REGIME,
                                seed=0).generate_trace(2, 64)
        results = {}
        for scheme in (FP16, INT8):
            cfg = apply_scheme(base_cfg, scheme)
            problem = PlacementProblem(config=cfg, topology=small_topology,
                                       probability_matrix=small_probability,
                                       tokens_per_step=64)
            placement = SequentialPlacement().place(problem)
            engine = MasterWorkerEngine(cfg, small_topology, placement, 64, 16)
            results[scheme.name] = engine.run_trace(trace).total_bytes()
        assert results["int8"] == pytest.approx(results["fp16"] / 2)
