"""Numerical robustness tests: extreme values, masks, degenerate shapes."""

import numpy as np
import pytest

from repro.models import build_model, nano_moe
from repro.nn import Tensor, default_dtype, no_grad, where
from repro.nn.functional import cross_entropy, log_softmax, softmax


class TestExtremeLogits:
    def test_softmax_with_additive_mask(self):
        """The attention pattern: -1e9 mask entries get ~zero probability."""
        logits = np.array([[1.0, 2.0, -1e9, 0.5]])
        probs = softmax(Tensor(logits)).data
        assert probs[0, 2] < 1e-30
        np.testing.assert_allclose(probs.sum(), 1.0)

    def test_softmax_all_masked_but_one(self):
        logits = np.array([[-1e9, -1e9, 3.0]])
        probs = softmax(Tensor(logits)).data
        np.testing.assert_allclose(probs, [[0.0, 0.0, 1.0]], atol=1e-30)

    def test_log_softmax_no_nan_at_large_spread(self):
        logits = np.array([[1000.0, -1000.0]])
        out = log_softmax(Tensor(logits)).data
        assert np.all(np.isfinite(out[0, 0:1]))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_softmax_gradient_finite_under_mask(self):
        x = Tensor(np.array([[5.0, -1e9, 2.0]]), requires_grad=True)
        softmax(x).sum().backward()
        assert np.all(np.isfinite(x.grad))

    def test_cross_entropy_confident_correct_is_small(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss = cross_entropy(Tensor(logits), np.array([0]))
        assert float(loss.data) < 1e-10

    def test_cross_entropy_confident_wrong_is_large_but_finite(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss = cross_entropy(Tensor(logits), np.array([1]))
        assert 50 < float(loss.data) < 200
        assert np.isfinite(float(loss.data))


class TestDegenerateShapes:
    def test_single_token_forward(self, nano_model):
        logits = nano_model.forward(np.array([[3]]))
        assert logits.shape == (1, 1, nano_model.config.vocab_size)

    def test_single_expert_gate(self):
        from repro.models import TopKGate
        gate = TopKGate(4, 1, 1, rng=np.random.default_rng(0))
        out = gate(Tensor(np.random.default_rng(1).normal(size=(3, 4))))
        np.testing.assert_array_equal(out.expert_indices, [[0], [0], [0]])
        np.testing.assert_allclose(out.combine_weights.data, 1.0)

    def test_batch_of_one(self, nano_model, nano_config, rng):
        ids = rng.integers(0, nano_config.vocab_size, size=(1, 4))
        loss = nano_model.loss(ids, ids)
        loss.backward()
        assert np.isfinite(float(loss.data))


class TestDtypeStability:
    def test_long_training_no_drift_to_nan(self, nano_model, nano_config, rng):
        from repro.nn import AdamW
        opt = AdamW(nano_model.trainable_parameters(), lr=5e-3)
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 8))
        for _ in range(30):
            loss = nano_model.loss(ids, ids)
            nano_model.zero_grad()
            loss.backward()
            opt.step()
        assert np.isfinite(float(loss.data))
        for p in nano_model.parameters():
            assert np.all(np.isfinite(p.data))

    @pytest.mark.parametrize("scalar", [0.5, 2, np.float64(0.5), np.int64(3)])
    def test_scalar_operand_takes_the_tensor_dtype(self, scalar):
        """NumPy 2 treats a 0-d array as strongly typed: a scalar built in
        the default float64 promoted every float32 op it met."""
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        outs = [x + scalar, x - scalar, x * scalar, x / scalar, x.mean(),
                x.mean(axis=0), where(np.ones(3, bool), x, scalar),
                scalar + x, scalar - x, scalar * x, scalar / x]
        for out in outs:
            assert out.dtype == np.float32
        (x * scalar).sum().backward()
        assert x.grad.dtype == np.float32

    def test_float32_model_outside_its_dtype_context(self, rng):
        """A float32 model run under the float64 default: ``forward`` is
        float32 and bitwise its ``forward_slots`` prefill, and every
        gradient is float32.  Before, RMSNorm's ``eps``, the mean's
        ``1/n`` and attention's ``1/sqrt(head_dim)`` computed in float64
        (a few 1e-7 off the prefill), and the gradients came out
        float64."""
        with default_dtype(np.float32):
            model = build_model(nano_moe(seed=0))
        ids = rng.integers(0, model.config.vocab_size, size=(2, 7))
        with no_grad():
            logits = model.forward(ids).data
            prefill = model.forward_slots(ids, model.new_kv_cache(2),
                                          [0, 1]).data
        assert logits.dtype == prefill.dtype == np.float32
        np.testing.assert_array_equal(logits, prefill)
        loss = model.loss(ids, ids)
        loss.backward()
        assert loss.dtype == np.float32
        assert {p.grad.dtype for p in model.parameters()
                if p.grad is not None} == {np.dtype(np.float32)}

    def test_float64_results_unchanged_by_scalar_rule(self):
        """Under the float64 default a scalar is the same float64 0-d
        array as before, so float64 results keep every bit."""
        x = np.random.default_rng(1).normal(size=(4, 5))
        t = Tensor(x)
        np.testing.assert_array_equal(
            (t * (1.0 / np.sqrt(8)) + 1e-6).mean(axis=-1).data,
            (x * np.asarray(1.0 / np.sqrt(8)) + np.asarray(1e-6)).sum(
                axis=-1) * np.asarray(1.0 / 5))
