"""Tests for Module mechanics and the layer zoo."""

import numpy as np
import pytest

from repro.nn import (Dropout, Embedding, Linear, Module, Parameter, RMSNorm,
                      Sequential, Tensor)


class TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))
        self.extra = Parameter(np.zeros(3))
        self.blocks = [Linear(2, 2, rng=np.random.default_rng(2))]
        self.lookup = {"a": Linear(2, 2, rng=np.random.default_rng(3))}

    def forward(self, x):
        return self.fc2(self.fc1(x))


class TestModuleDiscovery:
    def test_named_parameters_cover_all_containers(self):
        names = {n for n, _ in TwoLayer().named_parameters()}
        assert "fc1.weight" in names
        assert "fc2.bias" in names
        assert "extra" in names
        assert "blocks.0.weight" in names
        assert "lookup.a.weight" in names

    def test_parameter_count(self):
        m = TwoLayer()
        expected = (4 * 8 + 8) + (8 * 2 + 2) + 3 + (2 * 2 + 2) + (2 * 2 + 2)
        assert m.num_parameters() == expected

    def test_named_modules_includes_nested(self):
        names = {n for n, _ in TwoLayer().named_modules()}
        assert "fc1" in names and "blocks.0" in names and "lookup.a" in names

    def test_freeze(self):
        m = TwoLayer()
        m.freeze()
        assert m.num_parameters(trainable_only=True) == 0
        assert m.num_parameters() > 0

    def test_zero_grad_clears(self):
        m = TwoLayer()
        out = m(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert m.fc1.weight.grad is not None
        m.zero_grad()
        assert m.fc1.weight.grad is None

    def test_train_eval_propagates(self):
        m = TwoLayer()
        m.eval()
        assert not m.blocks[0].training
        m.train()
        assert m.lookup["a"].training


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(5, 3, rng=rng)
        out = layer(Tensor(np.ones((2, 5))))
        assert out.shape == (2, 3)

    def test_matches_manual_affine(self, rng):
        layer = Linear(4, 2, rng=rng)
        x = rng.normal(size=(3, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert layer(Tensor(np.zeros((1, 4)))).data.sum() == 0

    def test_batched_input(self, rng):
        layer = Linear(4, 2, rng=rng)
        out = layer(Tensor(np.ones((2, 3, 4))))
        assert out.shape == (2, 3, 2)

    def test_init_scale(self):
        layer = Linear(100, 50, rng=np.random.default_rng(0))
        bound = 1.0 / np.sqrt(100)
        assert np.abs(layer.weight.data).max() <= bound


class TestNorms:
    def test_rmsnorm_unit_rms(self, rng):
        norm = RMSNorm(16)
        out = norm(Tensor(rng.normal(size=(4, 16)) * 7)).data
        rms = np.sqrt((out ** 2).mean(axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-3)

    def test_rmsnorm_scale_applied(self, rng):
        norm = RMSNorm(4)
        norm.weight.data = np.full(4, 2.0)
        out = norm(Tensor(np.ones((1, 4)))).data
        np.testing.assert_allclose(out, 2.0, atol=1e-5)


class TestEmbeddingLayer:
    def test_lookup_shape(self, rng):
        emb = Embedding(10, 6, rng=rng)
        out = emb(np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 6)

    def test_gradient_reaches_weight(self, rng):
        emb = Embedding(5, 3, rng=rng)
        emb(np.array([0, 1])).sum().backward()
        assert emb.weight.grad is not None


class TestDropoutSequential:
    def test_dropout_eval_identity(self, rng):
        d = Dropout(0.5)
        d.eval()
        x = Tensor(rng.normal(size=(4, 4)))
        np.testing.assert_array_equal(d(x).data, x.data)

    def test_dropout_train_masks(self):
        d = Dropout(0.5, seed=0)
        out = d(Tensor(np.ones((100, 100)))).data
        assert (out == 0).mean() > 0.3

    def test_sequential_chains(self, rng):
        seq = Sequential(Linear(4, 8, rng=rng), Linear(8, 2, rng=rng))
        assert seq(Tensor(np.ones((1, 4)))).shape == (1, 2)
        assert len(seq) == 2
        assert isinstance(seq[0], Linear)

    def test_sequential_parameters_discovered(self, rng):
        seq = Sequential(Linear(4, 4, rng=rng), RMSNorm(4))
        assert seq.num_parameters() == (4 * 4 + 4) + 4
