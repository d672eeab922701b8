"""Tests for stateless differentiable functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor
from repro.nn.functional import (cross_entropy, dropout, embedding_lookup,
                                 log_softmax, one_hot, scatter_rows, softmax,
                                 top_k)
from tests.conftest import numeric_gradient
from tests.nn.test_tensor import grad_check


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 5)))
        out = softmax(x).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_stable_under_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = softmax(x).data
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_gradient(self):
        grad_check(lambda a: softmax(a, axis=-1), (3, 4))

    def test_gradient_axis0(self):
        grad_check(lambda a: softmax(a, axis=0), (3, 4))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(log_softmax(Tensor(x)).data,
                                   np.log(softmax(Tensor(x)).data), atol=1e-12)

    def test_log_softmax_gradient(self):
        grad_check(lambda a: log_softmax(a), (3, 4))

    @given(st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_softmax_probability_simplex(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        out = softmax(Tensor(rng.normal(size=(rows, cols)) * 5)).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(rows), atol=1e-9)


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(4, 5))
        targets = np.array([0, 2, 4, 1])
        loss = cross_entropy(Tensor(logits), targets)
        logp = np.log(softmax(Tensor(logits)).data)
        expected = -logp[np.arange(4), targets].mean()
        np.testing.assert_allclose(loss.data, expected, atol=1e-12)

    def test_gradient(self, rng):
        targets = np.array([1, 0, 2])
        grad_check(lambda a: cross_entropy(a, targets), (3, 4))

    def test_ignore_index(self, rng):
        logits = rng.normal(size=(3, 4))
        targets = np.array([1, -100, 2])
        loss = cross_entropy(Tensor(logits), targets, ignore_index=-100)
        reference = cross_entropy(Tensor(logits[[0, 2]]), targets[[0, 2]])
        np.testing.assert_allclose(loss.data, reference.data, atol=1e-12)

    def test_all_ignored_raises(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, -1]),
                          ignore_index=-1)

    def test_3d_logits(self, rng):
        logits = rng.normal(size=(2, 3, 5))
        targets = rng.integers(0, 5, size=(2, 3))
        loss = cross_entropy(Tensor(logits), targets)
        assert loss.data.shape == ()
        assert float(loss.data) > 0


class TestEmbedding:
    def test_lookup_values(self, rng):
        weight = rng.normal(size=(10, 4))
        idx = np.array([[1, 3], [5, 1]])
        out = embedding_lookup(Tensor(weight), idx)
        np.testing.assert_array_equal(out.data, weight[idx])

    def test_gradient_accumulates_duplicates(self):
        weight = Tensor(np.zeros((4, 2)), requires_grad=True)
        out = embedding_lookup(weight, np.array([1, 1, 3]))
        out.sum().backward()
        np.testing.assert_array_equal(weight.grad[1], [2.0, 2.0])
        np.testing.assert_array_equal(weight.grad[3], [1.0, 1.0])
        np.testing.assert_array_equal(weight.grad[0], [0.0, 0.0])


class TestTopK:
    def test_values_sorted_descending(self, rng):
        x = rng.normal(size=(5, 8))
        vals, idx = top_k(x, 3)
        assert np.all(np.diff(vals, axis=-1) <= 0)

    def test_indices_match_values(self, rng):
        x = rng.normal(size=(4, 6))
        vals, idx = top_k(x, 2)
        np.testing.assert_array_equal(np.take_along_axis(x, idx, -1), vals)

    def test_matches_argsort(self, rng):
        x = rng.normal(size=(10,))
        _, idx = top_k(x, 4)
        np.testing.assert_array_equal(np.sort(idx), np.sort(np.argsort(-x)[:4]))

    def test_exact_ties_keep_ascending_index_order(self):
        x = np.array([[0.25, 0.5, 0.25, 0.5, 0.1],
                      [0.2, 0.2, 0.2, 0.2, 0.2],
                      [0.1, 0.3, 0.3, 0.3, 0.0]])
        vals, idx = top_k(x, 3)
        np.testing.assert_array_equal(idx, [[1, 3, 0], [0, 1, 2], [1, 2, 3]])
        np.testing.assert_array_equal(vals, [[0.5, 0.5, 0.25],
                                             [0.2, 0.2, 0.2],
                                             [0.3, 0.3, 0.3]])
        # any axis: the tie order holds along axis 0 as well
        vals0, idx0 = top_k(x.T, 3, axis=0)
        np.testing.assert_array_equal(idx0, idx.T)
        np.testing.assert_array_equal(vals0, vals.T)
        # a long axis, where an unstable sort would reorder the ties
        wide = np.tile([0.25, 0.5], 20)
        _, idx = top_k(wide, 8)
        np.testing.assert_array_equal(idx, np.arange(1, 17, 2))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k(np.zeros((2, 3)), 4)
        with pytest.raises(ValueError):
            top_k(np.zeros((2, 3)), 0)

    @given(st.integers(2, 10), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_property_topk_are_largest(self, n, k):
        if k > n:
            return
        rng = np.random.default_rng(n * 100 + k)
        x = rng.normal(size=(n,))
        vals, idx = top_k(x, k)
        others = np.delete(x, idx)
        if len(others):
            assert vals.min() >= others.max() - 1e-12


class TestHelpers:
    def test_one_hot(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_nd(self):
        out = one_hot(np.array([[0], [1]]), 2)
        assert out.shape == (2, 1, 2)

    def test_dropout_eval_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = dropout(x, 0.5, rng, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_zero_p_identity(self, rng):
        x = Tensor(rng.normal(size=(5,)))
        assert dropout(x, 0.0, rng, training=True) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_dropout_invalid_p(self, rng):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, rng)


class TestScatterRows:
    def test_scatter_sums_duplicates(self):
        values = Tensor(np.ones((3, 2)))
        out = scatter_rows(values, np.array([0, 0, 2]), 4)
        np.testing.assert_array_equal(out.data,
                                      [[2, 2], [0, 0], [1, 1], [0, 0]])

    def test_gradient(self):
        row_ids = np.array([1, 3, 1])
        grad_check(lambda a: scatter_rows(a, row_ids, 5), (3, 2))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            scatter_rows(Tensor(np.ones((2, 2))), np.array([[0, 1]]), 3)
        with pytest.raises(ValueError):
            scatter_rows(Tensor(np.ones((2, 2))), np.array([0, 1, 2]), 3)
