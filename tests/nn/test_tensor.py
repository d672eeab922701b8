"""Unit tests for the autograd tensor: op semantics and gradient correctness."""

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, no_grad, ones, stack, tensor, where, zeros
from tests.conftest import numeric_gradient


def grad_check(build_fn, *shapes, seed=0, tol=1e-5):
    """Compare autograd gradients of ``sum(build_fn(*tensors))`` to numerics."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) + 0.5 for shape in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build_fn(*tensors)
    loss = out.sum()
    loss.backward()
    for i, (arr, t) in enumerate(zip(arrays, tensors)):
        def scalar_fn(x, idx=i):
            args = [Tensor(a) for a in arrays]
            args[idx] = Tensor(x)
            return float(build_fn(*args).sum().data)
        numeric = numeric_gradient(scalar_fn, arr.copy())
        assert t.grad is not None, f"input {i} got no gradient"
        np.testing.assert_allclose(t.grad, numeric, atol=tol, rtol=tol)


class TestConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_requires_grad_promotes_int_to_float(self):
        t = Tensor([1, 2, 3], requires_grad=True)
        assert np.issubdtype(t.dtype, np.floating)

    def test_float16_promoted(self):
        t = Tensor(np.zeros(3, dtype=np.float16))
        assert t.dtype == np.float32

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        d = (a * 2).detach()
        assert not d.requires_grad

    def test_tensor_helper(self):
        assert tensor([1.0]).shape == (1,)

    def test_zeros_ones(self):
        assert zeros(2, 3).shape == (2, 3)
        assert float(ones(2).sum().data) == 2.0

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestArithmeticGradients:
    def test_add(self):
        grad_check(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        grad_check(lambda a, b: a + b, (3, 4), (4,))

    def test_sub(self):
        grad_check(lambda a, b: a - b, (2, 3), (2, 3))

    def test_rsub_scalar(self):
        grad_check(lambda a: 1.0 - a, (2, 3))

    def test_mul(self):
        grad_check(lambda a, b: a * b, (3, 2), (3, 2))

    def test_mul_broadcast_scalar_shape(self):
        grad_check(lambda a, b: a * b, (3, 2), (1,))

    def test_div(self):
        grad_check(lambda a, b: a / b, (2, 2), (2, 2))

    def test_rdiv(self):
        grad_check(lambda a: 2.0 / a, (2, 2))

    def test_neg(self):
        grad_check(lambda a: -a, (4,))

    def test_pow(self):
        grad_check(lambda a: a ** 3, (3,))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        grad_check(lambda a, b: a @ b, (3, 4), (4, 2))

    def test_matmul_batched(self):
        grad_check(lambda a, b: a @ b, (2, 3, 4), (2, 4, 5))

    def test_matmul_vector_rhs(self):
        grad_check(lambda a, b: a @ b, (3, 4), (4,))

    def test_matmul_vector_lhs(self):
        grad_check(lambda a, b: a @ b, (4,), (4, 3))

    @pytest.mark.parametrize("left", [np.float64(0.5), np.full((2, 3), 0.5)],
                             ids=["numpy_scalar", "ndarray"])
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
    def test_numpy_left_operand_stays_on_graph(self, left, op):
        """numpy on the left hands the op to the reflected Tensor method
        instead of returning an object ndarray off the graph."""
        fn = {"add": lambda a: left + a, "sub": lambda a: left - a,
              "mul": lambda a: left * a, "truediv": lambda a: left / a}[op]
        out = fn(Tensor(np.ones((2, 3)), requires_grad=True))
        assert isinstance(out, Tensor)
        assert out.requires_grad
        grad_check(fn, (2, 3))

    def test_numpy_left_matmul_raises(self):
        with pytest.raises(TypeError):
            np.ones((2, 3)) @ Tensor(np.ones((3, 2)), requires_grad=True)


class TestReductionGradients:
    def test_sum_all(self):
        grad_check(lambda a: a.sum(), (3, 4))

    def test_sum_axis(self):
        grad_check(lambda a: a.sum(axis=1), (3, 4))

    def test_sum_keepdims(self):
        grad_check(lambda a: a.sum(axis=0, keepdims=True), (3, 4))

    def test_mean(self):
        grad_check(lambda a: a.mean(axis=-1), (3, 4))

    def test_max_all(self):
        grad_check(lambda a: a.max(), (3, 4))

    def test_max_axis(self):
        grad_check(lambda a: a.max(axis=1), (5, 3))

    def test_var(self):
        grad_check(lambda a: a.var(axis=-1), (3, 6))


class TestElementwiseGradients:
    def test_exp(self):
        grad_check(lambda a: a.exp(), (3, 3))

    def test_log(self):
        grad_check(lambda a: (a * a + 1.0).log(), (3,))

    def test_sqrt(self):
        grad_check(lambda a: (a * a + 1.0).sqrt(), (4,))

    def test_sigmoid(self):
        grad_check(lambda a: a.sigmoid(), (3, 2))

    def test_silu(self):
        grad_check(lambda a: a.silu(), (3, 4))

    def test_abs(self):
        grad_check(lambda a: (a + 10.0).abs(), (3,))

    def test_clip(self):
        a = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        a.clip(0.0, 1.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])


class TestShapeGradients:
    def test_reshape(self):
        grad_check(lambda a: a.reshape(6), (2, 3))

    def test_reshape_tuple(self):
        grad_check(lambda a: a.reshape((3, 2)), (2, 3))

    def test_transpose_default(self):
        grad_check(lambda a: a.transpose(), (2, 3))

    def test_transpose_axes(self):
        grad_check(lambda a: a.transpose(1, 0, 2), (2, 3, 4))

    def test_swapaxes(self):
        grad_check(lambda a: a.swapaxes(0, 1), (2, 3))

    def test_getitem_int_rows(self):
        idx = np.array([0, 2, 2])
        grad_check(lambda a: a[idx], (4, 3))

    def test_getitem_duplicate_rows_accumulate(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        a[np.array([1, 1])].sum().backward()
        np.testing.assert_array_equal(a.grad[1], [2.0, 2.0])
        np.testing.assert_array_equal(a.grad[0], [0.0, 0.0])

    def test_getitem_fast_path_matches_add_at(self):
        """The sorted segment-reduce backward equals the np.add.at scatter."""
        rng = np.random.default_rng(7)
        idx = rng.integers(0, 5, size=32)  # unsorted, with duplicates
        g = rng.normal(size=(32, 3))
        a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        (a[idx] * g).sum().backward()
        expected = np.zeros((5, 3))
        np.add.at(expected, idx, g)
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    def test_getitem_fast_path_gradcheck(self):
        idx = np.array([3, 0, 3, 1, 1, 3])
        grad_check(lambda a: a[idx], (4, 2))

    def test_getitem_negative_rows(self):
        """Negative ids alias positive ones, so they must accumulate."""
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        a[np.array([-1, 2, 0])].sum().backward()
        np.testing.assert_array_equal(a.grad[2], [2.0, 2.0])
        np.testing.assert_array_equal(a.grad[0], [1.0, 1.0])
        grad_check(lambda a: a[np.array([-1, 1, -2])], (3, 2))

    def test_getitem_2d_index(self):
        idx = np.array([[0, 1], [1, 2]])
        grad_check(lambda a: a[idx], (3, 2))

    def test_slice(self):
        grad_check(lambda a: a[1:3], (5, 2))

    def test_expand_squeeze(self):
        grad_check(lambda a: a.expand_dims(1).squeeze(1), (3, 2))

    def test_concatenate(self):
        grad_check(lambda a, b: concatenate([a, b], axis=0), (2, 3), (4, 3))

    def test_concatenate_axis1(self):
        grad_check(lambda a, b: concatenate([a, b], axis=1), (2, 3), (2, 2))

    def test_stack(self):
        grad_check(lambda a, b: stack([a, b], axis=0), (2, 3), (2, 3))

    def test_where(self):
        cond = np.array([True, False, True])
        grad_check(lambda a, b: where(cond, a, b), (3,), (3,))


class TestBackwardMechanics:
    def test_backward_requires_scalar_or_seed(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_seed(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        (a * 3).backward(np.ones((2, 2)))
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 3.0))

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_grad_accumulates_over_backward_calls(self):
        a = Tensor([2.0], requires_grad=True)
        (a * 3).sum().backward()
        (a * 3).sum().backward()
        np.testing.assert_array_equal(a.grad, [6.0])

    def test_diamond_graph_accumulates(self):
        # loss = a*a + a*a uses `a` twice through separate paths
        a = Tensor([3.0], requires_grad=True)
        b = a * a
        c = a * a
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, [12.0])

    def test_deep_chain(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(50):
            x = x * 1.01
        x.sum().backward()
        np.testing.assert_allclose(a.grad, [1.01 ** 50], rtol=1e-10)

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_blocks_recording(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores(self):
        from repro.nn import is_grad_enabled
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_mixed_requires_grad(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0])
        assert b.grad is None
