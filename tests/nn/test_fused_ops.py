"""Tests for the fused-dispatch primitives and autograd fast paths.

Covers the ops the fused MoE hot loop is built from — ``index_select``,
``take_along_rows``, ``scatter_rows``/``_segment_sum_rows``, ``fused_swiglu``
(plain and with LoRA adapters), ``lora_linear`` and ``where`` — each
gradient-checked against central differences, plus the
default-dtype machinery and the no-downcast gradient accumulation rule.
"""

import numpy as np
import pytest

from repro.nn import Tensor, default_dtype, get_default_dtype, ones, \
    set_default_dtype, where, zeros
from repro.nn.functional import (_segment_sum_rows, fused_swiglu,
                                 index_select, lora_linear, scatter_rows,
                                 take_along_rows)
from repro.nn.layers import Linear, Parameter

from tests.conftest import numeric_gradient


class TestSegmentSumRows:
    @pytest.mark.parametrize("n", [0, 1, 7, 100])
    def test_matches_add_at(self, n, rng):
        values = rng.normal(size=(n, 5))
        row_ids = rng.integers(0, 9, size=n)
        expected = np.zeros((9, 5))
        np.add.at(expected, row_ids, values)
        np.testing.assert_allclose(
            _segment_sum_rows(values, row_ids, 9), expected, atol=1e-12)

    def test_sorted_ids_skip_resort(self, rng):
        values = rng.normal(size=(6, 3))
        row_ids = np.array([0, 0, 2, 2, 2, 5])
        expected = np.zeros((6, 3))
        np.add.at(expected, row_ids, values)
        np.testing.assert_allclose(
            _segment_sum_rows(values, row_ids, 6), expected, atol=1e-12)


class TestIndexSelect:
    def test_forward_matches_fancy_indexing(self, rng):
        x = rng.normal(size=(8, 4))
        row_ids = np.array([3, 3, 0, 7])
        out = index_select(Tensor(x), row_ids)
        np.testing.assert_array_equal(out.data, x[row_ids])

    def test_gradient_with_duplicates(self, rng):
        x = rng.normal(size=(6, 3))
        row_ids = np.array([2, 2, 2, 5, 0])
        xt = Tensor(x.copy(), requires_grad=True)
        (index_select(xt, row_ids) ** 2).sum().backward()
        numeric = numeric_gradient(
            lambda a: float((a[row_ids] ** 2).sum()), x.copy())
        np.testing.assert_allclose(xt.grad, numeric, atol=1e-6)

    def test_unique_rows_gradient(self, rng):
        x = rng.normal(size=(6, 3))
        row_ids = np.array([1, 3, 5])
        xt = Tensor(x.copy(), requires_grad=True)
        (index_select(xt, row_ids, unique_rows=True) ** 2).sum().backward()
        numeric = numeric_gradient(
            lambda a: float((a[row_ids] ** 2).sum()), x.copy())
        np.testing.assert_allclose(xt.grad, numeric, atol=1e-6)

    def test_rejects_2d_ids(self):
        with pytest.raises(ValueError):
            index_select(Tensor(np.zeros((3, 2))), np.zeros((2, 2), dtype=int))


class TestTakeAlongRows:
    def test_forward(self, rng):
        x = rng.normal(size=(4, 6))
        cols = np.array([[0, 5], [1, 2], [3, 4], [5, 0]])
        out = take_along_rows(Tensor(x), cols)
        np.testing.assert_array_equal(
            out.data, np.take_along_axis(x, cols, axis=1))

    def test_gradient(self, rng):
        x = rng.normal(size=(4, 6))
        cols = np.array([[0, 5], [1, 2], [3, 4], [5, 0]])
        xt = Tensor(x.copy(), requires_grad=True)
        (take_along_rows(xt, cols) ** 2).sum().backward()
        numeric = numeric_gradient(
            lambda a: float((np.take_along_axis(a, cols, axis=1) ** 2).sum()),
            x.copy())
        np.testing.assert_allclose(xt.grad, numeric, atol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            take_along_rows(Tensor(np.zeros(3)), np.zeros((1, 1), dtype=int))


class TestScatterRowsGradient:
    def test_gradient(self, rng):
        values = rng.normal(size=(5, 3))
        row_ids = np.array([0, 2, 2, 4, 0])
        vt = Tensor(values.copy(), requires_grad=True)
        (scatter_rows(vt, row_ids, 6) ** 2).sum().backward()

        def fn(v):
            out = np.zeros((6, 3))
            np.add.at(out, row_ids, v)
            return float((out ** 2).sum())

        numeric = numeric_gradient(fn, values.copy())
        np.testing.assert_allclose(vt.grad, numeric, atol=1e-6)


class TestFusedSwiGLU:
    def _weights(self, rng):
        return (rng.normal(size=(5, 4)), rng.normal(size=(5, 4)),
                rng.normal(size=(4, 5)))

    @staticmethod
    def _forward_np(x, wg, wu, wd):
        g = x @ wg.T
        return ((g / (1.0 + np.exp(-g))) * (x @ wu.T)) @ wd.T

    def test_matches_layerwise_forward(self, rng):
        wg, wu, wd = self._weights(rng)
        x = rng.normal(size=(7, 4))
        out = fused_swiglu(Tensor(x), Tensor(wg), Tensor(wu), Tensor(wd))
        np.testing.assert_allclose(out.data, self._forward_np(x, wg, wu, wd),
                                   atol=1e-12)

    def test_gradients_all_inputs(self, rng):
        wg, wu, wd = self._weights(rng)
        x = rng.normal(size=(7, 4))
        arrays = {"x": x, "wg": wg, "wu": wu, "wd": wd}
        tensors = {k: Tensor(v.copy(), requires_grad=True)
                   for k, v in arrays.items()}
        out = fused_swiglu(tensors["x"], tensors["wg"], tensors["wu"],
                           tensors["wd"])
        (out ** 2).sum().backward()
        for name in arrays:
            def fn(a, name=name):
                inputs = {k: (a if k == name else arrays[k]) for k in arrays}
                return float((self._forward_np(
                    inputs["x"], inputs["wg"], inputs["wu"],
                    inputs["wd"]) ** 2).sum())
            numeric = numeric_gradient(fn, arrays[name].copy())
            np.testing.assert_allclose(tensors[name].grad, numeric,
                                       atol=1e-5, err_msg=name)

    def test_frozen_weights_skip_grads(self, rng):
        wg, wu, wd = self._weights(rng)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        params = [Tensor(w, requires_grad=False) for w in (wg, wu, wd)]
        fused_swiglu(x, *params).sum().backward()
        assert x.grad is not None
        assert all(p.grad is None for p in params)

    SCALING = 1.5

    @staticmethod
    def _adapters(rng):
        """``(A, B)`` per projection (gate, up, down), rank 2, scaled so
        the branch is a fraction of the base projection."""
        return [(0.3 * rng.normal(size=(2, n_in)),
                 0.3 * rng.normal(size=(n_out, 2)))
                for n_in, n_out in ((4, 5), (4, 5), (5, 4))]

    @staticmethod
    def _masks(rng, rows):
        return [(rng.random(shape) >= 0.3) / 0.7
                for shape in ((rows, 4), (rows, 4), (rows, 5))]

    @classmethod
    def _forward_np_lora(cls, x, wg, wu, wd, adapters, masks):
        def project(v, w, ab, mask):
            a, b = ab
            return v @ w.T + ((v * mask) @ a.T) @ b.T * cls.SCALING
        g = project(x, wg, adapters[0], masks[0])
        h = (g / (1.0 + np.exp(-g))) * project(x, wu, adapters[1], masks[1])
        return project(h, wd, adapters[2], masks[2])

    def _lora_tensors(self, adapters, masks, requires_grad=True):
        return [(Tensor(a.copy(), requires_grad=requires_grad),
                 Tensor(b.copy(), requires_grad=requires_grad),
                 self.SCALING, mask)
                for (a, b), mask in zip(adapters, masks)]

    def test_lora_gradients_all_inputs(self, rng):
        """Central differences for ``x``, the three weights and the six
        adapter matrices, with a dropout mask on every projection."""
        wg, wu, wd = self._weights(rng)
        x = rng.normal(size=(7, 4))
        adapters = self._adapters(rng)
        masks = self._masks(rng, 7)
        arrays = {"x": x, "wg": wg, "wu": wu, "wd": wd}
        for proj, (a, b) in zip(("gate", "up", "down"), adapters):
            arrays[f"a_{proj}"], arrays[f"b_{proj}"] = a, b
        tensors = {k: Tensor(v.copy(), requires_grad=True)
                   for k, v in arrays.items()}
        lora = [(tensors[f"a_{proj}"], tensors[f"b_{proj}"], self.SCALING,
                 mask) for proj, mask in zip(("gate", "up", "down"), masks)]
        out = fused_swiglu(tensors["x"], tensors["wg"], tensors["wu"],
                           tensors["wd"], lora=lora)
        np.testing.assert_allclose(
            out.data, self._forward_np_lora(x, wg, wu, wd, adapters, masks),
            atol=1e-12)
        (out ** 2).sum().backward()
        for name in arrays:
            def fn(v, name=name):
                inputs = {k: (v if k == name else arrays[k]) for k in arrays}
                pairs = [(inputs[f"a_{p}"], inputs[f"b_{p}"])
                         for p in ("gate", "up", "down")]
                return float((self._forward_np_lora(
                    inputs["x"], inputs["wg"], inputs["wu"], inputs["wd"],
                    pairs, masks) ** 2).sum())
            numeric = numeric_gradient(fn, arrays[name].copy())
            np.testing.assert_allclose(tensors[name].grad, numeric,
                                       rtol=1e-6, atol=1e-5, err_msg=name)

    def test_frozen_bases_with_trainable_adapters(self, rng):
        """Frozen bases get no gradient and cost no GEMM: the node's
        backward returns ``None`` in their slots."""
        wg, wu, wd = self._weights(rng)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        bases = [Tensor(w, requires_grad=False) for w in (wg, wu, wd)]
        lora = self._lora_tensors(self._adapters(rng), self._masks(rng, 3))
        out = fused_swiglu(x, *bases, lora=lora)
        contributions = out._backward(np.ones_like(out.data))
        assert len(contributions) == len(out._parents) == 10
        assert all(c is None for c in contributions[1:4])
        assert all(c is not None for c in contributions[4:])
        out.sum().backward()
        assert x.grad is not None
        assert all(w.grad is None for w in bases)
        assert all(a.grad is not None and b.grad is not None
                   for a, b, _, _ in lora)


class TestLoRALinearOp:
    def test_gradients_all_inputs(self, rng):
        """Central differences on a 3-D input with bias and dropout mask."""
        arrays = {"x": rng.normal(size=(2, 3, 4)),
                  "w": rng.normal(size=(5, 4)), "a": rng.normal(size=(2, 4)),
                  "b": rng.normal(size=(5, 2)), "bias": rng.normal(size=5)}
        mask = (rng.random((2, 3, 4)) >= 0.3) / 0.7

        def forward_np(x, w, a, b, bias):
            return x @ w.T + bias + ((x * mask) @ a.T) @ b.T * 0.5

        tensors = {k: Tensor(v.copy(), requires_grad=True)
                   for k, v in arrays.items()}
        out = lora_linear(tensors["x"], tensors["w"], tensors["a"],
                          tensors["b"], 0.5, mask, bias=tensors["bias"])
        assert out._parents == (tensors["x"], tensors["w"], tensors["a"],
                                tensors["b"], tensors["bias"])
        np.testing.assert_allclose(out.data, forward_np(**arrays),
                                   atol=1e-12)
        (out ** 2).sum().backward()
        for name in arrays:
            def fn(v, name=name):
                inputs = {k: (v if k == name else arrays[k]) for k in arrays}
                return float((forward_np(**inputs) ** 2).sum())
            numeric = numeric_gradient(fn, arrays[name].copy())
            np.testing.assert_allclose(tensors[name].grad, numeric,
                                       rtol=1e-6, atol=1e-5, err_msg=name)

    def test_frozen_weight_skips_grad(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=False)
        a = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        out = lora_linear(x, w, a, b, 2.0)
        assert out._backward(np.ones((3, 5)))[1] is None
        out.sum().backward()
        assert w.grad is None
        assert all(t.grad is not None for t in (x, a, b))


class TestWhereGradient:
    def test_gradient_both_branches(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        cond = a > 0
        at = Tensor(a.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        (where(cond, at, bt) ** 2).sum().backward()
        num_a = numeric_gradient(
            lambda v: float((np.where(cond, v, b) ** 2).sum()), a.copy())
        num_b = numeric_gradient(
            lambda v: float((np.where(cond, a, v) ** 2).sum()), b.copy())
        np.testing.assert_allclose(at.grad, num_a, atol=1e-6)
        np.testing.assert_allclose(bt.grad, num_b, atol=1e-6)


class TestDefaultDtype:
    def teardown_method(self):
        set_default_dtype(np.float64)

    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64

    def test_context_manager_restores(self):
        with default_dtype(np.float32):
            assert get_default_dtype() == np.float32
            assert zeros(2, 2).data.dtype == np.float32
            assert ones(3).data.dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    def test_parameter_cast_to_default(self):
        with default_dtype(np.float32):
            p = Parameter(np.zeros(4))
            assert p.data.dtype == np.float32
            layer = Linear(3, 2, rng=np.random.default_rng(0))
            assert layer.weight.data.dtype == np.float32

    def test_explicit_arrays_keep_dtype(self):
        with default_dtype(np.float32):
            t = Tensor(np.zeros(3, dtype=np.float64))
            assert t.data.dtype == np.float64

    def test_float32_graph_stays_float32(self):
        with default_dtype(np.float32):
            layer = Linear(4, 4, rng=np.random.default_rng(0))
            x = Tensor(np.ones((2, 4), dtype=np.float32), requires_grad=True)
            layer(x).sum().backward()
            assert x.grad.dtype == np.float32
            assert layer.weight.grad.dtype == np.float32


class TestAccumulateNoDowncast:
    def test_float64_grad_onto_float32_leaf(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        t._accumulate(np.ones(3, dtype=np.float64))
        assert t.grad.dtype == np.float64
        t._accumulate(np.ones(3, dtype=np.float32))
        assert t.grad.dtype == np.float64
        np.testing.assert_array_equal(t.grad, 2.0)

    def test_float32_then_float64_upcasts(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        t._accumulate(np.ones(3, dtype=np.float32))
        assert t.grad.dtype == np.float32
        t._accumulate(np.ones(3, dtype=np.float64))
        assert t.grad.dtype == np.float64
        np.testing.assert_array_equal(t.grad, 2.0)

    def test_broadcast_grad_materialized(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        t._accumulate(np.broadcast_to(np.float64(1.0), (2, 3)))
        t._accumulate(np.ones((2, 3)))
        np.testing.assert_array_equal(t.grad, 2.0)
