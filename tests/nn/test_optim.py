"""Tests for SGD / AdamW / gradient clipping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import SGD, AdamW, GradClipper
from repro.nn.layers import Parameter
from tests.oracles import reference_adamw_step


def make_param(value=1.0, grad=0.5):
    p = Parameter(np.array([value]))
    p.grad = np.array([grad])
    return p


class TestSGD:
    def test_plain_update_matches_theorem_assumption(self):
        """w_t = w_{t-1} - mu * grad, exactly (Theorem 1's optimizer)."""
        p = make_param(1.0, 0.5)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.5])

    def test_momentum_accumulates(self):
        p = make_param(0.0, 1.0)
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()
        p.grad = np.array([1.0])
        opt.step()
        # velocity: 1.0 then 1.9 -> total displacement 2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_weight_decay(self):
        p = make_param(2.0, 0.0)
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_skips_param_without_grad(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()
        np.testing.assert_array_equal(p.data, [1.0])

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.0)

    def test_requires_trainable_params(self):
        p = Parameter(np.array([1.0]), requires_grad=False)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1)

    def test_zero_grad(self):
        p = make_param()
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None


class TestAdamW:
    def test_first_step_is_lr_sized(self):
        """With bias correction, the first Adam step magnitude is ~lr."""
        p = make_param(0.0, 0.3)
        AdamW([p], lr=0.01, weight_decay=0.0).step()
        np.testing.assert_allclose(np.abs(p.data), [0.01], rtol=1e-6)

    def test_decoupled_weight_decay(self):
        p = Parameter(np.array([10.0]))
        p.grad = np.array([0.0])
        AdamW([p], lr=0.1, weight_decay=0.01).step()
        # decay applies even with zero gradient (decoupled)
        np.testing.assert_allclose(p.data, [10.0 - 0.1 * 0.01 * 10.0])

    def test_descends_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = AdamW([p], lr=0.5, weight_decay=0.0)
        for _ in range(200):
            p.grad = 2 * p.data  # d/dx x^2
            opt.step()
        assert abs(float(p.data[0])) < 0.5

    def test_paper_defaults(self):
        opt = AdamW([make_param()])
        assert opt.lr == 3e-5
        assert (opt.beta1, opt.beta2) == (0.8, 0.999)
        assert opt.eps == 1e-8
        assert opt.weight_decay == 3e-7

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            AdamW([make_param()], betas=(1.0, 0.9))

    def test_state_is_per_parameter(self):
        p1, p2 = make_param(0.0, 1.0), make_param(0.0, -1.0)
        AdamW([p1, p2], lr=0.1, weight_decay=0.0).step()
        assert p1.data[0] < 0 < p2.data[0]


def _twin_params(rng, shapes, dtypes):
    """Two identical parameter lists; ``dtypes`` cycles over them."""
    values = [rng.normal(size=shape).astype(dtypes[i % len(dtypes)])
              for i, shape in enumerate(shapes)]
    twins = ([Parameter(v) for v in values], [Parameter(v) for v in values])
    for params in twins:
        for p, v in zip(params, values):
            p.data = v.copy()  # a Parameter casts to the default dtype
    return twins


def _set_grads(rng, twins, present):
    for a, b, have in zip(*twins, present):
        grad = rng.normal(size=a.shape).astype(a.dtype) if have else None
        a.grad, b.grad = grad, None if grad is None else grad.copy()


def _assert_same_state(flat, ref):
    assert flat._step == ref._step
    for i, (a, b) in enumerate(zip(flat.params, ref.params)):
        assert a.data.dtype == b.data.dtype
        np.testing.assert_array_equal(a.data, b.data, err_msg=f"param {i}")
        np.testing.assert_array_equal(flat._m[i], ref._m[i])
        np.testing.assert_array_equal(flat._v[i], ref._v[i])


class TestFlatAdamW:
    """The flat-buffer step against the per-tensor loop,
    :func:`tests.oracles.reference_adamw_step`."""

    SHAPES = [(3, 4), (5,), (2, 2, 2), (7, 1), (1,), (4, 6), (6, 4)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), weight_decay=st.sampled_from(
        [0.0, 3e-7, 0.1]), dtypes=st.sampled_from(
        [(np.float64,), (np.float32,), (np.float32, np.float64)]),
        missing=st.floats(0.0, 1.0))
    def test_bitwise_equal_to_per_tensor_loop(self, seed, weight_decay,
                                              dtypes, missing):
        """Random subsets of tensors without a gradient each step; a
        tensor without one keeps its value and moments."""
        rng = np.random.default_rng(seed)
        params, twins = _twin_params(rng, self.SHAPES, dtypes)
        flat = AdamW(params, lr=1e-2, weight_decay=weight_decay)
        ref = AdamW(twins, lr=1e-2, weight_decay=weight_decay)
        for _ in range(12):
            _set_grads(rng, (params, twins),
                       rng.random(len(params)) >= missing)
            flat.step()
            reference_adamw_step(ref)
            _assert_same_state(flat, ref)

    def test_moments_are_views_of_one_buffer_per_dtype(self, rng):
        params, _ = _twin_params(rng, self.SHAPES, (np.float32, np.float64))
        opt = AdamW(params)
        for dtype in (np.float32, np.float64):
            ms = [m for m, p in zip(opt._m, params) if p.dtype == dtype]
            base = ms[0].base
            assert base is not None and base.ndim == 1
            assert all(m.base is base and m.dtype == dtype for m in ms)
            assert base.size == sum(m.size for m in ms)

    def test_in_place_moment_writes_are_the_state(self, rng):
        """Checkpoint loading writes ``_m[i][...]`` in place; the next
        step must read what it wrote."""
        params, twins = _twin_params(rng, self.SHAPES, (np.float64,))
        flat, ref = AdamW(params, lr=1e-2), AdamW(twins, lr=1e-2)
        for opt in (flat, ref):
            opt._step = 5
            for i, (m, v) in enumerate(zip(opt._m, opt._v)):
                m[...] = np.random.default_rng(i).normal(size=m.shape)
                v[...] = np.random.default_rng(i + 99).random(size=v.shape)
        _set_grads(rng, (params, twins), [True] * len(params))
        flat.step()
        reference_adamw_step(ref)
        _assert_same_state(flat, ref)

    def test_step_allocates_no_flat_sized_array(self):
        """Only per-tensor copies are allocated: a flat-size temporary
        per step pushed a finetune run's peak RSS up through glibc's
        dynamic mmap threshold."""
        rng = np.random.default_rng(0)
        params, twins = _twin_params(rng, [(40, 50)] * 50, (np.float64,))
        opt = AdamW(params)
        _set_grads(rng, (params, twins), [True] * 45 + [False] * 5)
        flat_bytes = sum(p.data.nbytes for p in params)
        tracemalloc.start()
        try:
            opt.step()  # so that the values the next step frees are traced
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < flat_bytes / 8

    def test_no_gradient_at_all_is_a_no_op_but_counts(self, rng):
        params, twins = _twin_params(rng, self.SHAPES, (np.float64,))
        flat, ref = AdamW(params), AdamW(twins)
        flat.step()
        reference_adamw_step(ref)
        _assert_same_state(flat, ref)


class TestGradClipper:
    def test_clips_large_norm(self):
        p = make_param(0.0, 3.0)
        q = make_param(0.0, 4.0)
        norm = GradClipper(1.0).clip([p, q])
        np.testing.assert_allclose(norm, 5.0)
        total = np.sqrt(p.grad[0] ** 2 + q.grad[0] ** 2)
        np.testing.assert_allclose(total, 1.0)

    def test_leaves_small_norm(self):
        p = make_param(0.0, 0.1)
        GradClipper(1.0).clip([p])
        np.testing.assert_allclose(p.grad, [0.1])

    def test_rejects_bad_max(self):
        with pytest.raises(ValueError):
            GradClipper(0.0)
