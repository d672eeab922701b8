"""The one-node attention and RMSNorm kernels against their layered oracles.

``MultiHeadAttention.forward`` (one ``attention`` node) and
``RMSNorm.forward`` (one ``rms_norm`` node) are checked against
:func:`tests.oracles.reference_attention_forward` and
:func:`tests.oracles.reference_rms_norm_forward`, with LoRA projections
running the layered :func:`tests.oracles.reference_lora_forward` on the
oracle side: the forward bitwise, every parent's gradient within a
tolerance fixed by the dtype (rtol 1e-10 in float64; the atol is scaled by
the largest gradient, since both sides round sums in different orders), and
every adapter's dropout generator in the same end state.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lora import LoRAConfig, LoRALinear
from repro.nn import Linear, MultiHeadAttention, RMSNorm, Tensor, default_dtype
from tests.oracles import (reference_attention_forward,
                           reference_lora_forward, reference_rms_norm_forward)

TOLERANCE = {np.dtype(np.float64): (1e-10, 1e-12),
             np.dtype(np.float32): (1e-4, 1e-6)}

PROJECTIONS = ("q_proj", "k_proj", "v_proj", "o_proj")


@st.composite
def attention_cases(draw):
    return dict(
        batch=draw(st.integers(1, 3)), seq=draw(st.integers(1, 12)),
        heads=draw(st.integers(1, 4)), head_dim=draw(st.integers(1, 6)),
        causal=draw(st.booleans()), lora=draw(st.booleans()),
        rank=draw(st.integers(1, 4)), dropout=draw(st.sampled_from([0.0, 0.3])),
        training=draw(st.booleans()), bias=draw(st.booleans()),
        frozen=draw(st.booleans()), input_grad=draw(st.booleans()),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        seed=draw(st.integers(0, 2 ** 16)))


def _build_attention(case):
    """A seeded attention layer; with ``lora`` each projection is wrapped
    (nonzero ``B``), with ``bias`` each base carries a nonzero bias."""
    rng = np.random.default_rng(case["seed"])
    dim = case["heads"] * case["head_dim"]
    with default_dtype(case["dtype"]):
        attn = MultiHeadAttention(dim, case["heads"], causal=case["causal"],
                                  rng=rng)
        config = LoRAConfig(rank=case["rank"], dropout=case["dropout"],
                            seed=case["seed"])
        for i, name in enumerate(PROJECTIONS):
            proj = Linear(dim, dim, bias=case["bias"], rng=rng)
            if case["bias"]:
                proj.bias.data = rng.normal(size=dim).astype(case["dtype"])
            base = proj
            if case["lora"]:
                proj = LoRALinear(base, config, rng=rng, ordinal=i)
                proj.lora_b.data = 0.1 * rng.normal(
                    size=proj.lora_b.shape).astype(case["dtype"])
            for p in base.parameters():
                p.requires_grad = not case["frozen"]
            setattr(attn, name, proj)
    attn.train(case["training"])
    return attn


def _run(module, call, x, gy, input_grad):
    """Forward + backward; ``(out, {name: grad})``, the input's gradient
    under ``"x"``."""
    xt = Tensor(x.copy(), requires_grad=input_grad)
    out = call(module, xt)
    out.backward(gy)
    grads = {name: p.grad for name, p in module.named_parameters()
             if p.requires_grad}
    if input_grad:
        grads["x"] = xt.grad
    return out.data, grads


def _check(dtype, got, ref, scale=0.0):
    """Bitwise forward; gradients within the dtype's rtol and an atol
    scaled by ``scale``, the size of the terms a gradient sums, or at
    least by the case's largest gradient."""
    (out, grads), (out_ref, grads_ref) = got, ref
    assert out.dtype == out_ref.dtype == dtype
    np.testing.assert_array_equal(out, out_ref)
    assert sorted(grads) == sorted(grads_ref)
    rtol, atol = TOLERANCE[np.dtype(dtype)]
    # A gradient that is zero in exact arithmetic (the key bias's: softmax
    # ignores a per-row shift) holds only the rounding of its terms.
    atol *= max([1.0, scale] + [float(np.abs(g).max())
                                for g in grads_ref.values()])
    for name, grad in grads.items():
        want = grads_ref[name]
        assert grad is not None and want is not None, name
        assert grad.dtype == want.dtype == dtype, name
        np.testing.assert_allclose(grad, want, rtol=rtol, atol=atol,
                                   err_msg=name)


class TestAttentionKernelMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=attention_cases())
    @example(case=dict(batch=2, seq=9, heads=2, head_dim=4, causal=True,
                       lora=True, rank=4, dropout=0.3, training=True,
                       bias=False, frozen=True, input_grad=True,
                       dtype=np.float64, seed=7))
    @example(case=dict(batch=1, seq=1, heads=1, head_dim=1, causal=False,
                       lora=False, rank=1, dropout=0.0, training=False,
                       bias=True, frozen=False, input_grad=False,
                       dtype=np.float32, seed=0))
    def test_forward_bitwise_and_gradients(self, case):
        rng = np.random.default_rng(case["seed"] + 1)
        dim = case["heads"] * case["head_dim"]
        shape = (case["batch"], case["seq"], dim)
        x = rng.normal(size=shape).astype(case["dtype"])
        gy = rng.normal(size=shape).astype(case["dtype"])
        # Something must take a gradient.
        input_grad = case["input_grad"] or (case["frozen"]
                                            and not case["lora"])
        kernel, oracle = _build_attention(case), _build_attention(case)
        got = _run(kernel, MultiHeadAttention.__call__, x, gy, input_grad)
        with mock.patch.object(LoRALinear, "forward", reference_lora_forward):
            ref = _run(oracle, reference_attention_forward, x, gy,
                       input_grad)
        _check(case["dtype"], got, ref)
        if case["lora"]:
            for name in PROJECTIONS:
                assert getattr(kernel, name)._dropout_rng.bit_generator.state \
                    == getattr(oracle, name)._dropout_rng.bit_generator.state

    def test_is_one_node_whose_parents_are_the_projections(self, rng):
        case = dict(batch=2, seq=5, heads=2, head_dim=3, causal=True,
                    lora=True, rank=2, dropout=0.1, training=True, bias=False,
                    frozen=True, input_grad=True, dtype=np.float64, seed=1)
        attn = _build_attention(case)
        x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
        out = attn(x)
        assert all(p._backward is None for p in out._parents)
        adapters = [getattr(attn, name) for name in PROJECTIONS]
        assert out._parents == (x,) + tuple(
            t for a in adapters for t in (a.base.weight, a.lora_a, a.lora_b))


@st.composite
def norm_cases(draw):
    return dict(
        lead=draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)),
        dim=draw(st.integers(1, 16)), eps=draw(st.sampled_from([1e-6, 1e-2])),
        weight_grad=draw(st.booleans()), input_grad=draw(st.booleans()),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        seed=draw(st.integers(0, 2 ** 16)))


class TestRMSNormKernelMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=norm_cases())
    def test_forward_bitwise_and_gradients(self, case):
        rng = np.random.default_rng(case["seed"])
        shape = tuple(case["lead"]) + (case["dim"],)
        x = rng.normal(size=shape).astype(case["dtype"])
        gy = rng.normal(size=shape).astype(case["dtype"])
        weight = rng.normal(size=case["dim"]).astype(case["dtype"])

        def build():
            with default_dtype(case["dtype"]):
                norm = RMSNorm(case["dim"], eps=case["eps"])
            norm.weight.data = weight.copy()
            norm.weight.requires_grad = case["weight_grad"]
            return norm

        input_grad = case["input_grad"] or not case["weight_grad"]
        got = _run(build(), RMSNorm.__call__, x, gy, input_grad)
        ref = _run(build(), reference_rms_norm_forward, x, gy, input_grad)
        # The input gradient is a difference of terms of size
        # |g|·|w| / rms, which cancel almost entirely for one feature.
        rms = np.sqrt((x.astype(np.float64) ** 2).mean(axis=-1) + case["eps"])
        _check(case["dtype"], got, ref, scale=float(
            np.abs(gy).max() * np.abs(weight).max() / rms.min()))

    def test_infer_is_forward_bitwise(self, rng):
        norm = RMSNorm(12)
        norm.weight.data = rng.normal(size=12)
        x = rng.normal(size=(3, 5, 12))
        np.testing.assert_array_equal(norm.infer(x), norm(Tensor(x)).data)
