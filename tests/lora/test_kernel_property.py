"""The one-node LoRA kernels against the layered oracle.

``LoRALinear.forward`` (one ``lora_linear`` node) and the LoRA path of
``ExpertFFN.forward_fused`` (one ``fused_swiglu`` node) are checked against
:func:`tests.oracles.reference_lora_forward` and its layer-by-layer SwiGLU
composition: the forward bitwise, every gradient within a tolerance fixed
by the dtype (its atol scaled by the gradient's magnitude), and every
adapter's dropout generator in the same end state.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lora import LoRAConfig, LoRALinear
from repro.models.expert import ExpertFFN
from repro.nn import Linear, Tensor, default_dtype
from tests.oracles import reference_lora_forward

# (rtol, atol) per dtype.  The atol is scaled by the gradient's largest
# magnitude: both sides round sums of up to 80 rows in different orders,
# so an element that cancels to near zero carries the rounding of its
# terms, not of its value (float32 misses a bare 1e-6 by 2.3e-6 on a
# 14-row B gradient whose entries reach 13).
TOLERANCE = {np.dtype(np.float64): (1e-9, 1e-12),
             np.dtype(np.float32): (1e-4, 1e-6)}


@st.composite
def cases(draw):
    return dict(
        rows=draw(st.integers(1, 40)), hidden=draw(st.integers(1, 16)),
        ffn=draw(st.integers(1, 24)), rank=draw(st.integers(1, 8)),
        alpha=draw(st.floats(0.25, 32.0)),
        dropout=draw(st.sampled_from([0.0, 0.3])),
        training=draw(st.booleans()),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        frozen=draw(st.booleans()), three_d=draw(st.booleans()),
        bias=draw(st.booleans()), seed=draw(st.integers(0, 2 ** 16)))


def _adapt(linear, config, rng, ordinal, case):
    """Wrap ``linear``; a nonzero ``B`` so the branch contributes."""
    adapted = LoRALinear(linear, config, rng=rng, ordinal=ordinal)
    adapted.lora_b.data = 0.1 * rng.normal(
        size=adapted.lora_b.shape).astype(case["dtype"])
    for p in linear.parameters():
        p.requires_grad = not case["frozen"]
    adapted.train(case["training"])
    return adapted


def _config(case):
    return LoRAConfig(rank=case["rank"], alpha=case["alpha"],
                      dropout=case["dropout"], seed=case["seed"])


def _run(module, call, x, gy):
    """Forward + backward; ``(out, {name: grad})`` with the input's grad
    under ``"x"``."""
    xt = Tensor(x.copy(), requires_grad=True)
    out = call(module, xt)
    out.backward(gy)
    grads = {name: p.grad for name, p in module.named_parameters()
             if p.requires_grad}
    grads["x"] = xt.grad
    return out.data, grads


def _check(case, kernel, oracle):
    """(a) bitwise forward, (b) gradients within the dtype's tolerance,
    (c) identical dropout generator end states."""
    (out, grads), (out_ref, grads_ref) = kernel[:2], oracle[:2]
    assert out.dtype == out_ref.dtype == case["dtype"]
    np.testing.assert_array_equal(out, out_ref)
    assert sorted(grads) == sorted(grads_ref)
    rtol, atol = TOLERANCE[np.dtype(case["dtype"])]
    for name, grad in grads.items():
        ref = grads_ref[name]
        assert grad is not None and ref is not None, name
        np.testing.assert_allclose(
            grad, ref, rtol=rtol, err_msg=name,
            atol=atol * max(1.0, float(np.abs(ref).max())))
    for adapter, adapter_ref in zip(kernel[2], oracle[2]):
        assert adapter._dropout_rng.bit_generator.state == \
            adapter_ref._dropout_rng.bit_generator.state


class TestLoRAKernelsMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    @example(case=dict(rows=1, hidden=1, ffn=1, rank=1, alpha=16.0,
                       dropout=0.3, training=True, dtype=np.float32,
                       frozen=True, three_d=False, bias=False, seed=0))
    def test_lora_linear(self, case):
        rng = np.random.default_rng(case["seed"])
        shape = ((2, case["rows"]) if case["three_d"] else (case["rows"],))
        x = rng.normal(size=shape + (case["hidden"],))
        gy = rng.normal(size=shape + (case["ffn"],))

        def build():
            build_rng = np.random.default_rng(case["seed"])
            with default_dtype(case["dtype"]):
                base = Linear(case["hidden"], case["ffn"], bias=case["bias"],
                              rng=build_rng)
                if case["bias"]:
                    base.bias.data = build_rng.normal(
                        size=case["ffn"]).astype(case["dtype"])
                return _adapt(base, _config(case), build_rng, 0, case)

        with default_dtype(case["dtype"]):
            x, gy = x.astype(case["dtype"]), gy.astype(case["dtype"])
            kernel = build()
            got = _run(kernel, LoRALinear.__call__, x, gy)
            oracle = build()
            ref = _run(oracle, reference_lora_forward, x, gy)
        _check(case, (*got, [kernel]), (*ref, [oracle]))

    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    @example(case=dict(rows=40, hidden=16, ffn=24, rank=8, alpha=16.0,
                       dropout=0.3, training=True, dtype=np.float64,
                       frozen=False, three_d=False, bias=False, seed=3))
    def test_swiglu(self, case):
        rng = np.random.default_rng(case["seed"])
        x = rng.normal(size=(case["rows"], case["hidden"]))
        gy = rng.normal(size=(case["rows"], case["hidden"]))

        def build():
            build_rng = np.random.default_rng(case["seed"])
            with default_dtype(case["dtype"]):
                expert = ExpertFFN(case["hidden"], case["ffn"], rng=build_rng)
                for i, name in enumerate(("w_gate", "w_up", "w_down")):
                    setattr(expert, name, _adapt(getattr(expert, name),
                                                 _config(case), build_rng, i,
                                                 case))
            return expert

        with default_dtype(case["dtype"]):
            x, gy = x.astype(case["dtype"]), gy.astype(case["dtype"])
            kernel = build()
            got = _run(kernel, ExpertFFN.forward_fused, x, gy)
            oracle = build()
            with mock.patch.object(LoRALinear, "forward",
                                   reference_lora_forward):
                ref = _run(oracle, ExpertFFN.forward, x, gy)
        adapters = [(e.w_gate, e.w_up, e.w_down) for e in (kernel, oracle)]
        _check(case, (*got, adapters[0]), (*ref, adapters[1]))
