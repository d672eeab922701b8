"""The MoE dispatch layout: fused vs the reference oracle, array vs fused.

The fused sort → segment-GEMM → scatter-add path must be numerically
interchangeable with the per-(slot, expert) reference loop
(:func:`tests.oracles.reference_dispatch`) — outputs, input gradients, and
every parameter gradient — including the degenerate routing shapes (empty
experts, a single expert, top_k == num_experts).  The array dispatch of
the inference path must equal the fused dispatch bit for bit, and so must
every expert ordering.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import MoEBlock, moe_block
from repro.models.expert import ExpertFFN
from repro.models.moe_block import array_dispatch, fused_dispatch
from repro.nn import Tensor, default_dtype
from tests.conftest import numeric_gradient
from tests.oracles import reference_dispatch

HIDDEN, FFN_HIDDEN = 12, 24


def _block(num_experts, top_k, dtype=np.float64, seed=7):
    with default_dtype(dtype):
        return MoEBlock(HIDDEN, FFN_HIDDEN, num_experts, top_k,
                        rng=np.random.default_rng(seed))


def _run(block, x):
    xt = Tensor(x, requires_grad=True)
    out = block(xt)
    out.backward(np.ones_like(out.data))
    return out.data, xt.grad


def _dispatch_with_grads(dispatch, num_experts, top_k, x):
    """One float64 dispatch through a fresh seeded block's gate, backward
    included; returns the block, the output and the input gradient."""
    block = _block(num_experts, top_k)
    xt = Tensor(x, requires_grad=True)
    out = dispatch(block.experts, xt, block.gate(xt))
    out.backward(np.ones_like(out.data))
    return block, out.data, xt.grad


def assert_same_gradients(block, oracle_block, atol=1e-11):
    """Every parameter gradient of ``block`` matches ``oracle_block``'s,
    including which parameters got none."""
    oracle_params = dict(oracle_block.named_parameters())
    for name, param in block.named_parameters():
        want = oracle_params[name].grad
        if want is None:
            assert param.grad is None, name
        else:
            np.testing.assert_allclose(param.grad, want, rtol=0, atol=atol,
                                       err_msg=name)


class TestFusedReferenceEquivalence:
    @pytest.mark.parametrize("num_experts,top_k,tokens", [
        (8, 2, 48),      # the standard Mixtral-style shape
        (8, 1, 32),      # switch-style top-1
        (8, 2, 3),       # fewer tokens than experts: most experts empty
        (1, 1, 16),      # single expert
        (4, 4, 20),      # top_k == num_experts: every expert gets all tokens
    ])
    def test_outputs_and_gradients_match(self, monkeypatch, num_experts,
                                         top_k, tokens):
        """Model level: the block's forward with the oracle swapped in for
        ``fused_dispatch`` matches the block's own forward."""
        x = np.random.default_rng(3).normal(size=(1, tokens, HIDDEN))
        fused = _block(num_experts, top_k)
        out_fused, gx_fused = _run(fused, x)
        monkeypatch.setattr(moe_block, "fused_dispatch", reference_dispatch)
        ref = _block(num_experts, top_k)
        out_ref, gx_ref = _run(ref, x)
        np.testing.assert_allclose(out_fused, out_ref, atol=1e-11)
        np.testing.assert_allclose(gx_fused, gx_ref, atol=1e-11)
        assert_same_gradients(fused, ref)

    def test_unused_expert_gets_no_gradient(self):
        # 3 tokens x top-2 touch at most 6 of 8 experts.
        block = _block(8, 2)
        _run(block, np.random.default_rng(3).normal(size=(1, 3, HIDDEN)))
        used = set(block.last_record.expert_indices.reshape(-1).tolist())
        assert len(used) < 8
        for expert_id, expert in enumerate(block.experts):
            has_grad = any(p.grad is not None for p in expert.parameters())
            assert has_grad == (expert_id in used)

    def test_brokered_equals_monolithic_bit_identical(self):
        # The runtime reorders experts by hosting worker; the fused dispatch
        # guarantees that ordering is bit-neutral.
        block = _block(8, 2)
        x = np.random.default_rng(3).normal(size=(40, HIDDEN))
        gate_out = block.gate(Tensor(x))
        out_default = fused_dispatch(block.experts, Tensor(x), gate_out)
        out_reordered = fused_dispatch(block.experts, Tensor(x), gate_out,
                                       expert_order=[5, 2, 7, 0, 1, 6, 3, 4])
        np.testing.assert_array_equal(out_default.data, out_reordered.data)


@st.composite
def routings(draw):
    """A dispatch problem: expert count, top_k, token count (possibly
    fewer tokens than experts), an expert order and an input seed."""
    num_experts = draw(st.integers(1, 8))
    top_k = draw(st.integers(1, num_experts))
    tokens = draw(st.integers(1, 40))
    order = draw(st.permutations(range(num_experts)))
    return num_experts, top_k, tokens, list(order), draw(st.integers(0, 99))


class TestDispatchLayoutProperty:
    @settings(max_examples=40, deadline=None)
    @given(routing=routings())
    @example(routing=(8, 2, 48, list(range(8)), 3))
    @example(routing=(8, 1, 32, list(range(8)), 3))
    @example(routing=(8, 2, 3, [7, 6, 5, 4, 3, 2, 1, 0], 3))
    @example(routing=(1, 1, 16, [0], 3))
    @example(routing=(4, 4, 20, [2, 0, 3, 1], 3))
    def test_layout_matches_oracles(self, routing):
        """(a) ``array_dispatch`` equals ``fused_dispatch`` bitwise in
        float32 and float64; (b) so does every ``expert_order``, and in
        float64 so do its parameter gradients and, for ``top_k <= 2``, its
        input gradient (the paper's Section V-A convergence claim); (c) in
        float64 the fused dispatch is within 1e-11 of the reference oracle
        on the output, the input gradient and every parameter gradient,
        and experts no token reaches get no gradient."""
        num_experts, top_k, tokens, order, seed = routing
        x = np.random.default_rng(seed).normal(size=(tokens, HIDDEN))
        for dtype in (np.float32, np.float64):
            block = _block(num_experts, top_k, dtype)
            xt = Tensor(x.astype(dtype))
            gate_out = block.gate(xt)
            with default_dtype(dtype):
                fused = fused_dispatch(block.experts, xt, gate_out).data
                reordered = fused_dispatch(block.experts, xt, gate_out,
                                           expert_order=order).data
            array = array_dispatch(block.experts, xt.data,
                                   gate_out.expert_indices,
                                   gate_out.combine_weights.data)
            assert fused.dtype == array.dtype == dtype
            np.testing.assert_array_equal(array, fused)
            np.testing.assert_array_equal(reordered, fused)

        block, out, gx = _dispatch_with_grads(fused_dispatch, num_experts,
                                              top_k, x)
        reordered, out_r, gx_r = _dispatch_with_grads(
            partial(fused_dispatch, expert_order=order), num_experts, top_k,
            x)
        np.testing.assert_array_equal(out_r, out)
        assert_same_gradients(reordered, block, atol=0)
        # A token's input gradient adds its top_k gather gradients in
        # execution order: two terms commute exactly, three need not.
        if top_k <= 2:
            np.testing.assert_array_equal(gx_r, gx)
        else:
            np.testing.assert_allclose(gx_r, gx, rtol=0, atol=1e-11)
        oracle, out_ref, gx_ref = _dispatch_with_grads(
            reference_dispatch, num_experts, top_k, x)
        np.testing.assert_allclose(out, out_ref, rtol=0, atol=1e-11)
        np.testing.assert_allclose(gx, gx_ref, rtol=0, atol=1e-11)
        assert_same_gradients(block, oracle)
        used = set(block.gate(Tensor(x)).expert_indices.reshape(-1).tolist())
        for expert_id, expert in enumerate(block.experts):
            assert (expert.w_gate.weight.grad is not None) == \
                (expert_id in used)


class TestFusedDispatchGradcheck:
    def test_input_gradient_central_difference(self):
        block = MoEBlock(6, 10, 4, 2, rng=np.random.default_rng(5))
        x = np.random.default_rng(11).normal(size=(1, 7, 6))

        xt = Tensor(x.copy(), requires_grad=True)
        (block(xt) ** 2).sum().backward()

        def fn(a):
            from repro.nn import no_grad
            with no_grad():
                return float((block(Tensor(a)) ** 2).sum().data)

        # The gate's top-k selection makes the loss piecewise; the rng seed
        # keeps all tokens away from selection boundaries at eps=1e-6.
        numeric = numeric_gradient(fn, x.copy())
        np.testing.assert_allclose(xt.grad, numeric, atol=1e-5)


class TestRecordProbs:
    def test_default_records_probs(self):
        block = MoEBlock(8, 16, 4, 2, rng=np.random.default_rng(0))
        block(Tensor(np.random.default_rng(1).normal(size=(1, 6, 8))))
        assert block.last_record.probs is not None
        assert block.last_record.probs.shape == (6, 4)

    def test_disabled_probs_are_none_but_indices_kept(self):
        block = MoEBlock(8, 16, 4, 2, rng=np.random.default_rng(0),
                         record_probs=False)
        block(Tensor(np.random.default_rng(1).normal(size=(1, 6, 8))))
        assert block.last_record.probs is None
        assert block.last_record.expert_indices.shape == (6, 2)
        assert block.last_record.selected_scores.shape == (6, 2)

    def test_set_record_probs_on_transformer(self, nano_model):
        nano_model.set_record_probs(False)
        ids = np.zeros((1, 4), dtype=np.int64)
        nano_model.forward(ids)
        assert all(b.moe.last_record.probs is None for b in nano_model.blocks)
        nano_model.set_record_probs(True)
        nano_model.forward(ids)
        assert all(b.moe.last_record.probs is not None
                   for b in nano_model.blocks)


class TestSeedHygiene:
    def test_moe_block_rng_fallback_deterministic(self):
        a = MoEBlock(8, 16, 4, 2)
        b = MoEBlock(8, 16, 4, 2)
        for (n, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=n)

    def test_expert_rng_fallback_deterministic(self):
        a, b = ExpertFFN(8, 16), ExpertFFN(8, 16)
        for (n, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=n)

    def test_presets_thread_seed(self):
        from repro.models.presets import mixtral_8x7b_sim, switch_xxl_sim
        assert mixtral_8x7b_sim(seed=7).seed == 7
        assert switch_xxl_sim(seed=3).seed == 3
        assert mixtral_8x7b_sim().seed == mixtral_8x7b_sim().seed
