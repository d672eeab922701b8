"""Tests for ExpertFFN and the MoE block's dispatch/combine logic."""

import numpy as np
import pytest

from repro.models import ExpertFFN, MoEBlock, routing_counts
from repro.models.moe_block import BlockRoutingRecord
from repro.nn import Tensor


def make_block(hidden=8, ffn=16, experts=4, k=2, seed=0, **kw):
    return MoEBlock(hidden, ffn, experts, k, rng=np.random.default_rng(seed),
                    **kw)


class TestExpertFFN:
    def test_shape(self, rng):
        expert = ExpertFFN(8, 16, rng=rng)
        assert expert(Tensor(rng.normal(size=(5, 8)))).shape == (5, 8)

    def test_swiglu_formula(self, rng):
        expert = ExpertFFN(4, 8, rng=rng)
        x = rng.normal(size=(3, 4))
        gate = x @ expert.w_gate.weight.data.T
        up = x @ expert.w_up.weight.data.T
        silu = gate / (1 + np.exp(-gate))
        expected = (silu * up) @ expert.w_down.weight.data.T
        np.testing.assert_allclose(expert(Tensor(x)).data, expected, atol=1e-10)

    def test_num_params(self):
        assert ExpertFFN(8, 16).num_params() == 3 * 8 * 16

    def test_nbytes_precision(self):
        expert = ExpertFFN(8, 16)
        assert expert.nbytes(2) == expert.num_params() * 2


class TestMoEBlockForward:
    def test_output_shape(self, rng):
        block = make_block()
        out = block(Tensor(rng.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_matches_naive_reference(self, rng):
        """Dispatch/combine must equal the direct per-token computation."""
        block = make_block()
        x = rng.normal(size=(1, 6, 8))
        out = block(Tensor(x)).data[0]

        tokens = x.reshape(-1, 8)
        record = block.last_record
        for t in range(6):
            probs = record.probs[t]
            chosen = record.expert_indices[t]
            weights = probs[chosen] / probs[chosen].sum()
            expected = sum(
                w * block.experts[int(e)](Tensor(tokens[t:t + 1])).data[0]
                for w, e in zip(weights, chosen))
            np.testing.assert_allclose(out[t], expected, atol=1e-10)

    def test_top1_block(self, rng):
        block = make_block(k=1)
        out = block(Tensor(rng.normal(size=(1, 4, 8))))
        assert block.last_record.expert_indices.shape == (4, 1)
        # top-1 combine weight is 1 -> output is exactly the chosen expert
        np.testing.assert_allclose(
            block.last_record.selected_scores.max(axis=1),
            block.last_record.probs.max(axis=1))

    def test_record_contents(self, rng):
        block = make_block(layer_index=3)
        block(Tensor(rng.normal(size=(2, 3, 8))))
        rec = block.last_record
        assert rec.layer == 3
        assert rec.num_tokens == 6
        assert rec.access_counts(4).sum() == 6 * 2
        assert rec.probs.shape == (6, 4)

    def test_record_disabled(self, rng):
        block = make_block()
        block.record_routing = False
        block(Tensor(rng.normal(size=(1, 2, 8))))
        assert block.last_record is None

    def test_gradients_reach_selected_experts_only(self, rng):
        block = make_block(experts=4, k=1)
        x = Tensor(rng.normal(size=(1, 3, 8)), requires_grad=True)
        block(x).sum().backward()
        used = set(block.last_record.expert_indices.reshape(-1))
        for e, expert in enumerate(block.experts):
            grads = [p.grad for p in expert.parameters()]
            if e in used:
                assert all(g is not None for g in grads)
            else:
                assert all(g is None for g in grads)

    def test_gradient_flows_to_input_and_gate(self, rng):
        block = make_block()
        x = Tensor(rng.normal(size=(1, 4, 8)), requires_grad=True)
        block(x).sum().backward()
        assert x.grad is not None
        assert block.gate.router.weight.grad is not None

    def test_aux_loss_stored(self, rng):
        block = make_block(aux_loss_weight=0.1)
        block(Tensor(rng.normal(size=(1, 4, 8))))
        assert block.last_aux_loss is not None

    def test_expert_modules_list(self):
        assert len(make_block(experts=5).expert_modules()) == 5


class TestRoutingCounts:
    def records(self, rng, tokens=(5, 1, 3), experts=6, k=2):
        return [BlockRoutingRecord(
            layer=layer, expert_indices=rng.integers(0, experts, (n, k)),
            selected_scores=np.ones((n, k)))
            for layer, n in enumerate(tokens)]

    def test_rows_are_each_records_access_counts(self, rng):
        records = self.records(rng)
        counts = routing_counts(records, 6)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(
            counts, np.stack([r.access_counts(6) for r in records]))
        assert routing_counts([], 6).shape == (0, 6)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_expert_rejected(self, rng, bad):
        records = self.records(rng)
        records[1].expert_indices[0, 0] = bad  # would spill into a neighbour
        with pytest.raises(ValueError, match="expert ids"):
            routing_counts(records, 6)
