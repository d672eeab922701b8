"""Tests for the full MoE transformer."""

import numpy as np
import pytest

from repro.models import build_model, mixtral_8x7b_sim, nano_moe


class TestForward:
    def test_logit_shape(self, nano_model, nano_config, rng):
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 10))
        logits = nano_model.forward(ids)
        assert logits.shape == (2, 10, nano_config.vocab_size)

    def test_rejects_1d_input(self, nano_model):
        with pytest.raises(ValueError):
            nano_model.forward(np.array([1, 2, 3]))

    def test_rejects_overlong_sequence(self, nano_model, nano_config):
        ids = np.zeros((1, nano_config.max_seq_len + 1), dtype=int)
        with pytest.raises(ValueError):
            nano_model.forward(ids)

    def test_loss_positive_near_uniform_at_init(self, nano_model, nano_config, rng):
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 8))
        loss = float(nano_model.loss(ids, ids).data)
        # A fresh model should be near ln(vocab) cross-entropy.
        assert abs(loss - np.log(nano_config.vocab_size)) < 1.0

    def test_deterministic_given_seed(self, nano_config, rng):
        m1, m2 = build_model(nano_config), build_model(nano_config)
        ids = rng.integers(0, nano_config.vocab_size, size=(1, 6))
        np.testing.assert_array_equal(m1.forward(ids).data,
                                      m2.forward(ids).data)

    def test_refuses_to_build_mixtral(self):
        with pytest.raises(ValueError):
            build_model(mixtral_8x7b_sim())


class TestBackboneExpertSplit:
    def test_iter_experts_count(self, nano_model, nano_config):
        experts = list(nano_model.iter_experts())
        assert len(experts) == nano_config.total_experts
        layers = {layer for layer, _, _ in experts}
        assert layers == set(range(nano_config.num_layers))

    def test_split_partitions_parameters(self, nano_model):
        expert_ids = {id(p) for p in nano_model.expert_parameters()}
        backbone_ids = {id(p) for p in nano_model.backbone_parameters()}
        all_ids = {id(p) for p in nano_model.parameters()}
        assert expert_ids | backbone_ids == all_ids
        assert expert_ids & backbone_ids == set()

    def test_gate_parameters_in_backbone(self, nano_model):
        gate_ids = {id(p) for p in nano_model.gate_parameters()}
        backbone_ids = {id(p) for p in nano_model.backbone_parameters()}
        assert gate_ids <= backbone_ids

    def test_expert_param_count(self, nano_model, nano_config):
        expected = nano_config.total_experts * nano_config.expert_num_params()
        assert nano_model.num_expert_params() == expected

    def test_backbone_smaller_than_experts(self, nano_model):
        """The premise of the master-worker split: experts dominate."""
        assert nano_model.num_expert_params() > nano_model.num_backbone_params()


class TestRoutingRecords:
    def test_records_before_forward_raise(self, nano_model):
        with pytest.raises(RuntimeError):
            nano_model.routing_records()

    def test_records_per_block(self, nano_model, nano_config, rng):
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 6))
        nano_model.forward(ids)
        records = nano_model.routing_records()
        assert len(records) == nano_config.num_layers
        for layer, rec in enumerate(records):
            assert rec.layer == layer
            assert rec.num_tokens == 12

    def test_set_record_routing_off(self, nano_model, nano_config, rng):
        for block in nano_model.blocks:
            block.moe.record_routing = False
        ids = rng.integers(0, nano_config.vocab_size, size=(1, 4))
        nano_model.forward(ids)
        with pytest.raises(RuntimeError):
            nano_model.routing_records()


class TestTraining:
    def test_one_sgd_step_reduces_loss_on_batch(self, nano_model, nano_config, rng):
        from repro.nn import SGD
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 8))
        targets = rng.integers(0, nano_config.vocab_size, size=(2, 8))
        opt = SGD(nano_model.trainable_parameters(), lr=0.05)
        before = nano_model.loss(ids, targets)
        nano_model.zero_grad()
        before.backward()
        opt.step()
        after = nano_model.loss(ids, targets)
        assert float(after.data) < float(before.data)
