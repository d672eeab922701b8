"""Tests for functionally-detached expert execution.

These verify the paper's convergence-equivalence claim (Section V-A): the
master-worker execution order computes *exactly* what the monolithic model
computes — outputs, losses, and gradients are bit-identical.
"""

import numpy as np
import pytest

from repro.cluster import ClusterTopology
from repro.models import build_model, nano_moe
from repro.nn import no_grad
from repro.placement import Placement, PlacementProblem, RandomPlacement
from repro.runtime.functional_exec import (BrokeredMoEBlock, detach_experts,
                                           reattach_experts)


@pytest.fixture
def placement(nano_config):
    problem = PlacementProblem(config=nano_config,
                               topology=ClusterTopology(2, 2))
    return RandomPlacement(seed=5).place(problem)


def make_pair(nano_config, placement):
    """Two identical models, one detached."""
    mono = build_model(nano_config)
    detached = build_model(nano_config)
    detach_experts(detached, placement)
    return mono, detached


class TestExactEquivalence:
    def test_forward_bit_identical(self, nano_config, placement, rng):
        mono, detached = make_pair(nano_config, placement)
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 10))
        np.testing.assert_array_equal(mono.forward(ids).data,
                                      detached.forward(ids).data)

    def test_cached_decode_bit_identical(self, nano_config, placement, rng):
        """The array serving path hands a detached block plain arrays."""
        mono, detached = make_pair(nano_config, placement)
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 6))
        with no_grad():
            logits = []
            for model in (mono, detached):
                cache = model.new_kv_cache(2, max_len=8)
                logits.append([model.forward_incremental(ids, cache).data,
                               model.forward_incremental(ids[:, :1],
                                                         cache).data])
        for got, want in zip(logits[1], logits[0]):
            np.testing.assert_array_equal(got, want)

    def test_loss_bit_identical(self, nano_config, placement, rng):
        mono, detached = make_pair(nano_config, placement)
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 8))
        assert float(mono.loss(ids, ids).data) == \
            float(detached.loss(ids, ids).data)

    def test_gradients_bit_identical(self, nano_config, placement, rng):
        mono, detached = make_pair(nano_config, placement)
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 8))
        mono.loss(ids, ids).backward()
        detached.loss(ids, ids).backward()
        mono_grads = {n: p.grad for n, p in mono.named_parameters()
                      if p.grad is not None}
        # detached names gain a ".block" segment; normalize for comparison
        detached_grads = {n.replace(".moe.block.", ".moe."): p.grad
                          for n, p in detached.named_parameters()
                          if p.grad is not None}
        assert set(mono_grads) == set(detached_grads)
        for name in mono_grads:
            np.testing.assert_array_equal(mono_grads[name],
                                          detached_grads[name], err_msg=name)

    def test_training_trajectory_identical(self, nano_config, placement, rng):
        """Several optimizer steps stay bit-identical (the convergence claim)."""
        from repro.nn import SGD
        mono, detached = make_pair(nano_config, placement)
        opt_m = SGD(mono.trainable_parameters(), lr=0.01)
        opt_d = SGD(detached.trainable_parameters(), lr=0.01)
        for step in range(4):
            ids = np.random.default_rng(step).integers(
                0, nano_config.vocab_size, size=(2, 8))
            loss_m = mono.loss(ids, ids)
            loss_d = detached.loss(ids, ids)
            assert float(loss_m.data) == float(loss_d.data), f"step {step}"
            mono.zero_grad()
            detached.zero_grad()
            loss_m.backward()
            loss_d.backward()
            opt_m.step()
            opt_d.step()


class TestMechanics:
    def test_detach_counts_blocks(self, nano_config, placement):
        model = build_model(nano_config)
        assert detach_experts(model, placement) == nano_config.num_layers
        assert all(isinstance(b.moe, BrokeredMoEBlock) for b in model.blocks)

    def test_reattach_restores(self, nano_config, placement, rng):
        model = build_model(nano_config)
        ids = rng.integers(0, nano_config.vocab_size, size=(1, 6))
        before = model.forward(ids).data.copy()
        detach_experts(model, placement)
        assert reattach_experts(model) == nano_config.num_layers
        np.testing.assert_array_equal(model.forward(ids).data, before)

    def test_double_detach_idempotent_depth(self, nano_config, placement, rng):
        model = build_model(nano_config)
        detach_experts(model, placement)
        detach_experts(model, placement)  # re-wraps the inner block, not the wrapper
        ids = rng.integers(0, nano_config.vocab_size, size=(1, 4))
        reference = build_model(nano_config).forward(ids).data
        np.testing.assert_array_equal(model.forward(ids).data, reference)

    def test_routing_records_still_work(self, nano_config, placement, rng):
        model = build_model(nano_config)
        detach_experts(model, placement)
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 6))
        model.forward(ids)
        records = model.routing_records()
        assert len(records) == nano_config.num_layers
        assert records[0].num_tokens == 12

    def test_tokens_per_worker_tracked(self, nano_config, placement, rng):
        model = build_model(nano_config)
        detach_experts(model, placement)
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 6))
        model.forward(ids)
        block = model.blocks[0].moe
        total = sum(block.tokens_per_worker_last.values())
        assert total == 12 * nano_config.top_k

    def test_shape_mismatch_rejected(self, nano_config):
        model = build_model(nano_config)
        bad = Placement(np.zeros((1, 1), dtype=int))
        with pytest.raises(ValueError):
            detach_experts(model, bad)

    def test_trainer_runs_on_detached_model(self, nano_config, placement, rng):
        from repro.data import LMDataLoader
        from repro.finetune import FineTuneConfig, Trainer
        model = build_model(nano_config)
        detach_experts(model, placement)
        tokens = rng.integers(0, nano_config.vocab_size, size=400)
        loader = LMDataLoader(tokens, batch_size=2, seq_len=16, seed=0)
        result = Trainer(model, loader, FineTuneConfig(steps=2)).train()
        assert result.num_steps == 2


class TestTrainerEquivalence:
    def test_full_finetune_trajectory_identical(self, nano_config, placement,
                                                rng):
        """LoRA fine-tuning a detached model reproduces the monolithic
        run's loss curve exactly — the paper's convergence claim end-to-end."""
        from repro.data import LMDataLoader
        from repro.finetune import FineTuneConfig, Trainer

        tokens = rng.integers(0, nano_config.vocab_size, size=500)

        def run(detach: bool):
            model = build_model(nano_config)
            if detach:
                detach_experts(model, placement)
            loader = LMDataLoader(tokens.copy(), batch_size=2, seq_len=16,
                                  seed=0)
            trainer = Trainer(model, loader,
                              FineTuneConfig(steps=4, lr=1e-3))
            return trainer.train().losses

        np.testing.assert_array_equal(run(False), run(True))
