"""Tests for the LoRA fine-tuning trainer on live tiny models."""

import numpy as np
import pytest

from repro.data import LMDataLoader
from repro.finetune import (Callback, FineTuneConfig, Trainer,
                            pretrain_router)
from repro.lora import LoRAConfig
from repro.models import build_model, nano_moe
from repro.telemetry import RoutingHealthMonitor


@pytest.fixture
def loader(nano_config, rng):
    tokens = rng.integers(0, nano_config.vocab_size, size=600)
    return LMDataLoader(tokens, batch_size=2, seq_len=16, seed=0)


class TestFineTuneConfig:
    def test_paper_defaults(self):
        cfg = FineTuneConfig()
        assert cfg.steps == 500
        assert cfg.lr == 3e-5
        assert cfg.betas == (0.8, 0.999)
        assert cfg.weight_decay == 3e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            FineTuneConfig(steps=0)
        with pytest.raises(ValueError):
            FineTuneConfig(lr=0)


class TestTrainer:
    def test_run_produces_result(self, nano_model, loader):
        trainer = Trainer(nano_model, loader, FineTuneConfig(steps=4))
        result = trainer.train()
        assert result.num_steps == 4
        assert np.all(np.isfinite(result.losses))

    def test_trace_is_valid(self, nano_model, nano_config, loader):
        trainer = Trainer(nano_model, loader, FineTuneConfig(steps=3))
        result = trainer.train()
        trace = result.trace
        assert trace.num_steps == 3
        assert trace.num_layers == nano_config.num_layers
        assert trace.tokens_per_step == 32
        # trace validates its own count conservation at construction

    def test_only_lora_params_move(self, nano_model, loader):
        trainer = Trainer(nano_model, loader,
                          FineTuneConfig(steps=2, lr=1e-2))
        frozen_before = {
            name: p.data.copy()
            for name, p in nano_model.named_parameters()
            if not p.requires_grad
        }
        trainer.train()
        for name, p in nano_model.named_parameters():
            if name in frozen_before:
                np.testing.assert_array_equal(p.data, frozen_before[name],
                                              err_msg=name)

    def test_gate_mean_probs_shape(self, nano_model, nano_config, loader):
        result = Trainer(nano_model, loader,
                         FineTuneConfig(steps=3)).train()
        assert result.gate_mean_probs.shape == (3, nano_config.num_experts)

    def test_custom_callback_invoked(self, nano_model, loader):
        class StepLog(Callback):
            def __init__(self):
                self.steps = []

            def on_step(self, step, loss, records):
                self.steps.append(step)

        log = StepLog()
        trainer = Trainer(nano_model, loader, FineTuneConfig(steps=2))
        trainer.train(callbacks=[log])
        assert log.steps == [0, 1]

    def test_steps_override(self, nano_model, loader):
        trainer = Trainer(nano_model, loader, FineTuneConfig(steps=10))
        assert trainer.train(steps=2).num_steps == 2

    @pytest.mark.parametrize("steps", [0, -3, 2.5])
    def test_non_positive_steps_rejected_before_any_state_change(
            self, nano_model, loader, steps):
        """``steps=0`` used to skip the loop and die in ``int(None)``, and
        ``steps=2.5`` in ``range``, each leaving the monitor's manifest
        open."""
        monitor = RoutingHealthMonitor()
        trainer = Trainer(nano_model, loader, FineTuneConfig(steps=2),
                          monitor=monitor)
        nano_model.eval()
        probs = [block.moe.record_probs for block in nano_model.blocks]
        with pytest.raises(ValueError, match="positive integer"):
            trainer.train(steps=steps)
        assert monitor.manifest is None
        assert len(monitor.event_log) == 0
        assert not any(m.training for _, m in nano_model.named_modules())
        assert [block.moe.record_probs
                for block in nano_model.blocks] == probs
        assert trainer.optimizer._step == 0
        assert trainer.train().num_steps == 2

    def test_lora_report_attached(self, nano_model, loader):
        trainer = Trainer(nano_model, loader, FineTuneConfig(steps=1))
        assert trainer.lora_report.num_adapted > 0

    def test_higher_lr_reduces_loss_on_fixed_data(self, nano_config, rng):
        tokens = rng.integers(0, nano_config.vocab_size, size=200)
        loader = LMDataLoader(tokens, batch_size=2, seq_len=16,
                              shuffle=False, seed=0)
        model = build_model(nano_config)
        trainer = Trainer(model, loader, FineTuneConfig(steps=30, lr=5e-3))
        result = trainer.train()
        assert result.losses[-3:].mean() < result.losses[:3].mean()


class TestPretrainRouter:
    def test_loss_decreases(self, nano_model, loader):
        losses = pretrain_router(nano_model, loader, steps=25, lr=2e-3)
        assert losses[-3:].mean() < losses[:3].mean()

    def test_aux_weight_restored(self, nano_model, loader):
        before = [b.moe.gate.aux_loss_weight for b in nano_model.blocks]
        pretrain_router(nano_model, loader, steps=2, aux_loss_weight=0.5)
        after = [b.moe.gate.aux_loss_weight for b in nano_model.blocks]
        assert before == after

    def test_validation(self, nano_model, loader):
        with pytest.raises(ValueError):
            pretrain_router(nano_model, loader, steps=0)
