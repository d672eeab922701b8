"""Tests for learning-rate schedules."""

import numpy as np
import pytest

from repro.nn import SGD, WarmupCosineLR
from repro.nn.layers import Parameter


def make_optimizer(lr=0.1):
    p = Parameter(np.array([1.0]))
    p.grad = np.array([0.0])
    return SGD([p], lr=lr)


class TestWarmupCosine:
    def test_warmup_ramps_linearly(self):
        opt = make_optimizer(1.0)
        sched = WarmupCosineLR(opt, total_steps=100, warmup_steps=4)
        lrs = [sched.step() for _ in range(4)]
        np.testing.assert_allclose(lrs, [0.25, 0.5, 0.75, 1.0])

    def test_decays_to_min(self):
        opt = make_optimizer(1.0)
        sched = WarmupCosineLR(opt, total_steps=50, warmup_steps=0,
                               min_lr=0.1)
        lrs = [sched.step() for _ in range(60)]
        assert lrs[0] == pytest.approx(1.0)
        assert lrs[-1] == pytest.approx(0.1, abs=1e-6)
        # monotone decreasing after warmup
        assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))

    def test_updates_optimizer(self):
        opt = make_optimizer(1.0)
        sched = WarmupCosineLR(opt, total_steps=10, warmup_steps=2)
        sched.step()
        assert opt.lr == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupCosineLR(make_optimizer(), total_steps=0)
        with pytest.raises(ValueError):
            WarmupCosineLR(make_optimizer(), total_steps=5, warmup_steps=5)
        with pytest.raises(ValueError):
            WarmupCosineLR(make_optimizer(0.1), total_steps=5, min_lr=0.5)


class TestIntegration:
    def test_schedule_with_training_loop(self, nano_model, nano_config, rng):
        """A scheduled LoRA fine-tune runs end to end."""
        from repro.data import LMDataLoader
        from repro.lora import inject_lora
        from repro.nn import AdamW

        inject_lora(nano_model)
        opt = AdamW(nano_model.trainable_parameters(), lr=1e-3)
        sched = WarmupCosineLR(opt, total_steps=6, warmup_steps=2)
        tokens = rng.integers(0, nano_config.vocab_size, size=300)
        loader = LMDataLoader(tokens, batch_size=2, seq_len=16)
        for _, (inputs, targets) in zip(range(6), loader.batches(6)):
            sched.step()
            loss = nano_model.loss(inputs, targets)
            nano_model.zero_grad()
            loss.backward()
            opt.step()
        assert opt.lr < 1e-3  # decayed past the peak
