"""Trainer integration of the fused dispatch, the one-node LoRA kernels
and the record_probs fast paths."""

import numpy as np
import pytest

from repro.cluster import ClusterTopology
from repro.data import LMDataLoader
from repro.finetune import Callback, FineTuneConfig, Trainer
from repro.finetune.trainer import _merge_records
from repro.lora import LoRAConfig, LoRALinear
from repro.models import build_model, moe_block
from repro.models import expert as expert_module
from repro.models.expert import ExpertFFN
from repro.models.moe_block import BlockRoutingRecord, fused_dispatch
from repro.placement import PlacementProblem, RandomPlacement
from tests.oracles import reference_dispatch, reference_lora_forward


@pytest.fixture
def loader(nano_config, rng):
    tokens = rng.integers(0, nano_config.vocab_size, size=800)
    return LMDataLoader(tokens, batch_size=2, seq_len=16, seed=0)


class TestDispatchConfig:
    def test_fused_and_reference_trainers_converge_identically(
            self, nano_config, monkeypatch):
        """Training with the reference dispatch oracle swapped in for
        ``fused_dispatch`` gives the fused trainer's losses."""
        tokens = np.random.default_rng(0).integers(
            0, nano_config.vocab_size, size=800)

        def losses():
            model = build_model(nano_config)
            loader = LMDataLoader(tokens, batch_size=2, seq_len=16, seed=0)
            return Trainer(model, loader,
                           FineTuneConfig(steps=3)).train().losses

        fused = losses()
        monkeypatch.setattr(moe_block, "fused_dispatch", reference_dispatch)
        np.testing.assert_allclose(fused, losses(), rtol=1e-9)


class TestWorkerOrderEquivalence:
    def test_lora_trajectory_identical(self, nano_config, monkeypatch):
        """The paper's convergence claim (Section V-A) end to end: LoRA
        fine-tuning with each block's experts run grouped by hosting
        worker, the master-worker runtime's order, gives the default
        order's losses bit for bit."""
        problem = PlacementProblem(config=nano_config,
                                   topology=ClusterTopology(2, 2))
        assignment = RandomPlacement(seed=5).place(problem).assignment
        tokens = np.random.default_rng(0).integers(
            0, nano_config.vocab_size, size=500)
        worker_orders = {}

        def losses():
            model = build_model(nano_config)
            worker_orders.update(
                (id(block.moe.experts),
                 np.argsort(assignment[layer], kind="stable"))
                for layer, block in enumerate(model.blocks))
            loader = LMDataLoader(tokens, batch_size=2, seq_len=16, seed=0)
            return Trainer(model, loader,
                           FineTuneConfig(steps=4, lr=1e-3)).train().losses

        default = losses()
        calls = []

        def brokered(experts, tokens, gate_out):
            calls.append(worker_orders[id(experts)])
            return fused_dispatch(experts, tokens, gate_out,
                                  expert_order=calls[-1])

        monkeypatch.setattr(moe_block, "fused_dispatch", brokered)
        np.testing.assert_array_equal(losses(), default)
        assert any((order != np.arange(nano_config.num_experts)).any()
                   for order in calls)


class TestLoRAKernels:
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_kernel_and_layered_oracle_trainers_agree(
            self, nano_config, monkeypatch, dropout):
        """Training with the layered LoRA oracle swapped in for the
        ``lora_linear`` and LoRA ``fused_swiglu`` nodes gives the kernel
        trainer's losses; with dropout, both draw the same masks.  Every
        expert segment of the kernel run took the LoRA kernel."""
        tokens = np.random.default_rng(0).integers(
            0, nano_config.vocab_size, size=800)
        config = FineTuneConfig(steps=3, lora=LoRAConfig(dropout=dropout))

        def losses():
            model = build_model(nano_config)
            loader = LMDataLoader(tokens, batch_size=2, seq_len=16, seed=0)
            return Trainer(model, loader, config).train().losses

        lora_segments = []
        kernel = expert_module.fused_swiglu

        def spy(*args, lora=None):
            lora_segments.append(lora is not None)
            return kernel(*args, lora=lora)

        monkeypatch.setattr(expert_module, "fused_swiglu", spy)
        fused = losses()
        assert lora_segments and all(lora_segments)
        monkeypatch.setattr(LoRALinear, "forward", reference_lora_forward)
        monkeypatch.setattr(ExpertFFN, "forward_fused", ExpertFFN.forward)
        np.testing.assert_allclose(fused, losses(), rtol=1e-9)

    def test_frozen_bases_end_the_step_without_grad(self, nano_config,
                                                    loader):
        model = build_model(nano_config)
        Trainer(model, loader, FineTuneConfig(steps=1)).train()
        frozen = [p for p in model.parameters() if not p.requires_grad]
        assert frozen and all(p.grad is None for p in frozen)
        assert any(p.grad is not None for p in model.trainable_parameters())


class TestRecordProbsInTrainLoop:
    def test_only_monitored_layer_records_probs(self, nano_config, loader):
        model = build_model(nano_config)
        monitored = 1
        captured = []

        class ProbsFlags(Callback):
            def on_step(self, step, loss, records):
                captured.append([r.probs is not None for r in records])

        trainer = Trainer(model, loader,
                          FineTuneConfig(steps=2, monitored_layer=monitored))
        trainer.train(callbacks=[ProbsFlags()])

        for flags in captured:
            for layer, has_probs in enumerate(flags):
                assert has_probs == (layer == monitored)

    def test_record_probs_restored_after_training(self, nano_config, loader):
        model = build_model(nano_config)
        trainer = Trainer(model, loader, FineTuneConfig(steps=2))
        trainer.train()
        assert all(b.moe.record_probs for b in model.blocks)

    def test_gate_monitor_still_fed(self, nano_config, loader):
        model = build_model(nano_config)
        trainer = Trainer(model, loader,
                          FineTuneConfig(steps=3, monitored_layer=0))
        result = trainer.train()
        assert result.gate_mean_probs.shape == (3, nano_config.num_experts)
        assert np.all(np.isfinite(result.gate_mean_probs))


class TestMergeRecords:
    def _record(self, probs):
        return BlockRoutingRecord(
            layer=0,
            expert_indices=np.zeros((2, 2), dtype=np.int64),
            selected_scores=np.ones((2, 2)),
            probs=probs)

    def test_merges_probs_when_present(self):
        merged = _merge_records([self._record(np.ones((2, 4)))],
                                [self._record(np.ones((2, 4)))])
        assert merged[0].probs.shape == (4, 4)
        assert merged[0].expert_indices.shape == (4, 2)

    def test_none_probs_stay_none(self):
        merged = _merge_records([self._record(None)], [self._record(None)])
        assert merged[0].probs is None
        assert merged[0].expert_indices.shape == (4, 2)
