"""Executor equivalence, shared-memory store semantics, and integrations."""

import numpy as np
import pytest

from repro.data.loader import LMDataLoader
from repro.finetune.trainer import FineTuneConfig, Trainer
from repro.lora import LoRAConfig
from repro.lora.adapter import LoRALinear
from repro.models import build_model, nano_moe
from repro.models.moe_block import MoEBlock, fused_dispatch
from repro.nn.quant import quantize_tensor
from repro.nn.tensor import Tensor, no_grad
from repro.parallel import (ProcessPoolExpertExecutor, SerialExpertExecutor,
                            SharedWeightStore, WorkerWeightView,
                            executor_dispatch, expert_supported,
                            make_executor)
from repro.serving import LiveDecodeEngine
from repro.telemetry import Telemetry


def small_block(seed=0):
    return MoEBlock(16, 32, 4, 2, rng=np.random.default_rng(seed))


def lora_inject_block(block, rank=4, seed=0):
    rng = np.random.default_rng(seed)
    cfg = LoRAConfig(rank=rank)
    for expert in block.experts:
        for name in ("w_gate", "w_up", "w_down"):
            wrapped = LoRALinear(getattr(expert, name), cfg, rng=rng)
            # Nonzero B so the adapter branch actually contributes.
            wrapped.lora_b.data[:] = 0.1 * rng.normal(
                size=wrapped.lora_b.shape)
            setattr(expert, name, wrapped)
    return block


def run_block(block, x, dispatch_fn):
    """Forward + backward through a dispatch; returns (out, gx, grads)."""
    tokens = Tensor(x.copy(), requires_grad=True)
    gate_out = block.gate(tokens)
    out = dispatch_fn(tokens, gate_out)
    block.zero_grad()
    (out * out).sum().backward()
    grads = {name: p.grad.copy() for name, p in block.named_parameters()
             if p.grad is not None}
    return out.data.copy(), tokens.grad.copy(), grads


@pytest.fixture(params=["serial", "process"])
def any_executor(request):
    executor = (SerialExpertExecutor() if request.param == "serial"
                else ProcessPoolExpertExecutor(2))
    yield executor
    executor.close()


class TestDispatchEquivalence:
    def test_bit_identical_to_fused_dispatch(self, any_executor):
        block = small_block()
        x = np.random.default_rng(1).normal(size=(24, 16))
        ref = run_block(block, x,
                        lambda t, g: fused_dispatch(block.experts, t, g))
        any_executor.bind(block)
        got = run_block(block, x, lambda t, g: executor_dispatch(
            any_executor, 0, block.experts, t, g))
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])
        for name in ref[2]:
            assert np.array_equal(got[2][name], ref[2][name]), name

    def test_expert_order_is_numerically_irrelevant(self, any_executor):
        block = small_block()
        x = np.random.default_rng(2).normal(size=(24, 16))
        any_executor.bind(block)
        outs = []
        for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
            outs.append(run_block(block, x, lambda t, g: executor_dispatch(
                any_executor, 0, block.experts, t, g,
                expert_order=order))[0])
        assert np.array_equal(outs[0], outs[1])

    def test_lora_experts_match_in_process_path(self, any_executor):
        block = lora_inject_block(small_block())
        x = np.random.default_rng(3).normal(size=(24, 16))
        ref = run_block(block, x,
                        lambda t, g: fused_dispatch(block.experts, t, g))
        any_executor.bind(block)
        got = run_block(block, x, lambda t, g: executor_dispatch(
            any_executor, 0, block.experts, t, g))
        # Workers and the in-process fused_swiglu node run the same array
        # kernel on the same adapter factors: equal bit for bit.
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])
        assert sorted(got[2]) == sorted(ref[2])
        assert any("lora" in name for name in got[2])
        for name in ref[2]:
            assert np.array_equal(got[2][name], ref[2][name]), name

    def test_mixed_lora_and_plain_projections(self, any_executor):
        """Adapters on ``w_up`` only: the workers add the one low-rank
        branch; the in-process path runs the layered expert forward."""
        block = small_block(seed=4)
        rng = np.random.default_rng(9)
        for expert in block.experts:
            expert.w_up = LoRALinear(expert.w_up, LoRAConfig(rank=2),
                                     rng=rng)
            expert.w_up.lora_b.data[:] = 0.1 * rng.normal(
                size=expert.w_up.lora_b.shape)
        x = np.random.default_rng(10).normal(size=(24, 16))
        ref = run_block(block, x,
                        lambda t, g: fused_dispatch(block.experts, t, g))
        any_executor.bind(block)
        got = run_block(block, x, lambda t, g: executor_dispatch(
            any_executor, 0, block.experts, t, g))
        assert np.array_equal(got[0], ref[0])
        np.testing.assert_allclose(got[1], ref[1], rtol=1e-9, atol=1e-12)
        assert sorted(got[2]) == sorted(ref[2])
        for name in ref[2]:
            np.testing.assert_allclose(got[2][name], ref[2][name],
                                       rtol=1e-9, atol=1e-12, err_msg=name)

    def test_int8_matches_roundtripped_weights_bit_for_bit(self,
                                                           any_executor):
        block = small_block(seed=5)
        any_executor.bind(block, weight_format="int8")
        # Roundtrip the in-process weights the way the serving path does;
        # the executor's int8 store then reconstructs identical values.
        for expert in block.experts:
            for proj in (expert.w_gate, expert.w_up, expert.w_down):
                proj.weight.data = quantize_tensor(
                    proj.weight.data).dequantize()
        x = np.random.default_rng(6).normal(size=(24, 16))
        with no_grad():
            tokens = Tensor(x)
            gate_out = block.gate(tokens)
            got = executor_dispatch(any_executor, 0, block.experts,
                                    tokens, gate_out)
            ref = fused_dispatch(block.experts, tokens, gate_out)
        assert np.array_equal(got.data, ref.data)

    def test_serial_and_pool_are_bit_identical(self):
        block = lora_inject_block(small_block(seed=7))
        x = np.random.default_rng(8).normal(size=(24, 16))
        results = []
        for executor in (SerialExpertExecutor(),
                         ProcessPoolExpertExecutor(2)):
            executor.bind(block)
            results.append(run_block(
                block, x, lambda t, g: executor_dispatch(
                    executor, 0, block.experts, t, g)))
            executor.close()
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])
        for name in results[0][2]:
            assert np.array_equal(results[0][2][name], results[1][2][name])


class TestMoEBlockKnob:
    def test_block_routes_through_attached_executor(self):
        block = small_block()
        telemetry = Telemetry()
        executor = SerialExpertExecutor(telemetry=telemetry)
        executor.bind(block)
        block.executor = executor
        x = np.random.default_rng(0).normal(size=(2, 8, 16))
        out_exec = block(Tensor(x)).data.copy()
        assert telemetry.counter_total("parallel.tasks") > 0
        block.executor = None
        out_plain = block(Tensor(x)).data.copy()
        executor.close()
        assert np.array_equal(out_exec, out_plain)

    def test_int8_executor_declines_under_gradients(self):
        block = small_block()
        executor = SerialExpertExecutor()
        executor.bind(block, weight_format="int8")
        block.executor = executor
        assert not executor.can_run(0)  # tests run with gradients enabled
        x = np.random.default_rng(0).normal(size=(2, 8, 16))
        out = block(Tensor(x))  # falls back to in-process full precision
        block.executor = None
        ref = block(Tensor(x))
        executor.close()
        assert np.array_equal(out.data, ref.data)

    def test_decode_fast_path_is_unaffected(self):
        block = small_block()
        executor = SerialExpertExecutor()
        executor.bind(block)
        block.executor = executor
        x = np.random.default_rng(0).normal(size=(3, 1, 16))
        with no_grad():
            out = block(Tensor(x)).data.copy()
        block.executor = None
        with no_grad():
            ref = block(Tensor(x)).data.copy()
        executor.close()
        assert np.array_equal(out, ref)


class TestSharedWeightStore:
    def test_refresh_propagates_native_updates(self):
        block = small_block()
        store = SharedWeightStore(block, fmt="native", use_shm=True)
        view = WorkerWeightView(store.handle())
        before = view.dense_weights(0, 1)[0].copy()
        block.experts[1].w_gate.weight.data += 1.0
        assert np.array_equal(view.dense_weights(0, 1)[0], before)
        store.refresh()
        assert np.array_equal(view.dense_weights(0, 1)[0], before + 1.0)
        view.close()
        store.close()

    def test_refresh_bumps_version_and_invalidates_dequant_cache(self):
        block = small_block()
        store = SharedWeightStore(block, fmt="int8", use_shm=False)
        view = WorkerWeightView(store.handle())
        assert store.version(0) == 1
        first = view.dense_weights(0, 0)
        assert view.dense_weights(0, 0) is first  # cached tuple
        block.experts[0].w_gate.weight.data *= 2.0
        store.refresh()
        assert store.version(0) == 2
        second = view.dense_weights(0, 0)
        assert second is not first
        np.testing.assert_allclose(second[0], first[0] * 2.0, rtol=1e-2)
        view.close()
        store.close()

    def test_unsupported_expert_rejected_at_bind(self):
        block = small_block()
        block.experts[2].w_up.bias = object()  # not bias-free any more
        with pytest.raises(ValueError, match="w_up"):
            SharedWeightStore(block)

    def test_expert_supported_reports_lora_dropout(self):
        block = small_block()
        rng = np.random.default_rng(0)
        cfg = LoRAConfig(rank=2, dropout=0.5)
        block.experts[0].w_gate = LoRALinear(block.experts[0].w_gate, cfg,
                                             rng=rng)
        assert "dropout" in expert_supported(block.experts[0])
        assert expert_supported(block.experts[1]) is None

    def test_close_is_idempotent_and_blocks_use(self):
        store = SharedWeightStore(small_block(), use_shm=True)
        store.close()
        store.close()
        with pytest.raises(RuntimeError):
            store.handle()


class TestTrainerIntegration:
    def _train(self, executor, steps=3):
        model = build_model(nano_moe(seed=0))
        tokens = np.random.default_rng(0).integers(
            0, model.config.vocab_size, size=2000)
        loader = LMDataLoader(tokens, batch_size=4, seq_len=16, seed=0)
        trainer = Trainer(model, loader, FineTuneConfig(steps=steps),
                          executor=executor)
        result = trainer.train()
        if executor is not None:
            executor.close()
        return result.losses

    def test_losses_bit_identical_across_executors(self):
        base = self._train(None, steps=12)
        assert np.array_equal(base, self._train(SerialExpertExecutor(),
                                                steps=12))
        assert np.array_equal(base, self._train(ProcessPoolExpertExecutor(2),
                                                steps=12))

    def test_refresh_is_noop_with_frozen_bases(self):
        model = build_model(nano_moe(seed=0))
        tokens = np.random.default_rng(0).integers(
            0, model.config.vocab_size, size=2000)
        loader = LMDataLoader(tokens, batch_size=4, seq_len=16, seed=0)
        executor = SerialExpertExecutor()
        Trainer(model, loader, FineTuneConfig(steps=1), executor=executor)
        assert executor._frozen  # LoRA recipe: bases never change
        version = executor._store.version(0)
        executor.refresh()
        assert executor._store.version(0) == version
        executor.close()


class TestServingIntegration:
    def test_decode_ids_identical_with_executor(self):
        prompt = np.array([[3, 7, 11, 2, 9, 14, 5, 1]])
        base = LiveDecodeEngine(build_model(nano_moe(seed=0))).decode(
            prompt, 8)
        executor = ProcessPoolExpertExecutor(2)
        engine = LiveDecodeEngine(build_model(nano_moe(seed=0)),
                                  executor=executor)
        got = engine.decode(prompt, 8)
        executor.close()
        assert np.array_equal(base, got)

    def test_int8_engine_quantizes_and_reports(self):
        executor = SerialExpertExecutor()
        engine = LiveDecodeEngine(build_model(nano_moe(seed=0)),
                                  executor=executor, weight_format="int8")
        report = engine.quantization_report
        assert report is not None and report.num_matrices > 0
        assert report.compression_ratio < 0.2
        prompt = np.array([[3, 7, 11, 2]])
        ids = engine.decode(prompt, 6)
        executor.close()
        assert ids.shape == (1, 6)

    def test_bad_weight_format_rejected(self):
        with pytest.raises(ValueError, match="weight_format"):
            LiveDecodeEngine(build_model(nano_moe(seed=0)),
                             weight_format="fp4")


class TestTelemetry:
    def test_worker_spans_and_counters_recorded(self):
        telemetry = Telemetry()
        block = small_block()
        executor = ProcessPoolExpertExecutor(2, telemetry=telemetry)
        executor.bind(block)
        block.executor = executor
        x = np.random.default_rng(0).normal(size=(2, 8, 16))
        block(Tensor(x))
        executor.close()
        block.executor = None
        spans = [s for s in telemetry.spans
                 if s.name == "parallel.forward"]
        assert spans and all(s.category == "parallel" for s in spans)
        assert all(s.track.startswith("parallel-w") for s in spans)
        assert all(s.duration >= 0 for s in spans)
        assert telemetry.counter_total("parallel.tasks",
                                       phase="forward") == len(spans)
        assert telemetry.counter_total("parallel.rows",
                                       phase="forward") == 2 * 8 * 2  # top-2


class TestMakeExecutor:
    def test_factory_selects_kind(self):
        assert isinstance(make_executor(0), SerialExpertExecutor)
        pool = make_executor(3)
        assert isinstance(pool, ProcessPoolExpertExecutor)
        assert pool.num_workers == 3

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolExpertExecutor(0)
