"""Incremental (KV-cached) transformer forward: equivalence and contracts.

The serving path — ``MoETransformer.forward_slots``, here mostly over every
row of the cache — computes on plain arrays and must agree with the
Tensor ``forward``: bit-identical on a prefill, to ~1e-12 in float64 when
decoding token by token, with identical routing; and the array MoE
dispatch must agree with the Tensor fused dispatch at every token count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (MoEBlock, build_model, generate, moe_block,
                          nano_moe)
from repro.nn import KVCache, Tensor, default_dtype, no_grad


class TestForwardIncremental:
    def test_prefill_matches_full_forward_bitwise(self, nano_model):
        ids = np.random.default_rng(0).integers(0, 64, size=(2, 10))
        with no_grad():
            full = nano_model.forward(ids).data
            cache = nano_model.new_kv_cache(2, max_len=10)
            inc = nano_model.forward_slots(ids, cache, np.arange(2)).data
        np.testing.assert_array_equal(inc, full)
        np.testing.assert_array_equal(cache.positions, [10, 10])

    def test_stepwise_logits_match_full_forward(self, nano_model):
        ids = np.random.default_rng(1).integers(0, 64, size=(1, 8))
        with no_grad():
            full = nano_model.forward(ids).data
            cache = nano_model.new_kv_cache(1, max_len=8)
            prefill = nano_model.forward_slots(ids[:, :3], cache,
                                               np.arange(1)).data
            steps = [nano_model.forward_slots(ids[:, t:t + 1], cache,
                                              np.arange(1)).data
                     for t in range(3, 8)]
        got = np.concatenate([prefill] + steps, axis=1)
        np.testing.assert_allclose(got, full, atol=1e-12)

    def test_requires_no_grad(self, nano_model):
        cache = nano_model.new_kv_cache(1)
        with pytest.raises(RuntimeError):
            nano_model.forward_slots(np.array([[1]]), cache, np.arange(1))

    @pytest.mark.parametrize("shape", [(1, 1, 8, 2, 8), (2, 1, 8, 4, 4),
                                       (2, 1, 8, 2, 4), (2, 1, 999, 2, 8)],
                             ids=["layers", "heads", "head_dim", "max_len"])
    def test_cache_for_another_model_rejected(self, nano_model, shape):
        """A cache with another layer count, head layout or a length past
        ``max_seq_len`` is rejected before any write."""
        config = nano_model.config
        assert (config.num_layers, config.num_heads,
                config.hidden_size // config.num_heads) == (2, 2, 8)
        cache = KVCache(*shape)
        with no_grad(), pytest.raises(ValueError, match="new_kv_cache"):
            nano_model.forward_slots(np.array([[1, 2]]), cache, np.arange(1))
        np.testing.assert_array_equal(cache.positions, [0])
        assert not cache.keys.any()

    def test_max_seq_len_enforced(self, nano_model):
        max_len = nano_model.config.max_seq_len
        with no_grad():
            cache = nano_model.new_kv_cache(1)
            with pytest.raises(ValueError):
                nano_model.forward_slots(
                    np.zeros((1, max_len + 1), dtype=np.int64), cache,
                    np.arange(1))
        with pytest.raises(ValueError):
            nano_model.new_kv_cache(1, max_len=max_len + 1)

    def test_cache_follows_model_dtype(self):
        """A float32 model's cache is float32 wherever it is allocated, so
        its serving path stays in float32."""
        with default_dtype(np.float32):
            model = build_model(nano_moe(seed=0))
        cache = model.new_kv_cache(1, max_len=4)    # default dtype: float64
        assert cache.keys.dtype == cache.values.dtype == np.float32
        with no_grad():
            logits = model.forward_slots(np.array([[1, 2]]), cache,
                                         np.arange(1))
        assert logits.data.dtype == np.float32

    def test_new_kv_cache_shape(self, nano_model):
        """One buffer pair for every layer and one cursor array."""
        config = nano_model.config
        cache = nano_model.new_kv_cache(3, max_len=17)
        head_dim = config.hidden_size // config.num_heads
        assert cache.keys.shape == cache.values.shape == \
            (config.num_layers, 3, 17, config.num_heads, head_dim)
        np.testing.assert_array_equal(cache.positions, [0, 0, 0])


class TestSingleTokenDispatchFastPath:
    """One-token steps through the array MoE dispatch (no special case:
    the same route/permute/GEMM/unpermute as a prefill)."""

    def _block(self, seed=7, **kwargs):
        return MoEBlock(12, 24, 8, 2, rng=np.random.default_rng(seed),
                        **kwargs)

    @pytest.mark.parametrize("batch", [1, 5])
    def test_matches_batched_fused_dispatch(self, batch):
        block = self._block()
        x = np.random.default_rng(3).normal(size=(batch, 1, 12))
        with no_grad():
            fast = block(Tensor(x))
            fast_record = block.last_record
        # With gradients enabled the same call takes the Tensor gate and
        # fused dispatch — the array path is inference-only.
        out = block(Tensor(x))
        np.testing.assert_array_equal(fast.data, out.data)
        np.testing.assert_array_equal(fast_record.expert_indices,
                                      block.last_record.expert_indices)
        np.testing.assert_array_equal(fast_record.selected_scores,
                                      block.last_record.selected_scores)

    def test_fast_path_taken_only_when_eligible(self, monkeypatch):
        block = self._block()
        calls = []
        original = moe_block.array_dispatch
        monkeypatch.setattr(moe_block, "array_dispatch",
                            lambda *args: calls.append(1) or original(*args))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 1, 12)))
        block(x)                       # gradients on: Tensor path
        assert block.last_record is not None and not calls
        with no_grad():
            block.gate.aux_loss_weight = 0.1
            block(x)                   # aux loss needs the Tensor gate
            assert not calls and block.last_aux_loss is not None
            block.gate.aux_loss_weight = 0.0
            out = block(np.asarray(x.data))
        assert len(calls) == 1 and isinstance(out, np.ndarray)
        assert block.last_record is not None

    def test_records_respect_flags(self):
        block = self._block(record_probs=False)
        x = Tensor(np.random.default_rng(4).normal(size=(1, 1, 12)))
        with no_grad():
            block(x)
        assert block.last_record.probs is None
        assert block.last_record.expert_indices.shape == (1, 2)
        block.record_routing = False
        block.last_record = None
        with no_grad():
            block(x)
        assert block.last_record is None

    def test_lora_injected_block_falls_back(self):
        from repro.lora import LoRAConfig, inject_lora
        block = self._block()
        x = Tensor(np.random.default_rng(5).normal(size=(1, 1, 12)))
        with no_grad():
            before = block(x).data
        inject_lora(block, LoRAConfig(rank=2))
        assert not block._array_ready()
        with no_grad():
            after = block(x).data  # Tensor dispatch handles LoRA modules
            array_in = block(x.data)
        # Fresh LoRA B matrices are zero, so outputs are unchanged.
        np.testing.assert_allclose(after, before, atol=1e-12)
        np.testing.assert_array_equal(array_in, after)


class TestForwardSlots:
    """Model-level ragged decoding over a shared slot pool."""

    def test_ragged_decode_matches_independent_streams(self, nano_model):
        """Two requests at different depths advance together as they
        would alone (to fp tolerance: batching the decode step changes
        GEMM shapes in the MoE dispatch, so last-bit rounding may differ;
        greedy argmax ids are identical — asserted engine-level in
        tests/serving/test_scheduler.py)."""
        rng = np.random.default_rng(6)
        a = rng.integers(0, 64, size=(1, 9))
        b = rng.integers(0, 64, size=(1, 4))
        step = rng.integers(0, 64, size=(2, 1))
        with no_grad():
            refs = []
            for prompt, row in ((a, 0), (b, 1)):
                cache = nano_model.new_kv_cache(1, max_len=16)
                nano_model.forward_slots(prompt, cache, np.arange(1))
                refs.append(nano_model.forward_slots(
                    step[row:row + 1], cache, np.arange(1)).data)
            pool = nano_model.new_kv_cache(2, max_len=16)
            nano_model.forward_slots(a, pool, np.array([0]))
            nano_model.forward_slots(b, pool, np.array([1]))
            got = nano_model.forward_slots(step, pool,
                                           np.array([0, 1])).data
        np.testing.assert_allclose(got[0:1], refs[0], atol=1e-12)
        np.testing.assert_allclose(got[1:2], refs[1], atol=1e-12)

    def test_validation(self, nano_model):
        pool = nano_model.new_kv_cache(2, max_len=8)
        ids = np.array([[1, 2]])
        with pytest.raises(RuntimeError):
            nano_model.forward_slots(ids, pool, np.array([0]))
        with no_grad():
            with pytest.raises(ValueError):      # one slot per row
                nano_model.forward_slots(ids, pool, np.array([0, 1]))
            nano_model.forward_slots(np.ones((1, 7), dtype=np.int64), pool,
                                     np.array([0]))
            with pytest.raises(ValueError, match="overflow"):
                nano_model.forward_slots(ids, pool, np.array([0]))
        np.testing.assert_array_equal(pool.positions, [7, 0])

    @pytest.mark.parametrize("slots", [[-1], [2], [-1, 1], [0, 0]])
    def test_slot_ids_checked_before_any_write(self, nano_model, slots):
        """Slot -1 of a 2-row pool would wrap onto row 1 (and ``[-1, 1]``
        would pass a distinctness check, writing row 1 twice); the ids are
        rejected before any layer writes."""
        pool = nano_model.new_kv_cache(2, max_len=8)
        ids = np.ones((len(slots), 2), dtype=np.int64)
        with no_grad():
            with pytest.raises(ValueError, match="slot"):
                nano_model.forward_slots(ids, pool, np.array(slots))
        np.testing.assert_array_equal(pool.positions, [0, 0])
        assert not pool.keys.any()


    def test_one_plan_per_step(self, nano_model, monkeypatch):
        """Slot checks, offsets and the mask are laid out once per call,
        every block appends through that plan, and the cursors advance
        in one commit after the last block."""
        calls = {name: 0 for name in ("slot_ids", "plan", "append_rows",
                                      "commit")}
        for name in calls:
            def spy(*args, _name=name, _method=getattr(KVCache, name)):
                calls[_name] += 1
                return _method(*args)
            monkeypatch.setattr(KVCache, name, spy)
        pool = nano_model.new_kv_cache(3, max_len=8)
        with no_grad():
            nano_model.forward_slots(np.ones((2, 3), dtype=np.int64), pool,
                                     np.array([2, 0]))
        assert calls == {"slot_ids": 1, "plan": 1,
                         "append_rows": len(nano_model.blocks), "commit": 1}


class TestTokenIdValidation:
    """Ids are checked once, where both forward paths gather the
    embedding, and before any KV write."""

    @pytest.mark.parametrize("ids", [[[1, -1, 3]], [[1, 64, 3]],
                                     [[1.7, 2.2]], [[True, False]]],
                             ids=["negative", "vocab_size", "float", "bool"])
    def test_forward_and_loss_reject(self, nano_model, ids):
        match = "integers" if np.asarray(ids).dtype.kind in "fb" \
            else r"\[0, 64\)"
        with pytest.raises(ValueError, match=match):
            nano_model.forward(ids)
        with pytest.raises(ValueError, match=match):
            nano_model.loss(ids, np.zeros_like(ids, dtype=np.int64))

    @pytest.mark.parametrize("prompt, match", [([5, -3], r"\[0, 64\)"),
                                               ([1.7, 2.2], "integer")],
                             ids=["negative", "float"])
    def test_generate_rejects_bad_prompt(self, nano_model, prompt, match):
        with pytest.raises(ValueError, match=match):
            generate(nano_model, np.array(prompt), 2, temperature=0.0)

    @pytest.mark.parametrize("ids", [[[1], [-2]], [[1], [64]], [[1.7], [2.2]],
                                     np.zeros((2, 0), dtype=np.int64)],
                             ids=["negative", "vocab_size", "float", "empty"])
    def test_forward_slots_rejects_before_any_write(self, nano_model, ids):
        pool = nano_model.new_kv_cache(2, max_len=8)
        with no_grad(), pytest.raises(ValueError, match="token ids"):
            nano_model.forward_slots(ids, pool, [0, 1])
        np.testing.assert_array_equal(pool.positions, [0, 0])
        assert not pool.keys.any()


class TestIncrementalDeterminism:
    def test_two_cache_runs_identical(self, nano_config):
        model = build_model(nano_config)
        ids = np.random.default_rng(2).integers(0, 64, size=(1, 6))
        outs = []
        for _ in range(2):
            with no_grad():
                cache = model.new_kv_cache(1, max_len=6)
                outs.append(model.forward_slots(ids, cache,
                                                np.arange(1)).data)
        np.testing.assert_array_equal(outs[0], outs[1])


# --------------------------------------------------------------------- #
# property test: the array path against the Tensor forward oracle
# --------------------------------------------------------------------- #
VOCAB = nano_moe().vocab_size
DECODE_ATOL = {np.float64: 1e-12, np.float32: 1e-5}


def logged_model(dtype):
    """A fresh nano model built in ``dtype``, and the list its MoE blocks
    log every plain-array call to, as ``(block, input, output, record)``."""
    with default_dtype(dtype):
        model = build_model(nano_moe(seed=0))
    calls = []
    for block in model.blocks:
        def logged(x, moe=block.moe, forward=block.moe.forward):
            out = forward(x)
            if isinstance(x, np.ndarray):
                calls.append((moe, x.copy(), out.copy(), moe.last_record))
            return out
        block.moe.forward = logged
    return model, calls


@st.composite
def slot_schedules(draw):
    """A pool, one token sequence per slot, and an interleaving of prefill
    groups (equal prompt lengths, any slot order) and ragged decode steps
    (any subset of prefilled slots with tokens left, any order)."""
    pool = draw(st.integers(1, 4))
    prompt = draw(st.lists(st.integers(1, 6), min_size=pool, max_size=pool))
    extra = draw(st.lists(st.integers(0, 4), min_size=pool, max_size=pool))
    seqs = [draw(st.lists(st.integers(0, VOCAB - 1), min_size=p + d,
                          max_size=p + d)) for p, d in zip(prompt, extra)]
    cursor = [0] * pool
    events = []
    while True:
        waiting = [s for s in range(pool) if cursor[s] == 0]
        ready = [s for s in range(pool) if 0 < cursor[s] < len(seqs[s])]
        actions = (["prefill"] if waiting else []) + \
            (["decode"] if ready else [])
        if not actions:
            break
        if draw(st.sampled_from(actions)) == "prefill":
            length = draw(st.sampled_from(sorted({prompt[s]
                                                  for s in waiting})))
            group = [s for s in waiting if prompt[s] == length]
        else:
            group, length = ready, 1
        chosen = draw(st.lists(st.sampled_from(group), min_size=1,
                               unique=True))
        events.append((chosen, length))
        for s in chosen:
            cursor[s] += length
    return pool, seqs, events


class TestArrayPathProperty:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["float64", "float32"])
    @settings(max_examples=30, deadline=None)
    @given(schedule=slot_schedules())
    def test_array_path_matches_tensor_oracle(self, dtype, schedule):
        """A prefill group's logits and routing records equal the Tensor
        forward's on the same prompts bit for bit; ragged decode logits
        agree with the forward over each slot's whole sequence to
        ``DECODE_ATOL``; and every array MoE call reproduces the Tensor
        gate and fused dispatch on its own input bit for bit."""
        pool, seqs, events = schedule
        model, moe_calls = logged_model(dtype)
        with default_dtype(dtype):
            # gradients stay on for every oracle call: the Tensor graph path
            full = [model.forward(np.array([seq])).data[0] for seq in seqs]
            cache = model.new_kv_cache(pool, max_len=16)
            cursor = np.zeros(pool, dtype=np.int64)
            for slots, n in events:
                ids = np.array([seqs[s][cursor[s]:cursor[s] + n]
                                for s in slots])
                moe_calls.clear()
                with no_grad():
                    logits = model.forward_slots(ids, cache,
                                                 np.array(slots)).data
                records = model.routing_records()
                if cursor[slots[0]] == 0:                      # prefill
                    np.testing.assert_array_equal(logits,
                                                  model.forward(ids).data)
                    for got, want in zip(records, model.routing_records()):
                        np.testing.assert_array_equal(got.expert_indices,
                                                      want.expert_indices)
                        np.testing.assert_array_equal(got.selected_scores,
                                                      want.selected_scores)
                else:                                          # decode
                    want = np.stack([full[s][cursor[s]] for s in slots])
                    np.testing.assert_allclose(logits[:, 0], want, rtol=0,
                                               atol=DECODE_ATOL[dtype])
                cursor[slots] += n
                np.testing.assert_array_equal(cache.positions, cursor)
                assert len(moe_calls) == len(model.blocks)
                for moe, x, out, record in moe_calls:
                    ref = moe(Tensor(x))
                    np.testing.assert_array_equal(out, ref.data)
                    for field in ("expert_indices", "selected_scores",
                                  "probs"):
                        np.testing.assert_array_equal(
                            getattr(record, field),
                            getattr(moe.last_record, field))
