"""Tests for multi-head self-attention and KV-cached incremental decoding."""

import numpy as np
import pytest

from repro.nn import (KVCache, MultiHeadAttention, Tensor, causal_mask,
                      default_dtype, no_grad)


class TestCausalMask:
    def test_shape_and_pattern(self):
        mask = causal_mask(4)
        assert mask.shape == (4, 4)
        assert np.all(mask[np.tril_indices(4)] == 0)
        assert np.all(mask[np.triu_indices(4, k=1)] < -1e8)

    def test_dtype_follows_request(self):
        assert causal_mask(3).dtype == np.float64
        mask = causal_mask(3, np.float32)
        assert mask.dtype == np.float32
        np.testing.assert_array_equal(mask, causal_mask(3))


class TestMultiHeadAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadAttention(dim=16, num_heads=4, rng=rng)
        out = attn(Tensor(rng.normal(size=(2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(dim=10, num_heads=3)

    def test_causality_future_tokens_do_not_affect_past(self, rng):
        """Changing token t must not change outputs at positions < t."""
        attn = MultiHeadAttention(dim=8, num_heads=2, causal=True, rng=rng)
        x = rng.normal(size=(1, 6, 8))
        base = attn(Tensor(x)).data.copy()
        perturbed = x.copy()
        perturbed[0, 5] += 10.0
        out = attn(Tensor(perturbed)).data
        np.testing.assert_allclose(out[0, :5], base[0, :5], atol=1e-10)

    def test_non_causal_sees_future(self, rng):
        attn = MultiHeadAttention(dim=8, num_heads=2, causal=False, rng=rng)
        x = rng.normal(size=(1, 4, 8))
        base = attn(Tensor(x)).data.copy()
        perturbed = x.copy()
        perturbed[0, 3] += 10.0
        out = attn(Tensor(perturbed)).data
        assert np.abs(out[0, 0] - base[0, 0]).max() > 1e-6

    def test_gradients_flow_to_all_projections(self, rng):
        attn = MultiHeadAttention(dim=8, num_heads=2, rng=rng)
        x = Tensor(rng.normal(size=(1, 3, 8)), requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        for proj in (attn.q_proj, attn.k_proj, attn.v_proj, attn.o_proj):
            assert proj.weight.grad is not None
            assert np.abs(proj.weight.grad).sum() > 0

    def test_deterministic_given_seed(self):
        a1 = MultiHeadAttention(8, 2, rng=np.random.default_rng(7))
        a2 = MultiHeadAttention(8, 2, rng=np.random.default_rng(7))
        x = np.ones((1, 2, 8))
        np.testing.assert_array_equal(a1(Tensor(x)).data, a2(Tensor(x)).data)


def append(cache, slots, keys, values):
    """One committed step writing ``keys``/``values`` into every layer;
    returns its plan."""
    plan = cache.plan(slots, keys.shape[1])
    for layer in range(cache.keys.shape[0]):
        cache.append_rows(layer, plan, keys, values)
    cache.commit(plan)
    return plan


def slot_step(attn, cache, x, slots):
    """One standalone ragged attention step: plan, attend, commit."""
    plan = cache.plan(slots, x.shape[1], causal=attn.causal)
    out = attn.forward_slots(x, cache, 0, plan)
    cache.commit(plan)
    return out


def kv_cache(batch, max_len, num_heads=2, head_dim=4, layers=1):
    return KVCache(layers, batch, max_len, num_heads, head_dim)


class TestKVCache:
    def test_overflow_rejected(self):
        cache = kv_cache(batch=1, max_len=4, head_dim=2)
        append(cache, [0], np.zeros((1, 3, 2, 2)), np.zeros((1, 3, 2, 2)))
        with pytest.raises(ValueError, match="overflow"):
            cache.plan([0], 2)

    def test_shape_mismatch_rejected(self):
        """One row of keys would broadcast over both planned rows."""
        cache = kv_cache(batch=2, max_len=4, head_dim=2)
        plan = cache.plan([0, 1], 1)
        with pytest.raises(ValueError):
            cache.append_rows(0, plan, np.ones((1, 1, 2, 2)),
                              np.ones((1, 1, 2, 2)))
        assert not cache.keys.any()

    def test_reset_rewinds(self):
        cache = kv_cache(batch=1, max_len=4, head_dim=2)
        append(cache, [0], np.zeros((1, 4, 2, 2)), np.zeros((1, 4, 2, 2)))
        cache.reset()
        np.testing.assert_array_equal(cache.positions, [0])
        append(cache, [0], np.ones((1, 2, 2, 2)), np.ones((1, 2, 2, 2)))
        np.testing.assert_array_equal(cache.positions, [2])

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            KVCache(1, 0, 4, 2, 2)       # batch
        with pytest.raises(ValueError):
            KVCache(1, 1, 0, 2, 2)       # max_len
        with pytest.raises(ValueError):
            KVCache(0, 1, 4, 2, 2)       # layers

    @pytest.mark.parametrize("slots", [[-1], [4], [-1, 3], [3, -1], [0, 9]])
    def test_slot_ids_outside_batch_rejected(self, slots):
        """numpy would wrap slot -1 onto row 3 of a 4-row cache, so
        ``[-1, 3]`` would pass a distinctness check and write row 3 twice;
        every entry point rejects the ids instead, touching nothing."""
        cache = kv_cache(batch=4, max_len=4, head_dim=2)
        append(cache, [3], np.ones((1, 2, 2, 2)), np.ones((1, 2, 2, 2)))
        with pytest.raises(ValueError, match="slot ids"):
            cache.plan(slots, 1)
        with pytest.raises(ValueError, match="slot ids"):
            cache.reset(slots=slots)
        np.testing.assert_array_equal(cache.positions, [0, 0, 0, 2])
        np.testing.assert_array_equal(cache.keys[0, 3, :2], 1.0)
        assert np.count_nonzero(cache.keys) == 2 * 2 * 2


class TestKVCachePerSlot:
    def test_append_rows_writes_at_per_slot_cursors(self):
        cache = kv_cache(batch=3, max_len=8, head_dim=2, layers=2)
        append(cache, [0, 2], np.ones((2, 3, 2, 2)), np.ones((2, 3, 2, 2)))
        plan = append(cache, [2], 2 * np.ones((1, 2, 2, 2)),
                      2 * np.ones((1, 2, 2, 2)))
        np.testing.assert_array_equal(plan.offsets, [3])  # cursor before
        np.testing.assert_array_equal(cache.positions, [3, 0, 5])
        for layer in range(2):
            np.testing.assert_array_equal(cache.keys[layer, 2, :3], 1.0)
            np.testing.assert_array_equal(cache.keys[layer, 2, 3:5], 2.0)
            np.testing.assert_array_equal(cache.keys[layer, 1], 0.0)

    def test_positions_view_is_read_only(self):
        cache = kv_cache(batch=2, max_len=4, head_dim=2)
        with pytest.raises(ValueError):
            cache.positions[0] = 3

    def test_reset_slots_rewinds_subset(self):
        cache = kv_cache(batch=3, max_len=4, head_dim=2)
        append(cache, [0, 1, 2], np.zeros((3, 3, 2, 2)),
               np.zeros((3, 3, 2, 2)))
        cache.reset(slots=[1])
        np.testing.assert_array_equal(cache.positions, [3, 0, 3])

    def test_append_rows_validation(self):
        """Slot ids and overflow are checked when the step is planned,
        key shapes when a layer appends."""
        cache = kv_cache(batch=3, max_len=4, head_dim=2)
        with pytest.raises(ValueError):
            cache.plan([0, 0], 1)                        # duplicate slots
        with pytest.raises(ValueError):
            cache.plan([], 1)                            # empty
        with pytest.raises(ValueError):                  # shape mismatch
            cache.append_rows(0, cache.plan([0], 1), np.zeros((2, 1, 2, 2)),
                              np.zeros((2, 1, 2, 2)))
        append(cache, [1], np.zeros((1, 4, 2, 2)), np.zeros((1, 4, 2, 2)))
        with pytest.raises(ValueError):                  # per-slot overflow
            cache.plan([1], 1)

    def test_uncommitted_step_leaves_cursors(self):
        """Appends land past the cursors; only ``commit`` moves them."""
        cache = kv_cache(batch=2, max_len=4, head_dim=2, layers=2)
        plan = cache.plan([1], 2)
        cache.append_rows(0, plan, np.ones((1, 2, 2, 2)),
                          np.ones((1, 2, 2, 2)))
        np.testing.assert_array_equal(cache.positions, [0, 0])
        cache.commit(plan)
        np.testing.assert_array_equal(cache.positions, [0, 2])

    @pytest.mark.parametrize("slots, view", [([0, 1, 2], True), ([1, 2], True),
                                             ([2], True), ([0, 2], False),
                                             ([2, 1], False)])
    def test_gather_views_ascending_runs(self, slots, view):
        cache = kv_cache(batch=3, max_len=4, head_dim=2, layers=2)
        plan = cache.plan(slots, 1)
        keys, values = cache.gather(1, plan)
        assert np.shares_memory(keys, cache.keys) is view
        assert np.shares_memory(values, cache.values) is view
        np.testing.assert_array_equal(keys, cache.keys[1, slots, :1])


class TestIncrementalAttention:
    """KV-cached attention with one sequence per cache row."""

    def _attn(self, seed=7, causal=True):
        return MultiHeadAttention(8, 2, causal=causal,
                                  rng=np.random.default_rng(seed))

    def test_prefill_matches_full_forward_bitwise(self):
        attn = self._attn()
        x = np.random.default_rng(3).normal(size=(2, 6, 8))
        with no_grad():
            full = attn(Tensor(x)).data
            cache = kv_cache(batch=2, max_len=6)
            inc = slot_step(attn, cache, x, np.arange(2))
        np.testing.assert_array_equal(inc, full)
        np.testing.assert_array_equal(cache.positions, [6, 6])

    def test_token_by_token_matches_full_forward(self):
        attn = self._attn()
        x = np.random.default_rng(4).normal(size=(1, 7, 8))
        with no_grad():
            full = attn(Tensor(x)).data
            cache = kv_cache(batch=1, max_len=7)
            steps = [slot_step(attn, cache, x[:, t:t + 1], np.arange(1))
                     for t in range(7)]
        np.testing.assert_allclose(np.concatenate(steps, axis=1), full,
                                   atol=1e-12)

    def test_prefill_then_steps_matches_full_forward(self):
        attn = self._attn()
        x = np.random.default_rng(5).normal(size=(2, 9, 8))
        with no_grad():
            full = attn(Tensor(x)).data
            cache = kv_cache(batch=2, max_len=9)
            prefill = slot_step(attn, cache, x[:, :5], np.arange(2))
            tail = [slot_step(attn, cache, x[:, t:t + 1], np.arange(2))
                    for t in range(5, 9)]
        got = np.concatenate([prefill] + tail, axis=1)
        np.testing.assert_allclose(got, full, atol=1e-12)

    def test_requires_no_grad(self):
        """Rejected before anything is written to the cache."""
        attn = self._attn()
        cache = kv_cache(batch=1, max_len=4)
        with pytest.raises(RuntimeError):
            slot_step(attn, cache, np.ones((1, 1, 8)), np.arange(1))
        np.testing.assert_array_equal(cache.positions, [0])
        assert not cache.keys.any()


class TestSlotAttention:
    def _attn(self, seed=7, causal=True):
        return MultiHeadAttention(8, 2, causal=causal,
                                  rng=np.random.default_rng(seed))

    def test_uniform_slots_match_incremental_bitwise(self):
        """A prefill into two rows of a larger pool computes bit for bit
        what the same prefill computes in a cache of its own — and what
        the full forward computes."""
        attn = self._attn()
        x = np.random.default_rng(3).normal(size=(2, 6, 8))
        with no_grad():
            own = kv_cache(batch=2, max_len=8)
            ref = slot_step(attn, own, x, np.arange(2))
            pool = kv_cache(batch=4, max_len=8)
            got = slot_step(attn, pool, x, np.array([1, 3]))
            full = attn(Tensor(x)).data
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(got, full)
        np.testing.assert_array_equal(pool.positions, [0, 6, 0, 6])

    def test_ragged_rows_match_independent_decodes(self):
        """Two slots at different fill depths decode together exactly as
        they would alone (masking hides columns past each row's cursor)."""
        attn = self._attn()
        rng = np.random.default_rng(9)
        seq_a = rng.normal(size=(1, 5, 8))
        seq_b = rng.normal(size=(1, 3, 8))
        step = rng.normal(size=(2, 1, 8))
        with no_grad():
            # independent baselines
            refs = []
            for seq, row in ((seq_a, 0), (seq_b, 1)):
                cache = kv_cache(batch=1, max_len=8)
                slot_step(attn, cache, seq, np.arange(1))
                refs.append(slot_step(attn, cache, step[row:row + 1],
                                      np.arange(1)))
            # shared pool, ragged step
            pool = kv_cache(batch=2, max_len=8)
            slot_step(attn, pool, seq_a, np.array([0]))
            slot_step(attn, pool, seq_b, np.array([1]))
            got = slot_step(attn, pool, step, np.array([0, 1]))
        np.testing.assert_array_equal(got[0:1], refs[0])
        np.testing.assert_array_equal(got[1:2], refs[1])

    def test_stale_entries_do_not_leak_after_reset(self):
        """A re-issued slot (cursor rewound, buffer still dirty) attends
        only its own new entries."""
        attn = self._attn()
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 4, 8))
        with no_grad():
            clean = kv_cache(batch=1, max_len=6)
            ref = slot_step(attn, clean, x, np.array([0]))
            dirty = kv_cache(batch=1, max_len=6)
            slot_step(attn, dirty, 100 + rng.normal(size=(1, 6, 8)),
                      np.array([0]))
            dirty.reset(slots=[0])
            got = slot_step(attn, dirty, x, np.array([0]))
        np.testing.assert_array_equal(got, ref)

    def test_non_causal_rows_stop_at_fill_length(self):
        """A non-causal layer still must not attend past a row's cursor."""
        attn = self._attn(causal=False)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1, 3, 8))
        with no_grad():
            solo = kv_cache(batch=1, max_len=8)
            ref = slot_step(attn, solo, x, np.array([0]))
            pool = kv_cache(batch=2, max_len=8)
            # slot 1 is deeper, forcing a gather wider than slot 0's fill
            slot_step(attn, pool, rng.normal(size=(1, 7, 8)), np.array([1]))
            got = slot_step(attn, pool, x, np.array([0]))
        np.testing.assert_allclose(got, ref, atol=1e-12)
        # A fresh row hides nothing: the full forward, bit for bit.
        np.testing.assert_array_equal(ref, attn(Tensor(x)).data)

    def test_plan_must_match_layer_causality(self):
        attn = self._attn(causal=False)
        cache = kv_cache(batch=1, max_len=4)
        with no_grad(), pytest.raises(ValueError, match="causal"):
            attn.forward_slots(np.zeros((1, 1, 8)), cache, 0,
                               cache.plan([0], 1))

    def test_requires_no_grad(self):
        attn = self._attn()
        cache = kv_cache(batch=1, max_len=4)
        with pytest.raises(RuntimeError):
            slot_step(attn, cache, np.zeros((1, 1, 8)), np.array([0]))

    def test_float32_prefill_stays_float32_and_matches_forward(self):
        """Masks follow the scores' dtype, so a float32 layer computes in
        float32 on both paths and they agree bit for bit."""
        with default_dtype(np.float32):
            attn = self._attn()
            x = np.random.default_rng(3).normal(size=(2, 5, 8)) \
                .astype(np.float32)
            full = attn(Tensor(x)).data
            with no_grad():
                cache = kv_cache(batch=3, max_len=8)
                plan = cache.plan(np.array([2, 0]), 5)
                got = attn.forward_slots(x, cache, 0, plan)
        assert full.dtype == got.dtype == plan.mask.dtype == np.float32
        np.testing.assert_array_equal(got, full)
