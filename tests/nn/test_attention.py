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


class TestKVCache:
    def test_overflow_rejected(self):
        cache = KVCache(batch=1, max_len=4, num_heads=2, head_dim=2)
        cache.append_rows([0], np.zeros((1, 3, 2, 2)), np.zeros((1, 3, 2, 2)))
        with pytest.raises(ValueError):
            cache.append_rows([0], np.zeros((1, 2, 2, 2)),
                              np.zeros((1, 2, 2, 2)))

    def test_shape_mismatch_rejected(self):
        cache = KVCache(batch=2, max_len=4, num_heads=2, head_dim=2)
        with pytest.raises(ValueError):
            cache.append_rows([0, 1], np.zeros((1, 1, 2, 2)),
                              np.zeros((1, 1, 2, 2)))

    def test_reset_rewinds(self):
        cache = KVCache(batch=1, max_len=4, num_heads=2, head_dim=2)
        cache.append_rows([0], np.zeros((1, 4, 2, 2)), np.zeros((1, 4, 2, 2)))
        cache.reset()
        np.testing.assert_array_equal(cache.positions, [0])
        cache.append_rows([0], np.ones((1, 2, 2, 2)), np.ones((1, 2, 2, 2)))
        np.testing.assert_array_equal(cache.positions, [2])

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            KVCache(batch=0, max_len=4, num_heads=2, head_dim=2)
        with pytest.raises(ValueError):
            KVCache(batch=1, max_len=0, num_heads=2, head_dim=2)

    @pytest.mark.parametrize("slots", [[-1], [4], [-1, 3], [3, -1], [0, 9]])
    def test_slot_ids_outside_batch_rejected(self, slots):
        """numpy would wrap slot -1 onto row 3 of a 4-row cache, so
        ``[-1, 3]`` would pass a distinctness check and write row 3 twice;
        every entry point rejects the ids instead, touching nothing."""
        cache = KVCache(batch=4, max_len=4, num_heads=2, head_dim=2)
        cache.append_rows([3], np.ones((1, 2, 2, 2)), np.ones((1, 2, 2, 2)))
        block = np.full((len(slots), 1, 2, 2), 7.0)
        with pytest.raises(ValueError, match="slot ids"):
            cache.append_rows(slots, block, block)
        with pytest.raises(ValueError, match="slot ids"):
            cache.reset(slots=slots)
        np.testing.assert_array_equal(cache.positions, [0, 0, 0, 2])
        np.testing.assert_array_equal(cache.keys[3, :2], 1.0)
        assert not np.any(cache.keys == 7.0)


class TestKVCachePerSlot:
    def test_append_rows_writes_at_per_slot_cursors(self):
        cache = KVCache(batch=3, max_len=8, num_heads=2, head_dim=2)
        cache.append_rows([0, 2], np.ones((2, 3, 2, 2)),
                          np.ones((2, 3, 2, 2)))
        offsets = cache.append_rows([2], 2 * np.ones((1, 2, 2, 2)),
                                    2 * np.ones((1, 2, 2, 2)))
        np.testing.assert_array_equal(offsets, [3])  # cursor before append
        np.testing.assert_array_equal(cache.positions, [3, 0, 5])
        np.testing.assert_array_equal(cache.keys[2, :3], 1.0)
        np.testing.assert_array_equal(cache.keys[2, 3:5], 2.0)
        np.testing.assert_array_equal(cache.keys[1], 0.0)

    def test_positions_view_is_read_only(self):
        cache = KVCache(batch=2, max_len=4, num_heads=2, head_dim=2)
        with pytest.raises(ValueError):
            cache.positions[0] = 3

    def test_reset_slots_rewinds_subset(self):
        cache = KVCache(batch=3, max_len=4, num_heads=2, head_dim=2)
        cache.append_rows([0, 1, 2], np.zeros((3, 3, 2, 2)),
                          np.zeros((3, 3, 2, 2)))
        cache.reset(slots=[1])
        np.testing.assert_array_equal(cache.positions, [3, 0, 3])

    def test_append_rows_validation(self):
        cache = KVCache(batch=3, max_len=4, num_heads=2, head_dim=2)
        block = np.zeros((2, 1, 2, 2))
        with pytest.raises(ValueError):
            cache.append_rows([0, 0], block, block)      # duplicate slots
        with pytest.raises(ValueError):
            cache.append_rows([], np.zeros((0, 1, 2, 2)),
                              np.zeros((0, 1, 2, 2)))    # empty
        with pytest.raises(ValueError):
            cache.append_rows([0], block, block)         # shape mismatch
        cache.append_rows([1], np.zeros((1, 4, 2, 2)),
                          np.zeros((1, 4, 2, 2)))
        with pytest.raises(ValueError):                  # per-slot overflow
            cache.append_rows([1], np.zeros((1, 1, 2, 2)),
                              np.zeros((1, 1, 2, 2)))


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
            cache = KVCache(batch=2, max_len=6, num_heads=2, head_dim=4)
            inc = attn.forward_slots(x, cache, np.arange(2))
        np.testing.assert_array_equal(inc, full)
        np.testing.assert_array_equal(cache.positions, [6, 6])

    def test_token_by_token_matches_full_forward(self):
        attn = self._attn()
        x = np.random.default_rng(4).normal(size=(1, 7, 8))
        with no_grad():
            full = attn(Tensor(x)).data
            cache = KVCache(batch=1, max_len=7, num_heads=2, head_dim=4)
            steps = [attn.forward_slots(x[:, t:t + 1], cache, np.arange(1))
                     for t in range(7)]
        np.testing.assert_allclose(np.concatenate(steps, axis=1), full,
                                   atol=1e-12)

    def test_prefill_then_steps_matches_full_forward(self):
        attn = self._attn()
        x = np.random.default_rng(5).normal(size=(2, 9, 8))
        with no_grad():
            full = attn(Tensor(x)).data
            cache = KVCache(batch=2, max_len=9, num_heads=2, head_dim=4)
            prefill = attn.forward_slots(x[:, :5], cache, np.arange(2))
            tail = [attn.forward_slots(x[:, t:t + 1], cache, np.arange(2))
                    for t in range(5, 9)]
        got = np.concatenate([prefill] + tail, axis=1)
        np.testing.assert_allclose(got, full, atol=1e-12)

    def test_requires_no_grad(self):
        """Rejected before anything is written to the cache."""
        attn = self._attn()
        cache = KVCache(batch=1, max_len=4, num_heads=2, head_dim=4)
        with pytest.raises(RuntimeError):
            attn.forward_slots(np.ones((1, 1, 8)), cache, np.arange(1))
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
            own = KVCache(batch=2, max_len=8, num_heads=2, head_dim=4)
            ref = attn.forward_slots(x, own, np.arange(2))
            pool = KVCache(batch=4, max_len=8, num_heads=2, head_dim=4)
            got = attn.forward_slots(x, pool, np.array([1, 3]))
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
                cache = KVCache(batch=1, max_len=8, num_heads=2, head_dim=4)
                attn.forward_slots(seq, cache, np.arange(1))
                refs.append(attn.forward_slots(step[row:row + 1], cache,
                                               np.arange(1)))
            # shared pool, ragged step
            pool = KVCache(batch=2, max_len=8, num_heads=2, head_dim=4)
            attn.forward_slots(seq_a, pool, np.array([0]))
            attn.forward_slots(seq_b, pool, np.array([1]))
            got = attn.forward_slots(step, pool, np.array([0, 1]))
        np.testing.assert_array_equal(got[0:1], refs[0])
        np.testing.assert_array_equal(got[1:2], refs[1])

    def test_stale_entries_do_not_leak_after_reset(self):
        """A re-issued slot (cursor rewound, buffer still dirty) attends
        only its own new entries."""
        attn = self._attn()
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 4, 8))
        with no_grad():
            clean = KVCache(batch=1, max_len=6, num_heads=2, head_dim=4)
            ref = attn.forward_slots(x, clean, np.array([0]))
            dirty = KVCache(batch=1, max_len=6, num_heads=2, head_dim=4)
            attn.forward_slots(100 + rng.normal(size=(1, 6, 8)),
                               dirty, np.array([0]))
            dirty.reset(slots=[0])
            got = attn.forward_slots(x, dirty, np.array([0]))
        np.testing.assert_array_equal(got, ref)

    def test_non_causal_rows_stop_at_fill_length(self):
        """A non-causal layer still must not attend past a row's cursor."""
        attn = self._attn(causal=False)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1, 3, 8))
        with no_grad():
            solo = KVCache(batch=1, max_len=8, num_heads=2, head_dim=4)
            ref = attn.forward_slots(x, solo, np.array([0]))
            pool = KVCache(batch=2, max_len=8, num_heads=2, head_dim=4)
            # slot 1 is deeper, forcing a gather wider than slot 0's fill
            attn.forward_slots(rng.normal(size=(1, 7, 8)), pool,
                               np.array([1]))
            got = attn.forward_slots(x, pool, np.array([0]))
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_requires_no_grad(self):
        attn = self._attn()
        cache = KVCache(batch=1, max_len=4, num_heads=2, head_dim=4)
        with pytest.raises(RuntimeError):
            attn.forward_slots(np.zeros((1, 1, 8)), cache, np.array([0]))

    def test_float32_prefill_stays_float32_and_matches_forward(self):
        """Masks follow the scores' dtype, so a float32 layer computes in
        float32 on both paths and they agree bit for bit."""
        with default_dtype(np.float32):
            attn = self._attn()
            x = np.random.default_rng(3).normal(size=(2, 5, 8)) \
                .astype(np.float32)
            full = attn(Tensor(x)).data
            with no_grad():
                cache = KVCache(batch=3, max_len=8, num_heads=2, head_dim=4)
                got = attn.forward_slots(x, cache, np.array([2, 0]))
        assert full.dtype == got.dtype == np.float32
        np.testing.assert_array_equal(got, full)
