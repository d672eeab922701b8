"""Property tests for the model-wide KV cache and its per-step plan.

One :class:`~repro.nn.KVCache` holds every layer's keys and values and one
cursor per slot.  Random interleavings of slot-pool acquires, partial
resets and ragged appends are checked against a plain Python oracle, and
a ``forward_slots`` that raises mid-stack must leave every slot exactly
as it was.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import build_model, nano_moe
from repro.nn import KVCache, no_grad
from repro.serving import SlotPool

HEADS, HEAD_DIM = 2, 2


def ascending_run(slots) -> bool:
    return list(slots) == list(range(slots[0], slots[0] + len(slots)))


@st.composite
def cache_programs(draw):
    """A cache geometry and a list of operations on it: pool acquires and
    releases, partial resets, ragged appends over any slot subset in any
    order, and calls that must be rejected (bad slot ids, overflow)."""
    layers = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 4))
    max_len = draw(st.integers(1, 8))
    slot = st.integers(0, batch - 1)
    op = st.one_of(
        st.tuples(st.just("acquire")),
        st.tuples(st.just("release"), slot),
        st.tuples(st.just("reset"),
                  st.lists(slot, min_size=1, max_size=batch, unique=True)),
        st.tuples(st.just("append"),
                  st.lists(slot, min_size=1, max_size=batch, unique=True),
                  st.integers(1, 4)),
        st.tuples(st.just("bad_slots"),
                  st.sampled_from([[-1], [batch], [0, 0], [], [batch, 0],
                                   [-1, batch - 1]])),
    )
    return layers, batch, max_len, draw(st.lists(op, max_size=14)), \
        draw(st.integers(0, 2 ** 16))


class TestKVCacheProperty:
    @settings(max_examples=60, deadline=None)
    @given(program=cache_programs())
    def test_cache_matches_row_oracle(self, program):
        """Cursors, every layer's stored and gathered keys and values, and
        the view-or-copy gather all follow the oracle; rejected calls
        (bad slot ids, overflow) raise before anything is written."""
        layers, batch, max_len, ops, seed = program
        rng = np.random.default_rng(seed)
        cache = KVCache(layers, batch, max_len, HEADS, HEAD_DIM)
        pool = SlotPool(cache)
        # oracle[slot][layer] lists that slot's (key, value) rows
        oracle = [[[] for _ in range(layers)] for _ in range(batch)]

        def snapshot():
            return (cache.keys.copy(), cache.values.copy(),
                    cache.positions.copy())

        def unchanged(before):
            for was, now in zip(before, (cache.keys, cache.values,
                                         cache.positions)):
                np.testing.assert_array_equal(now, was)

        for op in ops:
            kind = op[0]
            if kind == "acquire":
                if not pool.free_count:
                    with pytest.raises(RuntimeError):
                        pool.acquire()
                    continue
                slot = pool.acquire()
                oracle[slot] = [[] for _ in range(layers)]
            elif kind == "release":
                if op[1] in pool._free:
                    with pytest.raises(ValueError):
                        pool.release(op[1])
                else:
                    pool.release(op[1])
            elif kind == "reset":
                cache.reset(slots=op[1])
                for slot in op[1]:
                    oracle[slot] = [[] for _ in range(layers)]
            elif kind == "bad_slots":
                before = snapshot()
                with pytest.raises(ValueError, match="slot"):
                    cache.plan(op[1], 1)
                with pytest.raises(ValueError, match="slot"):
                    cache.reset(slots=op[1])
                unchanged(before)
            else:
                slots, seq = op[1], op[2]
                fill = [len(oracle[s][0]) for s in slots]
                if max(fill) + seq > max_len:
                    before = snapshot()
                    with pytest.raises(ValueError, match="overflow"):
                        cache.plan(slots, seq)
                    unchanged(before)
                    continue
                plan = cache.plan(slots, seq)
                np.testing.assert_array_equal(plan.offsets, fill)
                assert plan.total == max(fill) + seq
                assert isinstance(plan.rows, slice) == ascending_run(slots)
                for layer in range(layers):
                    keys = rng.normal(size=(len(slots), seq, HEADS, HEAD_DIM))
                    values = rng.normal(size=keys.shape)
                    cache.append_rows(layer, plan, keys, values)
                    for i, s in enumerate(slots):
                        oracle[s][layer].extend(zip(keys[i], values[i]))
                    got_k, got_v = cache.gather(layer, plan)
                    view = ascending_run(slots)
                    assert np.shares_memory(got_k, cache.keys) is view
                    assert np.shares_memory(got_v, cache.values) is view
                    for i, s in enumerate(slots):
                        want = oracle[s][layer]
                        np.testing.assert_array_equal(
                            got_k[i, :len(want)], [k for k, _ in want])
                        np.testing.assert_array_equal(
                            got_v[i, :len(want)], [v for _, v in want])
                # every layer appended; the cursors move only now
                np.testing.assert_array_equal(
                    cache.positions[slots], fill)
                cache.commit(plan)

            np.testing.assert_array_equal(
                cache.positions, [len(rows[0]) for rows in oracle])
            for slot, rows in enumerate(oracle):
                for layer, entries in enumerate(rows):
                    if entries:
                        np.testing.assert_array_equal(
                            cache.keys[layer, slot, :len(entries)],
                            [k for k, _ in entries])
                        np.testing.assert_array_equal(
                            cache.values[layer, slot, :len(entries)],
                            [v for _, v in entries])


@lru_cache(maxsize=None)
def nano_model():
    return build_model(nano_moe(seed=0))


VOCAB = nano_moe().vocab_size


@st.composite
def failing_schedules(draw):
    """Two slots' prompts and decode tokens, the call (prefill or a
    decode step) at which a drawn block's MoE raises, and that block."""
    prompts = [draw(st.lists(st.integers(0, VOCAB - 1), min_size=n,
                             max_size=n)) for n in (draw(st.integers(1, 5)),
                                                    draw(st.integers(1, 5)))]
    steps = draw(st.lists(st.lists(st.integers(0, VOCAB - 1), min_size=2,
                                   max_size=2), min_size=1, max_size=4))
    calls = 2 + len(steps)   # one prefill per slot, then ragged decodes
    return (prompts, steps, draw(st.integers(0, calls - 1)),
            draw(st.integers(0, nano_moe().num_layers - 1)))


def run_calls(model, cache, prompts, steps, fail_call=None, fail_layer=None):
    """Prefill slot 0 and slot 1, then decode both per step; when
    ``fail_call`` is set, that call's block ``fail_layer`` raises once,
    the cursors are checked unchanged, and the call is retried.  Returns
    every call's logits."""
    calls = [(np.array([prompts[0]]), [0]), (np.array([prompts[1]]), [1])]
    calls += [(np.array(step)[:, None], [1, 0]) for step in steps]
    moe = model.blocks[fail_layer].moe if fail_layer is not None else None
    logits = []
    with no_grad():
        for k, (ids, slots) in enumerate(calls):
            if k == fail_call:
                def failing(x):
                    raise RuntimeError("injected block failure")
                moe.forward = failing
                before = (cache.positions.copy(), cache.keys.copy())
                try:
                    with pytest.raises(RuntimeError, match="injected"):
                        model.forward_slots(ids, cache, slots)
                finally:
                    del moe.forward
                np.testing.assert_array_equal(cache.positions, before[0])
                # Only entries past the cursors were written.
                for slot, fill in enumerate(before[0]):
                    np.testing.assert_array_equal(
                        cache.keys[:, slot, :fill],
                        before[1][:, slot, :fill])
            logits.append(model.forward_slots(ids, cache, slots).data)
    return logits


class TestForwardSlotsFailure:
    @settings(max_examples=25, deadline=None)
    @given(schedule=failing_schedules())
    def test_raise_mid_stack_leaves_slots_unchanged(self, schedule):
        """A block raising at any layer of any call leaves every cursor
        where it was, and retrying the call gives a clean run's logits
        for it and every later call, bit for bit."""
        prompts, steps, fail_call, fail_layer = schedule
        model = nano_model()
        max_len = 5 + len(steps)
        clean = run_calls(model, model.new_kv_cache(2, max_len=max_len),
                          prompts, steps)
        retried = run_calls(model, model.new_kv_cache(2, max_len=max_len),
                            prompts, steps, fail_call, fail_layer)
        for got, want in zip(retried, clean):
            np.testing.assert_array_equal(got, want)
