"""Tests for the continuous-batching engine (slot pool, admission, eviction).

Greedy ids are checked against :func:`repro.models.generate` — the full
re-forward decoder, independent of the serve loop under test.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterTopology, Link, v100_32gb
from repro.models import build_model, generate, nano_moe, tiny_mistral
from repro.models.transformer import MoETransformer
from repro.nn import default_dtype, no_grad
from repro.placement import Placement
from repro.serving import (ADMISSION_POLICIES, ContinuousBatchingEngine,
                           LiveDecodeEngine, PrefetchConfig, Request,
                           SlotPool, poisson_workload)
from repro.telemetry import RequestTracer, Telemetry
from repro.telemetry.events import EventLog


def make_request(request_id, prompt_ids, decode_tokens, arrival=0.0):
    return Request(request_id, arrival, decode_tokens,
                   prompt_ids=np.asarray(prompt_ids, dtype=np.int64))


def solo_ids(model, prompt_ids, decode_tokens):
    """The oracle: greedy full re-forward ``generate``, prompt stripped."""
    return generate(model, prompt_ids, decode_tokens,
                    temperature=0.0)[len(prompt_ids):]


@pytest.fixture
def prompts(nano_config):
    rng = np.random.default_rng(7)
    return [rng.integers(0, nano_config.vocab_size, size=n)
            for n in (5, 8, 5, 3, 8)]


class TestSlotPool:
    def test_acquire_lowest_first_and_release(self, nano_model):
        pool = SlotPool(nano_model.new_kv_cache(3))
        assert pool.max_slots == 3
        assert [pool.acquire() for _ in range(3)] == [0, 1, 2]
        assert pool.free_count == 0 and pool.active_count == 3
        with pytest.raises(RuntimeError):
            pool.acquire()
        pool.release(1)
        assert pool.acquire() == 1  # re-issues the freed slot

    def test_acquire_rewinds_only_that_slot(self, nano_model):
        cache = nano_model.new_kv_cache(2)
        pool = SlotPool(cache)
        pool.acquire(), pool.acquire()
        cache._positions[:] = [4, 7]  # simulate decoded prefixes
        pool.release(0)
        pool.acquire()
        assert list(cache.positions) == [0, 7]

    def test_validation(self, nano_model):
        pool = SlotPool(nano_model.new_kv_cache(2))
        with pytest.raises(ValueError):
            pool.release(0)              # already free
        with pytest.raises(ValueError):
            pool.release(5)              # out of range


class TestSingleRequestEquivalence:
    """The anchor: one request through the slot pool == LiveDecodeEngine
    == the ``generate`` oracle."""

    @pytest.fixture(scope="class")
    def tiny_config(self):
        return tiny_mistral(seed=0, max_seq_len=64)

    def test_grid_bit_identical_to_live_engine(self, tiny_config):
        """A single request decoded through the continuous-batching engine
        yields greedy ids bit-identical to LiveDecodeEngine.decode and to
        the ``generate`` oracle."""
        prompt = np.random.default_rng(3).integers(
            0, tiny_config.vocab_size, size=12)
        model = build_model(tiny_config)
        baseline = solo_ids(model, prompt, 10)
        np.testing.assert_array_equal(
            LiveDecodeEngine(model).decode(prompt[None, :], 10)[0],
            baseline)
        engine = ContinuousBatchingEngine(build_model(tiny_config),
                                          max_slots=4)
        metrics = engine.serve([make_request(0, prompt, 10)])
        np.testing.assert_array_equal(metrics.outcomes[0].token_ids,
                                      baseline)

    def test_single_request_in_dirty_pool(self, tiny_config):
        """A request admitted into a slot a previous request used must not
        see the earlier occupant's KV entries."""
        rng = np.random.default_rng(5)
        prompts = [rng.integers(0, tiny_config.vocab_size, size=9)
                   for _ in range(3)]
        engine = ContinuousBatchingEngine(build_model(tiny_config),
                                          max_slots=1)
        metrics = engine.serve([make_request(i, p, 6)
                                for i, p in enumerate(prompts)])
        oracle = build_model(tiny_config)
        for prompt, outcome in zip(prompts, metrics.outcomes):
            expected = solo_ids(oracle, prompt, 6)
            np.testing.assert_array_equal(outcome.token_ids, expected,
                                          err_msg=f"request "
                                                  f"{outcome.request_id}")


class TestSlotLifecycle:
    def test_admission_order_under_full_pool(self, nano_model, prompts):
        """With one slot, requests are served strictly in arrival order;
        each waits for its predecessor's slot."""
        requests = [make_request(i, p, 3, arrival=0.0)
                    for i, p in enumerate(prompts)]
        engine = ContinuousBatchingEngine(nano_model, max_slots=1)
        metrics = engine.serve(requests)
        starts = [o.start_time for o in metrics.outcomes]
        assert starts == sorted(starts)
        for earlier, later in zip(metrics.outcomes, metrics.outcomes[1:]):
            assert later.start_time >= earlier.finish_time - 1e-12

    def test_shortest_admission_prefers_small_budgets(self, nano_model,
                                                      prompts):
        """With the shortest-job policy and one slot, the smallest decode
        budget among the queued requests goes first."""
        requests = [make_request(0, prompts[0], 8),
                    make_request(1, prompts[1], 2),
                    make_request(2, prompts[2], 5)]
        engine = ContinuousBatchingEngine(nano_model, max_slots=1,
                                          admission="shortest")
        metrics = engine.serve(requests)
        by_id = {o.request_id: o for o in metrics.outcomes}
        # All three arrive at t=0, so the queue holds {0, 1, 2} before any
        # admission; shortest-job order is 1 (budget 2), 2 (5), 0 (8).
        assert by_id[1].start_time < by_id[2].start_time \
            < by_id[0].start_time

    def test_eviction_reason_max_tokens(self, nano_model, prompts):
        engine = ContinuousBatchingEngine(nano_model, max_slots=2)
        metrics = engine.serve([make_request(0, prompts[0], 4)])
        outcome = metrics.outcomes[0]
        assert outcome.finish_reason == "max_tokens"
        assert outcome.decode_tokens == 4
        assert len(outcome.token_ids) == 4

    def test_eviction_reason_eos(self, nano_model, prompts):
        """Declaring a token the model actually generates as EOS cuts the
        request short with finish_reason='eos'."""
        full = ContinuousBatchingEngine(nano_model, max_slots=1).serve(
            [make_request(0, prompts[0], 6)]).outcomes[0]
        eos = int(full.token_ids[2])
        engine = ContinuousBatchingEngine(nano_model, max_slots=1,
                                          eos_token_id=eos)
        outcome = engine.serve([make_request(0, prompts[0], 6)]).outcomes[0]
        assert outcome.finish_reason == "eos"
        assert outcome.token_ids[-1] == eos
        assert outcome.decode_tokens <= 3

    def test_slot_reuse_no_stale_kv(self, nano_config, prompts):
        """5 requests through 2 slots: every request's ids must equal its
        solo ``generate`` ids — re-used slots leak no stale KV."""
        requests = [make_request(i, p, 5) for i, p in enumerate(prompts)]
        engine = ContinuousBatchingEngine(build_model(nano_config),
                                          max_slots=2)
        metrics = engine.serve(requests)
        assert len(metrics.outcomes) == 5
        oracle = build_model(nano_config)
        for request, outcome in zip(requests, metrics.outcomes):
            expected = solo_ids(oracle, request.prompt_ids, 5)
            np.testing.assert_array_equal(outcome.token_ids, expected,
                                          err_msg=f"request "
                                                  f"{outcome.request_id}")

    def test_idle_gap_fast_forwards(self, nano_model, prompts):
        requests = [make_request(0, prompts[0], 2, arrival=0.0),
                    make_request(1, prompts[1], 2, arrival=100.0)]
        metrics = ContinuousBatchingEngine(nano_model,
                                           max_slots=2).serve(requests)
        second = [o for o in metrics.outcomes if o.request_id == 1][0]
        assert second.start_time >= 100.0
        assert second.queueing_delay < 1.0  # admitted promptly on arrival


class TestMetricsAndEvents:
    def test_fleet_metrics_sanity(self, nano_model, prompts):
        requests = [make_request(i, p, 4) for i, p in enumerate(prompts)]
        metrics = ContinuousBatchingEngine(nano_model,
                                           max_slots=2).serve(requests)
        assert metrics.total_tokens == 20
        assert metrics.throughput_tokens_per_s() > 0
        assert metrics.wall_time > 0 and metrics.total_steps > 0
        assert metrics.p50_latency() <= metrics.p95_latency() \
            <= metrics.p99_latency()
        assert metrics.token_latency_percentile(99) > 0
        assert metrics.mean_ttft() >= 0 and metrics.mean_queueing() >= 0
        for outcome in metrics.outcomes:
            assert outcome.ttft is not None
            assert outcome.ttft >= outcome.queueing_delay - 1e-12
            assert len(outcome.token_latencies) == outcome.decode_tokens

    def test_goodput_slo_conditioning(self, nano_model, prompts):
        requests = [make_request(i, p, 4) for i, p in enumerate(prompts)]
        metrics = ContinuousBatchingEngine(nano_model,
                                           max_slots=2).serve(requests)
        assert metrics.goodput_tokens_per_s() == pytest.approx(
            metrics.throughput_tokens_per_s())
        assert metrics.goodput_tokens_per_s(slo_ttft_s=1e-12) == 0.0
        loose = metrics.goodput_tokens_per_s(slo_ttft_s=1e6,
                                             slo_token_latency_s=1e6)
        assert loose == pytest.approx(metrics.throughput_tokens_per_s())

    def test_event_log_admit_evict(self, nano_model, prompts):
        log = EventLog()
        requests = [make_request(i, p, 3) for i, p in enumerate(prompts)]
        ContinuousBatchingEngine(nano_model, max_slots=2,
                                 events=log).serve(requests)
        admits = [e for e in log.events if e.kind == "request_admit"]
        evicts = [e for e in log.events if e.kind == "request_evict"]
        assert len(admits) == len(evicts) == 5
        assert {e.labels["request_id"] for e in admits} == set(range(5))
        assert all(e.labels["slot"] in (0, 1) for e in admits)
        assert all(e.labels["finish_reason"] == "max_tokens"
                   for e in evicts)
        assert all(e.labels["tokens"] == 3 for e in evicts)

    def test_telemetry_instruments_fed(self, nano_model, prompts):
        telemetry = Telemetry()
        requests = [make_request(i, p, 3) for i, p in enumerate(prompts)]
        ContinuousBatchingEngine(nano_model, max_slots=2,
                                 telemetry=telemetry).serve(requests)
        assert telemetry.histogram("serve.queueing_s").count == 5
        assert telemetry.histogram("serve.ttft_s").count == 5
        assert telemetry.histogram("serve.request_latency_s").count == 5
        assert telemetry.histogram("serve.token_latency_s").count == 15
        assert telemetry.gauge("serve.queue_depth").updates > 0
        assert telemetry.gauge("serve.active_slots").value == 0.0
        # One serve.prefill span per prefill group, one serve.decode_token
        # per decode step, back to back on the decode track.
        spans = [s for s in telemetry.spans if s.track == "decode"]
        prefills = [s for s in spans if s.name == "serve.prefill"]
        decodes = [s for s in spans if s.name == "serve.decode_token"]
        assert len(prefills) + len(decodes) == len(spans)
        assert telemetry.histogram("serve.prefill_latency_s").values == \
            [s.duration for s in prefills]
        assert [s.labels["token"] for s in decodes] == \
            list(range(1, len(decodes) + 1))
        for prev, cur in zip(spans, spans[1:]):
            assert cur.start == pytest.approx(prev.end, abs=1e-9)

    def test_flags_restored_after_serve(self, nano_model, prompts):
        nano_model.train()
        ContinuousBatchingEngine(nano_model, max_slots=2).serve(
            [make_request(0, prompts[0], 2)])
        assert nano_model.training is True
        assert all(block.moe.record_probs for block in nano_model.blocks)


class TestValidation:
    def test_admission_policies_listed(self):
        assert ADMISSION_POLICIES == ("fcfs", "shortest")

    def test_rejects_bad_knobs(self, nano_model):
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(nano_model, admission="priority")
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(nano_model, max_slots=0)

    def test_rejects_promptless_and_oversized(self, nano_model, nano_config):
        engine = ContinuousBatchingEngine(nano_model, max_slots=2)
        with pytest.raises(ValueError):
            engine.serve([])
        with pytest.raises(ValueError):
            engine.serve([Request(0, 0.0, 4)])  # no prompt_ids
        too_long = np.zeros(nano_config.max_seq_len, dtype=np.int64)
        with pytest.raises(ValueError):
            engine.serve([make_request(0, too_long, 4)])

    def test_poisson_workload_feeds_engine(self, nano_model, nano_config):
        requests = poisson_workload(4, arrival_rate=50.0,
                                    mean_decode_tokens=3, seed=2,
                                    prompt_len=(3, 6),
                                    vocab_size=nano_config.vocab_size)
        metrics = ContinuousBatchingEngine(nano_model,
                                           max_slots=2).serve(requests)
        assert len(metrics.outcomes) == 4


class TestFailurePaths:
    def test_failed_serve_releases_its_slots(self, nano_config, prompts):
        """A forward that raises mid-run must not leak the slots the run
        held: the pool is full again right after the failure (a leaked
        pool would make the next serve() spin with nothing to admit or
        step), and the next serve() gives the ids a fresh engine gives."""
        model = build_model(nano_config)
        engine = ContinuousBatchingEngine(model, max_slots=2)
        calls = []

        def failing_third_call(token_ids, cache, slots):
            calls.append(len(slots))
            if len(calls) == 3:
                raise RuntimeError("injected forward failure")
            return MoETransformer.forward_slots(model, token_ids, cache,
                                                slots)

        model.forward_slots = failing_third_call
        requests = [make_request(i, p, 4) for i, p in enumerate(prompts)]
        with pytest.raises(RuntimeError, match="injected"):
            engine.serve(requests)
        assert calls == [1, 1, 2]  # two prefills, then the failed decode
        assert engine.pool.free_count == engine.max_slots

        retry = [make_request(0, prompts[1], 5)]
        fresh = ContinuousBatchingEngine(build_model(nano_config),
                                         max_slots=2).serve(retry)
        np.testing.assert_array_equal(
            engine.serve(retry).outcomes[0].token_ids,
            fresh.outcomes[0].token_ids)

    @pytest.mark.parametrize("bad", [-1, 64], ids=["negative", "vocab_size"])
    def test_out_of_range_prompt_ids_rejected(self, nano_model, bad):
        """Ids outside [0, vocab_size) are rejected up front, naming the
        request: a negative id would silently wrap onto the last embedding
        row, one at vocab_size would raise mid-run."""
        assert nano_model.config.vocab_size == 64
        engine = ContinuousBatchingEngine(nano_model, max_slots=2)
        requests = [make_request(0, [1, 2, 3], 4),
                    make_request(1, [1, 2, bad], 4)]
        with pytest.raises(ValueError, match="request 1"):
            engine.serve(requests)
        assert engine.pool.free_count == engine.max_slots


VOCAB = nano_moe().vocab_size
# Greedy ids may differ from the oracle only where the oracle's two best
# logits are this close: there the ~1e-12 float64 drift between the
# cached decode and the full re-forward can flip the argmax.
NEAR_TIE = 1e-9
PREFETCH_COUNTERS = {
    "prefetch_hidden_bytes": "serve.prefetch_hidden_bytes",
    "prefetch_unhidden_bytes": "serve.prefetch_unhidden_bytes",
    "prefetch_remote_bytes": "serve.prefetch_remote_bytes",
}


# 2 nodes x 2 GPUs: a swapped placement moves experts across both link
# classes, so the prefetcher's remote bytes follow the swaps.
TOPOLOGY = ClusterTopology(num_nodes=2, gpus_per_node=2, device=v100_32gb(),
                           intra_link=Link(18.3e9, 10e-6),
                           cross_link=Link(1.17e9, 150e-6))


@st.composite
def placement_swaps(draw):
    """Placements to stage, each before a drawn ``forward_slots`` call
    (call 0 stages before the first prefill; later calls land between
    and during admissions, prefills, decode steps and evictions)."""
    config = nano_moe()
    calls = draw(st.lists(st.integers(0, 10), max_size=3, unique=True))
    return {call: Placement(np.array(draw(st.lists(
        st.integers(0, TOPOLOGY.num_workers - 1),
        min_size=config.num_layers * config.num_experts,
        max_size=config.num_layers * config.num_experts))).reshape(
            config.num_layers, config.num_experts), name=f"call{call}")
        for call in calls}


def staging_swaps(engine, swaps):
    """Wrap ``engine.model.forward_slots`` to stage ``swaps[k]`` just
    before the ``k``-th call; returns the list of staged placements."""
    model, staged, calls = engine.model, [], [0]

    def forward_slots(token_ids, cache, slots):
        placement = swaps.get(calls[0])
        calls[0] += 1
        if placement is not None:
            engine.swap_placement(placement)
            staged.append(placement)
        return MoETransformer.forward_slots(model, token_ids, cache, slots)

    model.forward_slots = forward_slots
    return staged


@st.composite
def serve_plans(draw):
    """Requests with drawn arrival times, prompts and decode budgets, a
    pool size, an admission policy, and whether the tracer and the
    prefetcher ride along."""
    requests = [
        Request(i, draw(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2])),
                draw(st.integers(1, 6)),
                prompt_ids=np.array(draw(st.lists(
                    st.integers(0, VOCAB - 1), min_size=1, max_size=6))))
        for i in range(draw(st.integers(1, 6)))]
    return (requests, draw(st.integers(1, 4)),
            draw(st.sampled_from(ADMISSION_POLICIES)), draw(st.booleans()))


def expected_outcome(solo, eos_token_id):
    """The oracle's ids cut after the first EOS, and the finish reason."""
    if eos_token_id is not None and eos_token_id in solo:
        return solo[:list(solo).index(eos_token_id) + 1], "eos"
    return solo, "max_tokens"


def matches_oracle(model, request, outcome, solo, eos_token_id) -> bool:
    """True when ``outcome`` equals the oracle; False when it first differs
    at a near tie of the oracle's logits; fails the test otherwise."""
    want, reason = expected_outcome(solo, eos_token_id)
    got = outcome.token_ids
    if len(got) == len(want) and np.array_equal(got, want):
        assert outcome.finish_reason == reason
        return True
    common = min(len(got), len(want))
    differ = np.flatnonzero(got[:common] != want[:common])
    assert differ.size, (request.request_id, got, want)
    position = int(differ[0])
    context = np.concatenate([request.prompt_ids, solo[:position]])
    with no_grad():
        logits = model.forward(context[None, :]).data[0, -1]
    best, second = np.sort(logits)[::-1][:2]
    assert best - second <= NEAR_TIE, (request.request_id, position,
                                       best - second)
    return False


class TestServeLoopProperty:
    @settings(max_examples=30, deadline=None)
    @given(plan=serve_plans(), swaps=placement_swaps(), data=st.data())
    def test_serve_matches_generate_oracle(self, plan, swaps, data):
        """Random arrivals, prompts, budgets, pool sizes, admission
        policies, EOS tokens and placement swaps staged mid-run: every
        request's ids equal its solo ``generate`` ids cut at EOS, every
        slot is free after each serve(), and with the tracer and
        prefetcher attached the ids are the same and the ledgers tile the
        ``serve.prefetch_*`` counters."""
        requests, max_slots, admission, sidecars = plan
        with default_dtype(np.float64):
            model = build_model(nano_moe(seed=0))
        solo = [solo_ids(model, r.prompt_ids, r.decode_tokens)
                for r in requests]
        generated = sorted({int(t) for ids in solo for t in ids})
        eos_token_id = data.draw(st.none() | st.sampled_from(generated),
                                 label="eos_token_id")

        runs = [{}] + ([{"telemetry": Telemetry(), "tracing": RequestTracer(),
                         "prefetch": PrefetchConfig(topology=TOPOLOGY)}]
                       if sidecars else [])
        for extra in runs:
            engine = ContinuousBatchingEngine(
                model, max_slots=max_slots, admission=admission,
                eos_token_id=eos_token_id, **extra)
            staged = staging_swaps(engine, swaps)
            try:
                outcomes = engine.serve(requests).outcomes
            finally:
                del model.forward_slots
            assert engine.pool.free_count == max_slots
            if staged:
                # The last swap is live, or staged for the next boundary.
                assert staged[-1] in (engine.active_placement,
                                      engine._pending_placement)
                event("placement swapped mid-run"
                      if engine.active_placement is not None
                      else "swap staged after the last boundary")
            assert [o.request_id for o in outcomes] == \
                [r.request_id for r in requests]
            for request, outcome, ids in zip(requests, outcomes, solo):
                if not matches_oracle(model, request, outcome, ids,
                                      eos_token_id):
                    event("greedy near-tie")
            if extra:
                tracer, telemetry = extra["tracing"], extra["telemetry"]
                assert len(tracer.ledgers) == len(requests)
                for fieldname, counter in PREFETCH_COUNTERS.items():
                    mirror = tracer.totals.get(fieldname, 0.0)
                    assert mirror == telemetry.counter(counter).value
                    assert abs(tracer.attribution_residual(fieldname)) \
                        <= 1e-9 * max(abs(mirror), 1.0)
