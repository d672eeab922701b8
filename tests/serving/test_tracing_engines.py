"""Request tracing through the live engines: bit-identity + attribution.

The tracer and flight recorder are accounting-only sidecars; these tests
pin the two contracts the observability PR rests on:

* greedy ids are bit-identical with the full stack attached (tracer,
  flight recorder, prefetcher, telemetry) through both entry points of
  the serve loop, ``decode()`` and ``serve()``, and
* per-request attributed bytes tile the aggregate counters — the
  tracer's in-order mirror equals the ``serve.prefetch_*`` counters
  bitwise, the per-ledger sums land within float-summation-order noise
  of the mirror, and the broker's ``dispatch_bytes`` attribution matches
  its labeled counter total.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model, nano_moe, tiny_mistral
from repro.placement import Placement
from repro.runtime.broker import ExpertBroker
from repro.serving import (ContinuousBatchingEngine, LiveDecodeEngine,
                           Request)
from repro.serving.prefetch import PrefetchConfig
from repro.telemetry import (ATTRIBUTION_FIELDS, FlightRecorder,
                             RequestTracer, SLOConfig, Telemetry, TraceSink)

PREFETCH_FIELDS = {
    "prefetch_hidden_bytes": "serve.prefetch_hidden_bytes",
    "prefetch_unhidden_bytes": "serve.prefetch_unhidden_bytes",
    "prefetch_remote_bytes": "serve.prefetch_remote_bytes",
}


def _model():
    return build_model(tiny_mistral(seed=0, max_seq_len=48))


def _requests(num=5, prompt_len=8, seed=11):
    rng = np.random.default_rng(seed)
    vocab = tiny_mistral().vocab_size
    # Simultaneous arrivals force co-residency, and the ragged decode
    # budgets stagger evictions, so late admissions prefill while earlier
    # requests are mid-decode — the stall-attribution path.
    return [Request(i, 0.0, 5 + i,
                    prompt_ids=rng.integers(0, vocab, size=prompt_len))
            for i in range(num)]


class TestRequestTraceContext:
    def test_request_mints_trace_id(self):
        request = Request(0, 0.0, 4, prompt_ids=np.arange(4))
        assert request.trace_id.startswith("t-")
        other = Request(1, 0.0, 4, prompt_ids=np.arange(4))
        assert other.trace_id != request.trace_id

    def test_explicit_trace_id_kept(self):
        request = Request(0, 0.0, 4, prompt_ids=np.arange(4),
                          trace_id="t-pinned")
        assert request.trace_id == "t-pinned"


class TestLiveEngineTracing:
    def test_ids_bit_identical_with_tracing(self):
        prompt = np.arange(1, 9)[None, :]
        plain = LiveDecodeEngine(_model()).decode(prompt, 8)
        traced = LiveDecodeEngine(
            _model(), tracing=RequestTracer(),
            flight=FlightRecorder(capacity=16)).decode(prompt, 8)
        np.testing.assert_array_equal(plain, traced)

    def test_ledger_covers_the_decode(self):
        """decode() serves each batch row as its own request: one finished
        ledger per row."""
        tracer = RequestTracer()
        flight = FlightRecorder(capacity=16)
        engine = LiveDecodeEngine(_model(), tracing=tracer, flight=flight)
        engine.decode(np.arange(1, 17).reshape(2, 8), 6)
        ledgers = sorted(tracer.ledgers, key=lambda led: led.request_id)
        assert [led.request_id for led in ledgers] == [0, 1]
        for ledger in ledgers:
            assert ledger.finish_reason == "max_tokens"
            assert ledger.prompt_len == 8
            assert ledger.tokens == 6 and ledger.steps == 6
            assert ledger.prefill_s > 0 and ledger.decode_s > 0
            assert ledger.ttft_s is not None and ledger.ttft_s > 0
        # One flight record per engine step (prefill + 5 decode steps),
        # each carrying both rows' trace ids.
        assert [r.kind for r in flight.records] == \
            ["prefill"] + ["decode"] * 5
        assert all(r.trace_ids == [led.trace_id for led in ledgers]
                   for r in flight.records)

    def test_invalid_hooks_rejected(self):
        with pytest.raises(TypeError, match="tracing"):
            LiveDecodeEngine(_model(), tracing=object())
        with pytest.raises(TypeError, match="flight"):
            LiveDecodeEngine(_model(), flight=object())


class TestBatchEngineTracing:
    def _traced_serve(self, requests, **extra):
        telemetry = Telemetry()
        tracer = RequestTracer(telemetry=telemetry,
                               sink=TraceSink(),
                               slo=SLOConfig(ttft_s=60.0))
        flight = FlightRecorder(capacity=64)
        engine = ContinuousBatchingEngine(
            _model(), max_slots=3, telemetry=telemetry, tracing=tracer,
            flight=flight, **extra)
        metrics = engine.serve(requests)
        return metrics, tracer, flight, telemetry

    def test_ids_bit_identical_with_full_stack(self):
        requests = _requests()
        plain = ContinuousBatchingEngine(_model(),
                                         max_slots=3).serve(requests)
        traced, _, _, _ = self._traced_serve(requests,
                                             prefetch=PrefetchConfig())
        assert len(plain.outcomes) == len(traced.outcomes)
        for a, b in zip(plain.outcomes, traced.outcomes):
            np.testing.assert_array_equal(a.token_ids, b.token_ids)

    def test_every_request_gets_a_finished_ledger(self):
        requests = _requests()
        metrics, tracer, _, _ = self._traced_serve(requests)
        ledgers = {led.request_id: led for led in tracer.ledgers}
        assert set(ledgers) == {r.request_id for r in requests}
        for request in requests:
            ledger = ledgers[request.request_id]
            assert ledger.trace_id == request.trace_id
            assert ledger.finish_reason == "max_tokens"
            assert ledger.tokens == request.decode_tokens
            assert ledger.prompt_len == request.prompt_len
            assert ledger.queueing_s >= 0
            assert ledger.ttft_s >= ledger.queueing_s
        # The sink saw exactly the finished ledgers.
        assert len(tracer.sink) == len(requests)

    def test_stalls_charged_to_delayed_slots(self):
        # 5 simultaneous requests through 3 slots: the prefill of each
        # admitted group delays whoever is already mid-decode, so some
        # ledgers must carry stall time, and nobody is charged more
        # stall than the run's total prefill time.
        _, tracer, _, _ = self._traced_serve(_requests())
        ledgers = tracer.ledgers
        assert any(led.decode_stall_s > 0 for led in ledgers)
        total_prefill = sum(led.prefill_s for led in ledgers)
        assert all(led.decode_stall_s <= total_prefill + 1e-9
                   for led in ledgers)

    def test_prefetch_bytes_tile_counters(self):
        requests = _requests()
        _, tracer, _, telemetry = self._traced_serve(
            requests, prefetch=PrefetchConfig())
        assert telemetry.counter("serve.prefetch_hidden_bytes").value \
            + telemetry.counter("serve.prefetch_unhidden_bytes").value > 0
        for fieldname, counter in PREFETCH_FIELDS.items():
            mirror = tracer.totals.get(fieldname, 0.0)
            # In-order mirror == aggregate counter, bitwise: the engine
            # feeds both from the same StepFetchReport values.
            assert mirror == telemetry.counter(counter).value
            # Per-ledger shares re-sum to the mirror within float
            # summation-order noise.
            assert abs(tracer.attribution_residual(fieldname)) \
                <= 1e-9 * max(mirror, 1.0)

    def test_flight_ring_records_serve_steps(self):
        requests = _requests()
        _, tracer, flight, _ = self._traced_serve(requests)
        records = flight.records
        assert records, "flight ring is empty"
        assert {r.kind for r in records} <= {"prefill", "decode"}
        # Ring trace ids only ever name real requests, and co-residency
        # shows up as multi-id records.
        known = {r.trace_id for r in requests}
        assert all(set(rec.trace_ids) <= known for rec in records)
        assert any(len(rec.trace_ids) > 1 for rec in records)
        # Slot cursors are per-slot KV positions, keyed by slot index.
        cursed = [rec for rec in records if rec.slot_positions]
        assert cursed
        assert all(int(k) < 3 and v >= 0
                   for rec in cursed
                   for k, v in rec.slot_positions.items())

    def test_slo_tracker_fed_at_finish(self):
        requests = _requests()
        _, tracer, _, telemetry = self._traced_serve(requests)
        assert tracer.slo.requests_observed == len(requests)
        assert telemetry.gauge("serve.slo_good_fraction").updates \
            == len(requests)


class TestBrokerAttribution:
    def test_dispatch_bytes_tile_counter(self):
        config = nano_moe(seed=0)
        rng = np.random.default_rng(2)
        assignment = rng.integers(0, 4, size=(config.num_layers,
                                              config.num_experts))
        telemetry = Telemetry()
        tracer = RequestTracer()
        a = tracer.admit(now=0.0).trace_id
        b = tracer.admit(now=0.0).trace_id
        tracer.set_step([(a, 3.0), (b, 1.0)])
        broker = ExpertBroker(config, Placement(assignment), num_workers=4,
                              telemetry=telemetry, tracer=tracer,
                              local_worker=1)
        counts = rng.integers(0, 9, size=(config.num_layers,
                                          config.num_experts))
        broker.plan_step(counts)

        total = telemetry.counter_total("broker.dispatch_bytes")
        assert total > 0
        assert tracer.totals["dispatch_bytes"] == pytest.approx(
            total, rel=1e-12)
        assert tracer.attributed_total("dispatch_bytes") == pytest.approx(
            total, rel=1e-9)
        # Cross-node = every edge hosted off local_worker — equals the
        # counter total minus worker-1 edges.
        local = telemetry.counter_total("broker.dispatch_bytes", worker=1)
        assert tracer.totals["cross_node_dispatch_bytes"] == pytest.approx(
            total - local, rel=1e-12)
        # 3:1 token-share split carries through to the ledgers.
        assert tracer.ledger(a).dispatch_bytes == pytest.approx(
            3 * tracer.ledger(b).dispatch_bytes, rel=1e-9)

    def test_tracer_without_telemetry_still_attributes(self):
        config = nano_moe(seed=0)
        tracer = RequestTracer()
        tid = tracer.admit(now=0.0).trace_id
        tracer.set_step([(tid, 1.0)])
        assignment = np.zeros((config.num_layers, config.num_experts),
                              dtype=np.int64)
        broker = ExpertBroker(config, Placement(assignment), num_workers=2,
                              tracer=tracer)
        broker.plan_step(np.ones((config.num_layers, config.num_experts)))
        assert tracer.ledger(tid).dispatch_bytes > 0
        # Everything lands on worker 0 == local_worker: no cross-node.
        assert tracer.ledger(tid).cross_node_dispatch_bytes == 0.0

    def test_trace_plan_matches_stepped_attribution(self):
        config = nano_moe(seed=0)
        rng = np.random.default_rng(5)
        assignment = rng.integers(0, 2, size=(config.num_layers,
                                              config.num_experts))
        trace_counts = rng.integers(0, 5, size=(3, config.num_layers,
                                                config.num_experts))

        stepped = RequestTracer()
        tid = stepped.admit(now=0.0).trace_id
        stepped.set_step([(tid, 1.0)])
        broker = ExpertBroker(config, Placement(assignment), num_workers=2,
                              tracer=stepped)
        for step in trace_counts:
            broker.plan_step(step)

        batched = RequestTracer()
        tid2 = batched.admit(now=0.0).trace_id
        batched.set_step([(tid2, 1.0)])
        broker2 = ExpertBroker(config, Placement(assignment), num_workers=2,
                               tracer=batched)
        broker2.plan_trace(trace_counts)

        for fieldname in ("dispatch_bytes", "cross_node_dispatch_bytes"):
            assert batched.totals.get(fieldname, 0.0) == pytest.approx(
                stepped.totals.get(fieldname, 0.0), rel=1e-12)


class TestAttributionFieldsExported:
    def test_fields_match_ledger_attributes(self):
        from repro.telemetry.tracing import RequestLedger
        ledger = RequestLedger(trace_id="t-x")
        for fieldname in ATTRIBUTION_FIELDS:
            assert hasattr(ledger, fieldname)
