"""Continuous-batching serving benchmark: slot-pool engine vs single-stream.

The live continuous-batching runtime (``repro.serving.scheduler``) admits
open-loop arrivals into a fixed pool of KV-cache slots and advances every
active request one token per batched engine step.  On a burst of
concurrent requests this amortizes the per-step Python + small-GEMM
overhead across the whole batch, so fleet throughput rises well above the
one-request-at-a-time ``LiveDecodeEngine`` baseline while each request's
greedy ids stay exactly what a solo decode would produce.

Both sides run the same serve loop (``LiveDecodeEngine.decode`` is that
loop on a one-request batch), so the identity gates compare against
``repro.models.generate`` with ``temperature=0`` — the greedy full
re-forward decoder, independent of the loop they check.

Acceptance gates (hard, also enforced by ``--strict`` and CI):

* batched throughput at 8 concurrent requests >= 3x sequential
  single-stream decoding of the same workload,
* a single request through the slot pool is greedy-bit-identical to its
  ``generate`` ids,
* every request of the batched headline run matches its ``generate`` ids,
* request tracing (``tracing=``/``flight=``) is accounting-only: ids
  bit-identical with the full observability stack attached on both live
  engines, per-request ledgers tile the ``serve.prefetch_*`` counters,
  and a serve loop with no sidecar attached makes no Python call into
  ``repro.telemetry`` or ``repro.serving.prefetch``.

Run standalone for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_serving_batch.py \\
        --output BENCH_serving_batch.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.calls import calls_into
from repro.bench.host import host_record
from repro.bench.report import format_table
from repro.models import build_model, generate, tiny_mistral
from repro.serving import (ContinuousBatchingEngine, LiveDecodeEngine,
                           Request, poisson_workload)

# Headline: a burst of 8 concurrent requests, prompt 16 x decode 32, on a
# seeded tiny_mistral with an 8-slot pool, against decoding the same 8
# requests one at a time through LiveDecodeEngine.
HEADLINE_REQUESTS = 8
HEADLINE_PROMPT = 16
HEADLINE_DECODE = 32
HEADLINE_SLOTS = 8
MIN_THROUGHPUT_RATIO = 3.0

# Goodput SLOs for the headline report (generous: they characterize the
# tail, they are not the pass/fail gate — wall times are machine-relative).
SLO_TTFT_S = 5.0
SLO_TOKEN_LATENCY_S = 0.25

SWEEP_SLOTS = (1, 2, 4, 8)
SWEEP_RATES = (16.0, 64.0)  # requests/s into the open-loop stream
MAX_SEQ_LEN = 64

# Request-tracing gates (the `tracing` payload section, CI kind `tracing`):
# generated ids must be bit-identical with tracing on vs off on both live
# engines, per-request attributed bytes must tile the aggregate counters,
# and the sidecar-free serve loop may make no call into these packages.
SIDECAR_PACKAGES = ("repro.telemetry", "repro.serving.prefetch")
TRACING_TILE_REL_TOL = 1e-9
# field attributed by RequestTracer -> aggregate counter the engines feed
TRACING_COUNTERS = {
    "prefetch_hidden_bytes": "serve.prefetch_hidden_bytes",
    "prefetch_unhidden_bytes": "serve.prefetch_unhidden_bytes",
    "prefetch_remote_bytes": "serve.prefetch_remote_bytes",
}


def _model():
    """A seeded tiny_mistral able to hold prompt + decode in every slot."""
    return build_model(tiny_mistral(seed=0, max_seq_len=MAX_SEQ_LEN))


def _burst_requests(num=HEADLINE_REQUESTS, prompt_len=HEADLINE_PROMPT,
                    decode=HEADLINE_DECODE, seed=5):
    """``num`` requests all arriving at t=0 with distinct random prompts."""
    rng = np.random.default_rng(seed)
    vocab = tiny_mistral().vocab_size
    return [Request(i, 0.0, decode,
                    prompt_ids=rng.integers(0, vocab, size=prompt_len))
            for i in range(num)]


def _oracle_ids(requests):
    """Each request's solo greedy ids from the full re-forward decoder."""
    model = _model()
    return [generate(model, r.prompt_ids, r.decode_tokens,
                     temperature=0.0)[r.prompt_len:] for r in requests]


def _sequential_baseline(model, requests, iters=2):
    """Wall time to decode the requests one at a time (single stream)."""
    engine = LiveDecodeEngine(model)
    best = float("inf")
    for _ in range(iters):
        start = time.perf_counter()
        for r in requests:
            engine.decode(r.prompt_ids[None, :], r.decode_tokens)
        best = min(best, time.perf_counter() - start)
    return best


def measure_headline(iters: int = 2) -> dict:
    """Batched vs sequential throughput plus both equivalence gates."""
    requests = _burst_requests()
    model = _model()
    seq_time = _sequential_baseline(model, requests, iters=iters)
    oracle = _oracle_ids(requests)
    total_tokens = sum(r.decode_tokens for r in requests)

    best = None
    for _ in range(iters):
        engine = ContinuousBatchingEngine(_model(),
                                          max_slots=HEADLINE_SLOTS)
        metrics = engine.serve(requests)
        if best is None or metrics.wall_time < best.wall_time:
            best = metrics
    per_request_identical = all(
        np.array_equal(outcome.token_ids, solo)
        for outcome, solo in zip(best.outcomes, oracle))

    # single-request anchor: one request, otherwise idle pool
    solo_engine = ContinuousBatchingEngine(_model(),
                                           max_slots=HEADLINE_SLOTS)
    solo = solo_engine.serve([requests[0]]).outcomes[0]
    single_request_identical = bool(np.array_equal(solo.token_ids,
                                                   oracle[0]))

    batched_tput = best.throughput_tokens_per_s()
    seq_tput = total_tokens / seq_time
    return {
        "num_requests": HEADLINE_REQUESTS,
        "prompt_len": HEADLINE_PROMPT,
        "decode_tokens": HEADLINE_DECODE,
        "max_slots": HEADLINE_SLOTS,
        "sequential_s": seq_time,
        "batched_s": best.wall_time,
        "sequential_tokens_per_s": seq_tput,
        "batched_tokens_per_s": batched_tput,
        "throughput_ratio": batched_tput / seq_tput,
        "min_required": MIN_THROUGHPUT_RATIO,
        "single_request_identical": single_request_identical,
        "per_request_identical": per_request_identical,
        "token_latency_p50_ms": best.token_latency_percentile(50) * 1e3,
        "token_latency_p95_ms": best.token_latency_percentile(95) * 1e3,
        "token_latency_p99_ms": best.token_latency_percentile(99) * 1e3,
        "mean_ttft_ms": best.mean_ttft() * 1e3,
        "goodput_tokens_per_s": best.goodput_tokens_per_s(
            slo_ttft_s=SLO_TTFT_S,
            slo_token_latency_s=SLO_TOKEN_LATENCY_S),
        "slo": {"ttft_s": SLO_TTFT_S,
                "token_latency_s": SLO_TOKEN_LATENCY_S},
    }


def measure_slots_sweep(slots_grid=SWEEP_SLOTS) -> list:
    """The headline burst through pools of increasing size."""
    requests = _burst_requests()
    rows = []
    for slots in slots_grid:
        engine = ContinuousBatchingEngine(_model(), max_slots=slots)
        metrics = engine.serve(requests)
        rows.append({
            "max_slots": slots,
            "throughput_tokens_per_s": metrics.throughput_tokens_per_s(),
            "token_latency_p99_ms":
                metrics.token_latency_percentile(99) * 1e3,
            "mean_queueing_ms": metrics.mean_queueing() * 1e3,
            "mean_ttft_ms": metrics.mean_ttft() * 1e3,
            "p99_request_latency_ms": metrics.p99_latency() * 1e3,
        })
    return rows


def measure_rate_sweep(rates=SWEEP_RATES, slots=HEADLINE_SLOTS) -> list:
    """Open-loop Poisson arrivals at increasing rates, fixed pool size."""
    vocab = tiny_mistral().vocab_size
    rows = []
    for rate in rates:
        requests = poisson_workload(12, arrival_rate=rate,
                                    mean_decode_tokens=12, seed=7,
                                    prompt_len=(8, 16), vocab_size=vocab)
        requests = [r for r in requests
                    if r.prompt_len + r.decode_tokens <= MAX_SEQ_LEN]
        engine = ContinuousBatchingEngine(_model(), max_slots=slots)
        metrics = engine.serve(requests)
        rows.append({
            "arrival_rate": rate,
            "num_requests": len(requests),
            "throughput_tokens_per_s": metrics.throughput_tokens_per_s(),
            "mean_queueing_ms": metrics.mean_queueing() * 1e3,
            "mean_ttft_ms": metrics.mean_ttft() * 1e3,
            "p99_request_latency_ms": metrics.p99_latency() * 1e3,
        })
    return rows


def measure_tracing() -> dict:
    """Request-tracing acceptance: bit-identity, byte tiling, no sidecar
    calls when detached.

    Tracing is accounting-only, so every gate here is correctness rather
    than throughput: ``LiveDecodeEngine.decode`` and the slot-pool
    ``serve`` loop must generate bit-identical ids with tracing + flight
    recording attached, the per-request ledgers must tile the aggregate
    ``serve.prefetch_*`` counters (the tracer's in-order mirror equals the
    counters bitwise; the cross-ledger sum may differ from the mirror only
    by float summation order, bounded at ``TRACING_TILE_REL_TOL``
    relative), and the disabled path — every sidecar ``None``, the
    shipping default — must make no Python call into
    ``SIDECAR_PACKAGES`` while it builds the engine and serves the
    headline burst.  A count, unlike a timing of two runs of the same
    code, reads zero on working code and moves with any hook that runs.
    """
    from repro.serving.prefetch import PrefetchConfig
    from repro.telemetry import (FlightRecorder, RequestTracer, SLOConfig,
                                 Telemetry)

    requests = _burst_requests(num=6, prompt_len=8, decode=8, seed=11)
    slots = 4

    # decode(): traced vs plain.
    prompt = requests[0].prompt_ids[None, :]
    plain_ids = LiveDecodeEngine(_model()).decode(prompt, 8)
    traced_ids = LiveDecodeEngine(
        _model(), tracing=RequestTracer(),
        flight=FlightRecorder(capacity=32)).decode(prompt, 8)
    ids_identical_live = bool(np.array_equal(plain_ids, traced_ids))

    # Slot-pool engine: full observability stack vs plain serve.
    baseline = ContinuousBatchingEngine(_model(),
                                        max_slots=slots).serve(requests)
    telemetry = Telemetry()
    tracer = RequestTracer(telemetry=telemetry,
                           slo=SLOConfig(ttft_s=60.0, token_latency_s=60.0,
                                         min_requests=4))
    traced = ContinuousBatchingEngine(
        _model(), max_slots=slots, telemetry=telemetry, tracing=tracer,
        flight=FlightRecorder(capacity=64),
        prefetch=PrefetchConfig()).serve(requests)
    ids_identical_batch = bool(
        len(baseline.outcomes) == len(traced.outcomes)
        and all(np.array_equal(a.token_ids, b.token_ids)
                for a, b in zip(baseline.outcomes, traced.outcomes)))

    # Ledger tiling: mirror == counter bitwise, ledger sums within the
    # float-summation-order residual of the mirror, and bytes flowed.
    tiling = {}
    for field, counter in TRACING_COUNTERS.items():
        mirror = tracer.totals.get(field, 0.0)
        aggregate = telemetry.counter(counter).value
        residual = abs(tracer.attribution_residual(field))
        tiling[field] = {
            "ledger_sum": tracer.attributed_total(field),
            "mirror": mirror,
            "counter": aggregate,
            "mirror_matches_counter": mirror == aggregate,
            "rel_residual": residual / max(abs(mirror), 1.0),
        }
    bytes_flowed = tiling["prefetch_hidden_bytes"]["counter"] > 0.0 \
        or tiling["prefetch_unhidden_bytes"]["counter"] > 0.0
    ledger_bytes_tile = bool(bytes_flowed and all(
        cell["mirror_matches_counter"]
        and cell["rel_residual"] <= TRACING_TILE_REL_TOL
        for cell in tiling.values()))

    # SLO burn-rate tracking observed every finished request and published
    # its gauges.
    slo_tracked = bool(
        tracer.slo is not None
        and tracer.slo.requests_observed == len(requests)
        and telemetry.gauge("serve.slo_good_fraction").updates > 0)

    # Disabled sidecars: the default construction serving the headline
    # burst must not reach any sidecar code.
    model, burst = _model(), _burst_requests()
    disabled_sidecar_calls = calls_into(
        SIDECAR_PACKAGES,
        lambda: ContinuousBatchingEngine(
            model, max_slots=HEADLINE_SLOTS).serve(burst))

    return {
        "num_requests": len(requests),
        "max_slots": slots,
        "ids_identical_live": ids_identical_live,
        "ids_identical_batch": ids_identical_batch,
        "ledger_bytes_tile": ledger_bytes_tile,
        "tiling": tiling,
        "slo_tracked": slo_tracked,
        "slo_burn_rate": tracer.slo.burn_rate("any"),
        "disabled_sidecar_calls": disabled_sidecar_calls,
        "tile_rel_tolerance": TRACING_TILE_REL_TOL,
    }


def tracing_ok(tracing: dict) -> bool:
    """True when every tracing acceptance gate passed."""
    return bool(tracing["ids_identical_live"]
                and tracing["ids_identical_batch"]
                and tracing["ledger_bytes_tile"]
                and tracing["slo_tracked"]
                and tracing["disabled_sidecar_calls"] == 0)


# --------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------- #
def test_serving_batch_headline(benchmark):
    """Acceptance: >= 3x batched-vs-sequential throughput, ids identical."""
    result = benchmark.pedantic(measure_headline, rounds=1, iterations=1)
    print(f"\ncontinuous batching @ {result['num_requests']} requests x "
          f"{result['decode_tokens']} tokens: sequential "
          f"{result['sequential_tokens_per_s']:.0f} tok/s, batched "
          f"{result['batched_tokens_per_s']:.0f} tok/s "
          f"({result['throughput_ratio']:.1f}x)")
    assert result["single_request_identical"]
    assert result["per_request_identical"]
    assert result["throughput_ratio"] >= MIN_THROUGHPUT_RATIO, result


def test_continuous_engine_equivalence():
    """Every batched request matches its solo ``generate`` ids (small
    workload)."""
    requests = _burst_requests(num=4, prompt_len=8, decode=6)
    engine = ContinuousBatchingEngine(_model(), max_slots=2)
    metrics = engine.serve(requests)
    for outcome, solo in zip(metrics.outcomes, _oracle_ids(requests)):
        np.testing.assert_array_equal(outcome.token_ids, solo,
                                      err_msg=f"request "
                                              f"{outcome.request_id}")


def test_more_slots_do_not_hurt_throughput():
    """On the headline burst, a bigger pool never decodes slower by much."""
    rows = measure_slots_sweep(slots_grid=(1, 4))
    assert rows[1]["throughput_tokens_per_s"] >= \
        rows[0]["throughput_tokens_per_s"]


def test_tracing_gates():
    """Acceptance: tracing bit-identity, byte tiling, no sidecar calls
    when detached."""
    result = measure_tracing()
    print(f"\ntracing: ids live/batch "
          f"{result['ids_identical_live']}/{result['ids_identical_batch']}, "
          f"tiling {result['ledger_bytes_tile']}, detached sidecar calls "
          f"{result['disabled_sidecar_calls']}")
    assert result["ids_identical_live"], result
    assert result["ids_identical_batch"], result
    assert result["ledger_bytes_tile"], result["tiling"]
    assert result["slo_tracked"], result
    assert result["disabled_sidecar_calls"] == 0, result


# --------------------------------------------------------------------- #
# standalone runner (JSON artifact)
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Continuous-batching serving benchmark")
    parser.add_argument("--output", type=Path, default=None,
                        help="write results as JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="headline only, single iteration (CI)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if the headline misses "
                             f"{MIN_THROUGHPUT_RATIO}x or ids diverge")
    args = parser.parse_args(argv)

    headline = measure_headline(iters=1 if args.smoke else 2)
    tracing = measure_tracing()
    slots_sweep = [] if args.smoke else measure_slots_sweep()
    rate_sweep = [] if args.smoke else measure_rate_sweep()

    print(f"headline: {HEADLINE_REQUESTS} requests x "
          f"{HEADLINE_DECODE} tokens, prompt {HEADLINE_PROMPT}, "
          f"{HEADLINE_SLOTS} slots")
    print(format_table(
        ["mode", "tok/s", "wall (s)"],
        [["sequential", f"{headline['sequential_tokens_per_s']:.0f}",
          f"{headline['sequential_s']:.2f}"],
         ["batched", f"{headline['batched_tokens_per_s']:.0f}",
          f"{headline['batched_s']:.2f}"]]))
    print(f"throughput ratio {headline['throughput_ratio']:.1f}x "
          f"(required {MIN_THROUGHPUT_RATIO}x), token p50/p95/p99 "
          f"{headline['token_latency_p50_ms']:.1f}/"
          f"{headline['token_latency_p95_ms']:.1f}/"
          f"{headline['token_latency_p99_ms']:.1f} ms, goodput "
          f"{headline['goodput_tokens_per_s']:.0f} tok/s")

    if slots_sweep:
        print("\nslot-count sweep (same burst):")
        print(format_table(
            ["slots", "tok/s", "p99 token ms", "mean queue ms"],
            [[r["max_slots"], f"{r['throughput_tokens_per_s']:.0f}",
              f"{r['token_latency_p99_ms']:.1f}",
              f"{r['mean_queueing_ms']:.0f}"] for r in slots_sweep]))
    if rate_sweep:
        print("\narrival-rate sweep (8 slots, Poisson open loop):")
        print(format_table(
            ["req/s", "n", "tok/s", "mean ttft ms", "p99 latency ms"],
            [[f"{r['arrival_rate']:.0f}", r["num_requests"],
              f"{r['throughput_tokens_per_s']:.0f}",
              f"{r['mean_ttft_ms']:.0f}",
              f"{r['p99_request_latency_ms']:.0f}"] for r in rate_sweep]))

    print(f"\ntracing: ids live/batch "
          f"{tracing['ids_identical_live']}/{tracing['ids_identical_batch']},"
          f" ledger tiling {tracing['ledger_bytes_tile']}, slo "
          f"{tracing['slo_tracked']}, detached sidecar calls "
          f"{tracing['disabled_sidecar_calls']} (required 0)")

    ok = (headline["throughput_ratio"] >= MIN_THROUGHPUT_RATIO
          and headline["single_request_identical"]
          and headline["per_request_identical"]
          and tracing_ok(tracing))
    payload = {"host": host_record(), "headline": headline,
               "tracing": tracing, "slots_sweep": slots_sweep,
               "rate_sweep": rate_sweep}
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    print(f"headline: {headline['throughput_ratio']:.1f}x "
          f"(required {MIN_THROUGHPUT_RATIO}x), equivalence "
          f"{'OK' if headline['single_request_identical'] and headline['per_request_identical'] else 'BROKEN'}"
          f", tracing {'OK' if tracing_ok(tracing) else 'BROKEN'}"
          f" -> {'PASS' if ok else 'MISS'}")
    return 1 if (args.strict and not ok) else 0


if __name__ == "__main__":
    raise SystemExit(main())
