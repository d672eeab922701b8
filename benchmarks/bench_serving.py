"""Offloaded-serving benchmarks: expert caching under decode-time locality.

Extension territory (the paper's related work: Lina, Fiddler, MoE-Infinity).
Sweeps cache capacity and eviction policy on decode streams whose locality
matches the fine-tuning regimes, showing that (1) skew is what makes small
caches viable and (2) profile-pinned caching beats oblivious LRU.

The live-decode section benchmarks the KV-cached incremental runtime:
``LiveDecodeEngine.decode`` (prefill once, one token per step through the
serve loop) against the reference ``repro.models.generate`` with
``temperature=0`` (full re-forward every token, under the same
``serving_flags``) on a seeded ``tiny_mistral`` over a prompt-length x
generation-length grid.  Every cell is equivalence-checked in the same
run — greedy token ids must be bit-identical between the two, and routing
records must keep flowing to the locality profiler in both.

Run standalone for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_serving.py \\
        --output BENCH_serving.json
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

from repro.bench.host import host_record
from repro.bench.report import format_table, percent
from repro.models import (build_model, generate, mixtral_8x7b_sim, nano_moe,
                          tiny_mistral)
from repro.routing import SyntheticRouter, UNIFORM_REGIME, WIKITEXT_REGIME
from repro.serving import (ExpertCache, LiveDecodeEngine,
                           OverlappedFetchScheduler, PreviousTokenPredictor,
                           ServingConfig, hot_expert_keys, replay_stream,
                           sample_decode_stream, serving_flags)

TOKENS = 150

# Live-decode grid: (prompt_len, num_tokens); (128, 64) is the acceptance
# point — the cached runtime must beat the reference by >= 5x there.
LIVE_CELLS = [
    (32, 16),
    (32, 64),
    (128, 16),
    (128, 64),
]
LIVE_HEADLINE_CELL = (128, 64)
LIVE_MIN_SPEEDUP = 5.0


def run_serving(config, regime, capacity, policy="lru", seed=1):
    router = SyntheticRouter(config, regime, seed=seed)
    pinned = None
    if policy == "pinned":
        profile = router.probability_matrix(8192)
        pinned = hot_expert_keys(profile, max(capacity - config.num_layers, 1))
    cache = ExpertCache(capacity=capacity, policy=policy, pinned=pinned)
    return replay_stream(sample_decode_stream(config, router, TOKENS, seed),
                         OverlappedFetchScheduler(config, None, cache))


def test_cache_capacity_sweep(benchmark):
    """Hit rate and latency vs cache size (Mixtral-scale, WikiText skew)."""
    config = mixtral_8x7b_sim()
    fractions = (0.25, 0.5, 0.75, 1.0)

    def sweep():
        rows = []
        for fraction in fractions:
            capacity = max(int(config.total_experts * fraction), 1)
            metrics = run_serving(config, WIKITEXT_REGIME, capacity)
            rows.append([f"{fraction:.0%}", capacity,
                         percent(metrics.hit_rate),
                         metrics.mean_latency() * 1e3,
                         metrics.p99_latency() * 1e3])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nCache capacity sweep (decode, Mixtral/WikiText):")
    print(format_table(["cache", "experts", "hit rate", "mean ms/token",
                        "p99 ms/token"], rows))
    hit_rates = [float(r[2].rstrip("%")) for r in rows]
    latencies = [r[3] for r in rows]
    assert hit_rates == sorted(hit_rates)
    assert latencies == sorted(latencies, reverse=True)


def test_policy_comparison(benchmark):
    """LRU vs LFU vs profile-pinned at half-capacity."""
    config = mixtral_8x7b_sim()
    capacity = config.total_experts // 2

    def compare():
        return {policy: run_serving(config, WIKITEXT_REGIME, capacity, policy)
                for policy in ("lru", "lfu", "pinned")}

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = [[policy, percent(m.hit_rate), m.mean_latency() * 1e3]
            for policy, m in results.items()]
    print(f"\nEviction policy comparison (capacity {capacity}/256):")
    print(format_table(["policy", "hit rate", "mean ms/token"], rows))
    assert results["pinned"].hit_rate >= results["lru"].hit_rate - 0.02


def test_skew_is_what_makes_offloading_work(benchmark):
    """Uniform routing defeats the cache; locality saves it."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    config = mixtral_8x7b_sim()
    capacity = config.total_experts // 2
    skewed = run_serving(config, WIKITEXT_REGIME, capacity)
    uniform = run_serving(config, UNIFORM_REGIME, capacity)
    print(f"\nhit rate at 50% capacity: wikitext-skew "
          f"{percent(skewed.hit_rate)}, uniform {percent(uniform.hit_rate)}")
    assert skewed.hit_rate > uniform.hit_rate + 0.05


def test_speculative_prefetch(benchmark):
    """Previous-token speculation hides fetches behind decode compute."""
    config = mixtral_8x7b_sim()
    capacity = config.total_experts // 2

    def run():
        plain = run_serving(config, WIKITEXT_REGIME, capacity)
        router = SyntheticRouter(config, WIKITEXT_REGIME, seed=1)
        scheduler = OverlappedFetchScheduler(config, PreviousTokenPredictor(),
                                             ExpertCache(capacity))
        spec = replay_stream(sample_decode_stream(config, router, TOKENS, 1),
                             scheduler)
        return plain, spec, scheduler.stats

    plain, spec, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["plain LRU", percent(plain.hit_rate),
             plain.mean_latency() * 1e3],
            ["speculative prefetch", percent(spec.hit_rate),
             spec.mean_latency() * 1e3]]
    print("\nSpeculative prefetching (decode, 50% cache):")
    print(format_table(["mode", "hit rate", "mean ms/token"], rows))
    print(f"prediction accuracy {percent(stats.accuracy)}, "
          f"wasted prefetches {stats.wasted}")
    assert spec.mean_latency() <= plain.mean_latency() * 1.02


# --------------------------------------------------------------------- #
# Live decode: KV-cached incremental runtime vs full re-forward
# --------------------------------------------------------------------- #
def _live_model(prompt_len: int, num_tokens: int):
    """A seeded tiny_mistral whose context window fits the cell exactly."""
    return build_model(tiny_mistral(seed=0,
                                    max_seq_len=prompt_len + num_tokens))


def _records_flowing(model) -> bool:
    """The locality profiler's inputs survived the decode: one routing
    record per layer, with per-expert access counts that cover the step."""
    records = model.routing_records()
    if len(records) != model.config.num_layers:
        return False
    counts = [r.access_counts(model.config.num_experts) for r in records]
    return all(c.sum() == records[i].expert_indices.shape[0]
               * model.config.top_k for i, c in enumerate(counts))


def _reference_decode(model, prompt: np.ndarray,
                      num_tokens: int) -> np.ndarray:
    """Greedy full re-forward decode of one prompt row, ``decode``-shaped."""
    with serving_flags(model):
        full = generate(model, prompt[0], num_tokens, temperature=0.0)
    return full[None, prompt.shape[1]:]


def measure_live_cell(prompt_len: int, num_tokens: int,
                      iters: int = 2) -> dict:
    """Cached vs reference decode wall times plus equivalence checks."""
    model = _live_model(prompt_len, num_tokens)
    engine = LiveDecodeEngine(model)
    prompt = np.random.default_rng(5).integers(
        0, model.config.vocab_size, size=(1, prompt_len))
    decoders = {
        "cached": lambda: engine.decode(prompt, num_tokens),
        "reference": lambda: _reference_decode(model, prompt, num_tokens),
    }

    times = {}
    ids = {}
    flowing = {}
    for side, decode in decoders.items():
        best = float("inf")
        for _ in range(iters):
            start = time.perf_counter()
            out = decode()
            best = min(best, time.perf_counter() - start)
        times[side] = best
        ids[side] = out
        flowing[side] = _records_flowing(model)
    return {
        "prompt_len": prompt_len,
        "num_tokens": num_tokens,
        "cached_ms": times["cached"] * 1e3,
        "reference_ms": times["reference"] * 1e3,
        "speedup": times["reference"] / times["cached"],
        "ids_identical": bool(
            np.array_equal(ids["cached"], ids["reference"])),
        "records_flowing": flowing["cached"] and flowing["reference"],
    }


def test_live_decode_headline_speedup(benchmark):
    """Acceptance point: >= 5x cached-vs-reference decode at (128, 64)."""
    prompt_len, num_tokens = LIVE_HEADLINE_CELL
    result = benchmark.pedantic(
        lambda: measure_live_cell(prompt_len, num_tokens),
        rounds=1, iterations=1)
    print(f"\nlive decode @ prompt {prompt_len} x gen {num_tokens}: "
          f"reference {result['reference_ms']:.0f} ms, "
          f"cached {result['cached_ms']:.1f} ms, "
          f"speedup {result['speedup']:.1f}x")
    assert result["ids_identical"]
    assert result["records_flowing"]
    assert result["speedup"] >= LIVE_MIN_SPEEDUP, result


def test_live_decode_equivalence_all_cells():
    """Greedy ids bit-identical and records flowing at every grid cell."""
    for prompt_len, num_tokens in LIVE_CELLS:
        result = measure_live_cell(prompt_len, num_tokens, iters=1)
        assert result["ids_identical"], (prompt_len, num_tokens)
        assert result["records_flowing"], (prompt_len, num_tokens)


# --------------------------------------------------------------------- #
# standalone runner (JSON artifact)
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Live-decode benchmark: cached decode vs full "
                    "re-forward reference")
    parser.add_argument("--output", type=Path, default=None,
                        help="write results as JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="headline cell only (CI)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if the headline misses "
                             f"{LIVE_MIN_SPEEDUP}x or any cell diverges")
    args = parser.parse_args(argv)

    cells = [LIVE_HEADLINE_CELL] if args.smoke else LIVE_CELLS
    results = [measure_live_cell(*cell) for cell in cells]

    rows = [[f"{r['prompt_len']} x {r['num_tokens']}",
             f"{r['reference_ms']:.0f}",
             f"{r['cached_ms']:.1f}",
             f"{r['speedup']:.1f}x",
             "yes" if r["ids_identical"] else "NO",
             "yes" if r["records_flowing"] else "NO"] for r in results]
    print(format_table(
        ["prompt x gen", "reference (ms)", "cached (ms)", "speedup",
         "ids identical", "records flow"], rows))

    headline = next(r for r in results
                    if (r["prompt_len"], r["num_tokens"])
                    == LIVE_HEADLINE_CELL)
    ok = (headline["speedup"] >= LIVE_MIN_SPEEDUP
          and all(r["ids_identical"] and r["records_flowing"]
                  for r in results))
    payload = {
        "host": host_record(),
        "cells": results,
        "headline": {
            "cell": list(LIVE_HEADLINE_CELL),
            "speedup": headline["speedup"],
            "min_required": LIVE_MIN_SPEEDUP,
            "ids_identical": headline["ids_identical"],
            "records_flowing": headline["records_flowing"],
        },
    }
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    print(f"headline: {headline['speedup']:.1f}x "
          f"(required {LIVE_MIN_SPEEDUP}x) -> {'PASS' if ok else 'MISS'}")
    return 1 if (args.strict and not ok) else 0


if __name__ == "__main__":
    raise SystemExit(main())
