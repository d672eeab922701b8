"""Vectorized vs reference trace replay — speedup and equivalence benchmark.

Times the full trace replay of both step engines two ways at every paper
cell:

``reference``
    The seed's per-step loops over steps x layers x workers, kept as the
    test oracle ``tests.oracles.replay_per_step``.
``vectorized``
    The batched replay, each engine's only path: one
    ``ExpertBroker.plan_trace`` per run, fork-join spans and all-to-all
    costs as whole-trace numpy reductions (``run_trace``).

Every cell is equivalence-checked in the same run: all ``StepMetrics``
fields of the two replays must agree to ``< 1e-9`` relative divergence.  The
benchmark also times a cold vs cached ``run_full_evaluation`` — the cached
re-run must complete in under 10 % of the cold wall time — and checks the
telemetry subsystem on the headline cell: disabled (the default
``telemetry=None``) the replay must make no Python call into
``repro.telemetry``, and the enabled and monitor costs are reported for
reference.

Run standalone for the JSON artifact (optionally with a Chrome-trace
export of the headline cell)::

    PYTHONPATH=src python benchmarks/bench_replay.py \\
        --output BENCH_replay.json --trace-out BENCH_replay_trace.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.bench.calls import calls_into
from repro.bench.harness import run_full_evaluation
from repro.bench.report import format_table
from repro.bench.workloads import paper_workload
from repro.placement import PlacementProblem
from repro.placement.random_ import RandomPlacement
from repro.runtime.engine import ExpertParallelEngine, MasterWorkerEngine
from repro.telemetry import (RoutingHealthMonitor, Telemetry,
                             write_chrome_trace)
from tests.oracles import replay_per_step

# (model, dataset, steps); (mixtral, wikitext, 60) is the acceptance point.
CELLS = [
    ("mixtral", "wikitext", 60),
    ("mixtral", "alpaca", 24),
    ("gritlm", "wikitext", 24),
    ("gritlm", "alpaca", 24),
]

HEADLINE_CELL = ("mixtral", "wikitext", 60)
HEADLINE_MIN_SPEEDUP = 5.0
EQUIVALENCE_TOL = 1e-9
CACHE_MAX_RATIO = 0.10

_METRIC_FIELDS = ("total_time", "comm_time", "compute_time", "sync_time",
                  "allreduce_time", "total_bytes", "cross_node_bytes")


def _build_cell(model: str, dataset: str, steps: int):
    """Workload, trace, placement, and engine factories for one cell."""
    workload = paper_workload(model, dataset, seed=1)
    cfg = workload.config
    trace = workload.trace(steps)
    problem = PlacementProblem(config=cfg.model, topology=cfg.topology,
                               probability_matrix=workload.probability_matrix,
                               tokens_per_step=cfg.tokens_per_step)
    placement = RandomPlacement(seed=3).place(problem)

    def engines(telemetry_mw=None, telemetry_ep=None, monitor_mw=None,
                monitor_ep=None):
        return (MasterWorkerEngine(cfg.model, cfg.topology, placement,
                                   cfg.tokens_per_step, cfg.seq_len,
                                   telemetry=telemetry_mw,
                                   monitor=monitor_mw),
                ExpertParallelEngine(cfg.model, cfg.topology, placement,
                                     cfg.tokens_per_step, cfg.seq_len,
                                     telemetry=telemetry_ep,
                                     monitor=monitor_ep))

    engines.placement = placement
    return trace, engines


def _batched(engine, trace):
    return engine.run_trace(trace)


def _replay_time(engines, trace, replay, iters: int,
                 repeat: int = 1) -> float:
    """Min-of-``iters`` wall time of ``replay(engine, trace)`` on both
    engines.

    ``repeat`` replays per timed sample amortize timer granularity when a
    single replay is sub-millisecond (the vectorized path).
    """
    best = float("inf")
    for _ in range(iters):
        mw, ep = engines()
        start = time.perf_counter()
        for _ in range(repeat):
            replay(mw, trace)
            replay(ep, trace)
        best = min(best, (time.perf_counter() - start) / repeat)
    return best


def max_divergence(engines, trace) -> float:
    """Max relative divergence of any StepMetrics field between the
    batched replay and the per-step oracle."""
    worst = 0.0
    for engine in engines():
        ref = replay_per_step(engine, trace)
        vec = engine.run_trace(trace)
        for a, b in zip(ref.steps, vec.steps):
            for name in _METRIC_FIELDS:
                x, y = getattr(a, name), getattr(b, name)
                if x == y == 0.0:
                    continue
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def measure_cell(model: str, dataset: str, steps: int) -> dict:
    """Replay times, speedup, and divergence of one paper cell."""
    trace, engines = _build_cell(model, dataset, steps)
    t_ref = _replay_time(engines, trace, replay_per_step, iters=2)
    t_vec = _replay_time(engines, trace, _batched, iters=3)
    return {
        "model": model,
        "dataset": dataset,
        "steps": steps,
        "reference_ms": t_ref * 1e3,
        "vectorized_ms": t_vec * 1e3,
        "speedup": t_ref / t_vec,
        "max_divergence": max_divergence(engines, trace),
    }


def measure_telemetry(model: str, dataset: str, steps: int,
                      iters: int = 5) -> dict:
    """Telemetry on one cell: calls when disabled, cost when enabled.

    ``telemetry=None`` (the default) must not reach ``repro.telemetry`` at
    all, so the disabled replay of both engines is checked by counting its
    calls there, which reads zero on working code; timing it against the
    plain replay would time the same code twice.  The enabled and monitor
    runs pay for real span, counter and gauge recording, and their cost is
    reported against the plain replay.
    """
    trace, engines = _build_cell(model, dataset, steps)
    disabled_calls = calls_into(
        ("repro.telemetry",),
        lambda: [engine.run_trace(trace) for engine in engines()])
    # Each sample amortizes several replays: one vectorized replay is
    # sub-millisecond.
    baseline = _replay_time(engines, trace, _batched, iters=iters, repeat=4)
    enabled = float("inf")
    for _ in range(iters):
        mw, ep = engines(Telemetry(), Telemetry())
        start = time.perf_counter()
        mw.run_trace(trace)
        ep.run_trace(trace)
        enabled = min(enabled, time.perf_counter() - start)
    # The routing-health monitor digests every step (gauges + anomaly
    # checks), so its enabled cost is reported, not gated; monitor=None is
    # covered by the disabled call count above (the monitor lives in
    # repro.telemetry).
    monitored = float("inf")
    for _ in range(iters):
        mw, ep = engines(
            monitor_mw=RoutingHealthMonitor(placement=engines.placement),
            monitor_ep=RoutingHealthMonitor(placement=engines.placement))
        start = time.perf_counter()
        mw.run_trace(trace)
        ep.run_trace(trace)
        monitored = min(monitored, time.perf_counter() - start)
    return {
        "model": model,
        "dataset": dataset,
        "steps": steps,
        "baseline_ms": baseline * 1e3,
        "disabled_sidecar_calls": disabled_calls,
        "enabled_ms": enabled * 1e3,
        "monitor_ms": monitored * 1e3,
        "enabled_overhead": enabled / baseline - 1.0,
        "monitor_overhead": monitored / baseline - 1.0,
    }


def export_headline_trace(path: Path, steps: int = 8) -> int:
    """Replay the headline cell with telemetry and write a Chrome trace."""
    model, dataset, _ = HEADLINE_CELL
    trace, engines = _build_cell(model, dataset, steps)
    tel_mw, tel_ep = Telemetry(), Telemetry()
    mw, ep = engines(tel_mw, tel_ep)
    mw.run_trace(trace, max_steps=steps)
    ep.run_trace(trace, max_steps=steps)
    write_chrome_trace(path, tel_mw.registry, tel_ep.registry,
                       names=[f"master-worker ({model}/{dataset})",
                              f"expert parallel ({model}/{dataset})"])
    return len(tel_mw.spans) + len(tel_ep.spans)


def measure_cache(num_steps: int, finetune_steps: int) -> dict:
    """Cold vs cached ``run_full_evaluation`` wall times."""
    cache_dir = tempfile.mkdtemp(prefix="bench_replay_cache_")
    try:
        start = time.perf_counter()
        cold = run_full_evaluation(num_steps=num_steps,
                                   finetune_steps=finetune_steps,
                                   cache_dir=cache_dir)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_full_evaluation(num_steps=num_steps,
                                   finetune_steps=finetune_steps,
                                   cache_dir=cache_dir)
        warm_s = time.perf_counter() - start
        identical = (cold.render(include_timing=False)
                     == warm.render(include_timing=False))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "num_steps": num_steps,
        "finetune_steps": finetune_steps,
        "cold_s": cold_s,
        "cached_s": warm_s,
        "ratio": warm_s / cold_s,
        "render_identical": identical,
    }


# --------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------- #
def test_headline_speedup(benchmark):
    """Acceptance point: >= 5x replay speedup, < 1e-9 divergence."""
    model, dataset, steps = HEADLINE_CELL
    result = benchmark.pedantic(
        lambda: measure_cell(model, dataset, steps), rounds=1, iterations=1)
    print(f"\nreplay @ {model}/{dataset} x{steps}: "
          f"reference {result['reference_ms']:.0f} ms, "
          f"vectorized {result['vectorized_ms']:.1f} ms, "
          f"speedup {result['speedup']:.1f}x, "
          f"divergence {result['max_divergence']:.2e}")
    assert result["max_divergence"] < EQUIVALENCE_TOL
    assert result["speedup"] >= HEADLINE_MIN_SPEEDUP, result


def test_equivalence_all_cells():
    """The batched replay and the per-step oracle agree at every cell."""
    for model, dataset, _ in CELLS:
        trace, engines = _build_cell(model, dataset, 6)
        divergence = max_divergence(engines, trace)
        assert divergence < EQUIVALENCE_TOL, (model, dataset, divergence)


def test_cached_rerun_fast():
    """A cached re-run completes in < 10% of the cold-run wall time."""
    result = measure_cache(num_steps=8, finetune_steps=8)
    assert result["render_identical"]
    assert result["ratio"] < CACHE_MAX_RATIO, result


def test_telemetry_disabled_is_free():
    """A ``telemetry=None`` replay makes no call into ``repro.telemetry``."""
    result = measure_telemetry("mixtral", "wikitext", steps=24, iters=1)
    assert result["disabled_sidecar_calls"] == 0, result


# --------------------------------------------------------------------- #
# standalone runner (JSON artifact)
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None,
                        help="write results as JSON to this path")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write a Chrome-trace JSON of the headline "
                             "cell's telemetry-enabled replay")
    parser.add_argument("--smoke", action="store_true",
                        help="headline cell + small cache check only (CI)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if the headline misses "
                             f"{HEADLINE_MIN_SPEEDUP}x or the cache misses "
                             f"{CACHE_MAX_RATIO:.0%}")
    args = parser.parse_args(argv)

    cells = [HEADLINE_CELL] if args.smoke else CELLS
    results = [measure_cell(*cell) for cell in cells]
    cache = (measure_cache(num_steps=8, finetune_steps=8) if args.smoke
             else measure_cache(num_steps=24, finetune_steps=40))
    telemetry = measure_telemetry("mixtral", "wikitext",
                                  steps=24 if args.smoke else 60)

    rows = [[f"{r['model']}/{r['dataset']} x{r['steps']}",
             f"{r['reference_ms']:.0f}",
             f"{r['vectorized_ms']:.1f}",
             f"{r['speedup']:.1f}x",
             f"{r['max_divergence']:.1e}"] for r in results]
    print(format_table(
        ["cell", "reference (ms)", "vectorized (ms)", "speedup",
         "divergence"], rows))
    print(f"cache: cold {cache['cold_s']:.2f}s -> cached "
          f"{cache['cached_s']:.2f}s ({cache['ratio']:.1%}), "
          f"renders identical: {cache['render_identical']}")
    print(f"telemetry: disabled {telemetry['disabled_sidecar_calls']} "
          f"calls (required 0), plain {telemetry['baseline_ms']:.1f} ms, "
          f"enabled {telemetry['enabled_ms']:.1f} ms "
          f"({telemetry['enabled_overhead']:+.1%}), monitor "
          f"{telemetry['monitor_ms']:.1f} ms "
          f"({telemetry['monitor_overhead']:+.1%})")
    if args.trace_out is not None:
        spans = export_headline_trace(args.trace_out)
        print(f"wrote {args.trace_out} ({spans} spans)")

    headline = next(r for r in results
                    if (r["model"], r["dataset"], r["steps"]) == HEADLINE_CELL)
    payload = {
        "cells": results,
        "cache": cache,
        "telemetry": telemetry,
        "headline": {
            "cell": list(HEADLINE_CELL),
            "speedup": headline["speedup"],
            "min_required": HEADLINE_MIN_SPEEDUP,
            "max_divergence": headline["max_divergence"],
            "divergence_tolerance": EQUIVALENCE_TOL,
            "cache_ratio": cache["ratio"],
            "cache_max_ratio": CACHE_MAX_RATIO,
        },
    }
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")

    ok = (headline["max_divergence"] < EQUIVALENCE_TOL
          and headline["speedup"] >= HEADLINE_MIN_SPEEDUP
          and cache["ratio"] < CACHE_MAX_RATIO
          and cache["render_identical"]
          and telemetry["disabled_sidecar_calls"] == 0)
    print(f"headline: {headline['speedup']:.1f}x "
          f"(required {HEADLINE_MIN_SPEEDUP}x), cache {cache['ratio']:.1%} "
          f"(max {CACHE_MAX_RATIO:.0%}) -> {'PASS' if ok else 'MISS'}")
    return 1 if (args.strict and not ok) else 0


if __name__ == "__main__":
    raise SystemExit(main())
