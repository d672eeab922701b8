"""Fused vs reference MoE dispatch — step-time and equivalence benchmark.

Measures full forward+backward step time of one :class:`MoEBlock` under the
two dispatch implementations at several ``(tokens, experts, top_k)`` points:

``reference (f64)``
    The per-(slot, expert) loop in float64 — the seed's training hot loop,
    kept as the test oracle ``tests.oracles.reference_dispatch`` and swapped
    in for the block's ``fused_dispatch`` while it is timed.
``fused (f64)``
    The sort → segment-GEMM → scatter-add dispatch at the same precision
    (the like-for-like structural speedup).
``fused (f32)``
    The fused dispatch under ``set_default_dtype(np.float32)`` — the shipped
    hot-loop configuration (fused kernels + float32 compute mode).

Every point is also equivalence-checked in float64: outputs, input
gradients, and all parameter gradients of the two dispatch paths must agree
to ``< 1e-6`` max elementwise divergence (they agree to ~1e-12 in practice).

Run standalone for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_dispatch.py --output BENCH_dispatch.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.bench.report import format_table
from repro.models import MoEBlock, moe_block
from repro.nn import Tensor
from repro.nn.tensor import default_dtype
from tests.oracles import reference_dispatch

HIDDEN = 64
FFN_HIDDEN = 128
BATCH = 8

# (tokens, experts, top_k); (2048, 8, 2) is the acceptance point.
POINTS = [
    (512, 8, 2),
    (2048, 8, 2),
    (2048, 8, 1),
    (2048, 16, 2),
]

HEADLINE_POINT = (2048, 8, 2)
HEADLINE_MIN_SPEEDUP = 3.0
EQUIVALENCE_TOL = 1e-6


def _make_block(experts: int, top_k: int) -> MoEBlock:
    return MoEBlock(HIDDEN, FFN_HIDDEN, experts, top_k,
                    rng=np.random.default_rng(0))


def _reference_dispatch():
    """Run every block's Tensor dispatch through the reference oracle."""
    return mock.patch.object(moe_block, "fused_dispatch", reference_dispatch)


def _make_input(tokens: int, dtype=np.float64) -> np.ndarray:
    x = np.random.default_rng(1).normal(size=(BATCH, tokens // BATCH, HIDDEN))
    return x.astype(dtype)


def _step_time(block: MoEBlock, x: np.ndarray, iters: int = 7) -> float:
    """Min-of-``iters`` forward+backward wall time (first call warms BLAS)."""
    best = float("inf")
    for _ in range(iters + 1):
        block.zero_grad()
        xt = Tensor(x, requires_grad=True)
        start = time.perf_counter()
        out = block(xt)
        out.backward(np.ones_like(out.data))
        best = min(best, time.perf_counter() - start)
    return best


def measure_point(tokens: int, experts: int, top_k: int) -> dict:
    """Step times and speedups of one benchmark point."""
    x64 = _make_input(tokens)
    with _reference_dispatch():
        t_ref = _step_time(_make_block(experts, top_k), x64)
    t_fused64 = _step_time(_make_block(experts, top_k), x64)
    with default_dtype(np.float32):
        t_fused32 = _step_time(_make_block(experts, top_k),
                               x64.astype(np.float32))
    return {
        "tokens": tokens,
        "experts": experts,
        "top_k": top_k,
        "hidden": HIDDEN,
        "ffn_hidden": FFN_HIDDEN,
        "reference_f64_ms": t_ref * 1e3,
        "fused_f64_ms": t_fused64 * 1e3,
        "fused_f32_ms": t_fused32 * 1e3,
        "speedup_same_dtype": t_ref / t_fused64,
        "speedup_hot_loop": t_ref / t_fused32,
    }


def max_divergence(tokens: int, experts: int, top_k: int) -> float:
    """Max elementwise |fused - reference| over outputs and all gradients.

    Runs both dispatch paths in float64 on identically-initialized blocks
    and identical inputs; covers the output, the input gradient, and every
    parameter gradient (gate and experts).
    """
    x = _make_input(tokens)
    ref = _make_block(experts, top_k)
    fused = _make_block(experts, top_k)
    worst = 0.0

    xr = Tensor(x, requires_grad=True)
    with _reference_dispatch():
        out_ref = ref(xr)
        out_ref.backward(np.ones_like(out_ref.data))
    xf = Tensor(x, requires_grad=True)
    out_fused = fused(xf)
    out_fused.backward(np.ones_like(out_fused.data))

    worst = max(worst, float(np.abs(out_ref.data - out_fused.data).max()))
    worst = max(worst, float(np.abs(xr.grad - xf.grad).max()))
    ref_params = dict(ref.named_parameters())
    for name, p_fused in fused.named_parameters():
        p_ref = ref_params[name]
        if p_ref.grad is None or p_fused.grad is None:
            assert p_ref.grad is None and p_fused.grad is None, name
            continue
        worst = max(worst, float(np.abs(p_ref.grad - p_fused.grad).max()))
    return worst


# --------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------- #
def test_headline_speedup(benchmark):
    """Acceptance point: >= 3x hot-loop speedup, < 1e-6 f64 divergence."""
    tokens, experts, top_k = HEADLINE_POINT
    result = benchmark.pedantic(
        lambda: measure_point(tokens, experts, top_k), rounds=1, iterations=1)
    divergence = max_divergence(tokens, experts, top_k)
    print(f"\ndispatch @ (tokens={tokens}, experts={experts}, top_k={top_k}): "
          f"reference {result['reference_f64_ms']:.1f} ms, "
          f"fused f64 {result['fused_f64_ms']:.1f} ms, "
          f"fused f32 {result['fused_f32_ms']:.1f} ms, "
          f"hot-loop speedup {result['speedup_hot_loop']:.2f}x, "
          f"f64 divergence {divergence:.2e}")
    assert divergence < EQUIVALENCE_TOL
    assert result["speedup_hot_loop"] >= HEADLINE_MIN_SPEEDUP, result


def test_equivalence_all_points():
    """Fused and reference agree in float64 at every benchmark point."""
    for tokens, experts, top_k in POINTS:
        divergence = max_divergence(min(tokens, 512), experts, top_k)
        assert divergence < EQUIVALENCE_TOL, (tokens, experts, top_k)


def test_fused_is_faster_same_dtype():
    """Even at equal precision the fused path wins at the headline point."""
    tokens, experts, top_k = HEADLINE_POINT
    result = measure_point(tokens, experts, top_k)
    assert result["speedup_same_dtype"] > 1.2, result


# --------------------------------------------------------------------- #
# standalone runner (JSON artifact)
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None,
                        help="write results as JSON to this path")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if the headline point misses "
                             f"{HEADLINE_MIN_SPEEDUP}x")
    args = parser.parse_args(argv)

    results = [measure_point(*point) for point in POINTS]
    divergence = max_divergence(*HEADLINE_POINT)

    rows = [[f"({r['tokens']}, {r['experts']}, {r['top_k']})",
             f"{r['reference_f64_ms']:.1f}",
             f"{r['fused_f64_ms']:.1f}",
             f"{r['fused_f32_ms']:.1f}",
             f"{r['speedup_same_dtype']:.2f}x",
             f"{r['speedup_hot_loop']:.2f}x"] for r in results]
    print(format_table(
        ["(tokens, experts, top_k)", "ref f64 (ms)", "fused f64 (ms)",
         "fused f32 (ms)", "speedup (same dtype)", "speedup (hot loop)"],
        rows))
    print(f"max f64 divergence @ headline point: {divergence:.2e}")

    headline = next(r for r in results
                    if (r["tokens"], r["experts"], r["top_k"]) == HEADLINE_POINT)
    payload = {
        "hidden": HIDDEN,
        "ffn_hidden": FFN_HIDDEN,
        "points": results,
        "headline": {
            "point": list(HEADLINE_POINT),
            "speedup_hot_loop": headline["speedup_hot_loop"],
            "min_required": HEADLINE_MIN_SPEEDUP,
            "max_f64_divergence": divergence,
            "divergence_tolerance": EQUIVALENCE_TOL,
        },
    }
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")

    ok = (divergence < EQUIVALENCE_TOL
          and headline["speedup_hot_loop"] >= HEADLINE_MIN_SPEEDUP)
    print(f"headline: {headline['speedup_hot_loop']:.2f}x "
          f"(required {HEADLINE_MIN_SPEEDUP}x) -> {'PASS' if ok else 'MISS'}")
    return 1 if (args.strict and not ok) else 0


if __name__ == "__main__":
    raise SystemExit(main())
