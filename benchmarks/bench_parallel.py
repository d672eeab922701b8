"""Multi-core expert-parallel executor benchmarks.

Measures fine-tune-step (forward+backward) and batched-decode
(forward-only, ``no_grad``) token throughput of the shared-memory
process-pool executor against the in-process fused dispatch, across
worker counts, plus the equivalence gates that make the parallel path
trustworthy:

* native format must match the in-process path *bit for bit* (the
  workers run the array kernel inside ``fused_swiglu``);
* int8 format must match an in-process model whose expert weights were
  round-tripped through the same quantizer *bit for bit* (absmax
  quantization is a fixed point), gated at ``1e-6`` to absorb future
  kernel reorderings.

The >= 2.5x @ 4 workers speedup gate is only evaluated on hosts with at
least 4 cores; ``speedup_ok`` in the payload is true when the gate
passed or was honestly skipped, and ``gate_evaluated`` records which.

Run standalone for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_parallel.py \\
        --output BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import format_table
from repro.models.moe_block import MoEBlock, fused_dispatch
from repro.nn.quant import quantize_tensor
from repro.nn.tensor import Tensor, no_grad
from repro.parallel import (ProcessPoolExpertExecutor, executor_dispatch,
                            make_executor)

# Workload: ~the issue's suggested scale — 8 experts of 128->512 SwiGLU,
# one step = batch 8 x seq 64 = 512 token rows, top-2 routing.
HIDDEN = 128
FFN = 512
NUM_EXPERTS = 8
TOP_K = 2
ROWS = 512

WORKER_COUNTS = (1, 2, 4, 8)
SPEEDUP_GATE = 2.5
GATE_WORKERS = 4
MIN_CORES_FOR_GATE = 4
NATIVE_TOLERANCE = 1e-12
INT8_TOLERANCE = 1e-6


def build_block(hidden=HIDDEN, ffn=FFN, experts=NUM_EXPERTS, top_k=TOP_K,
                seed=0):
    return MoEBlock(hidden, ffn, experts, top_k,
                    rng=np.random.default_rng(seed))


def _step(block, tokens_data, executor, train):
    tokens = Tensor(tokens_data, requires_grad=train)
    gate_out = block.gate(tokens)
    if executor is None:
        out = fused_dispatch(block.experts, tokens, gate_out)
    else:
        out = executor_dispatch(executor, 0, block.experts, tokens,
                                gate_out)
    if train:
        block.zero_grad()
        (out * out).sum().backward()
    return out


def measure_throughput(num_workers, rows=ROWS, iters=3, train=True,
                       weight_format="native"):
    """Best-of-``iters`` tokens/s for one dispatch step.

    ``num_workers is None`` measures the in-process fused dispatch (the
    serial baseline every speedup is relative to).
    """
    block = build_block()
    tokens_data = np.random.default_rng(1).normal(size=(rows, HIDDEN))
    executor = None
    if num_workers is not None:
        executor = make_executor(num_workers)
        executor.bind(block, weight_format=weight_format)
    try:
        _step(block, tokens_data, executor, train)  # warm the pool
        best = float("inf")
        for _ in range(iters):
            start = time.perf_counter()
            if train:
                _step(block, tokens_data, executor, train=True)
            else:
                with no_grad():
                    _step(block, tokens_data, executor, train=False)
            best = min(best, time.perf_counter() - start)
    finally:
        if executor is not None:
            executor.close()
    return rows / best


def equivalence_native(num_workers=2):
    """Max |parallel - in-process| over output, token grads, and every
    weight grad, for plain (non-adapted) experts.  Expected exactly 0."""
    block = build_block(hidden=32, ffn=64, experts=4, seed=3)
    tokens_data = np.random.default_rng(4).normal(size=(48, 32))

    def run(executor):
        tokens = Tensor(tokens_data.copy(), requires_grad=True)
        gate_out = block.gate(tokens)
        if executor is None:
            out = fused_dispatch(block.experts, tokens, gate_out)
        else:
            out = executor_dispatch(executor, 0, block.experts, tokens,
                                    gate_out)
        block.zero_grad()
        (out * out).sum().backward()
        grads = [p.grad.copy() for _, p in block.named_parameters()
                 if p.grad is not None]
        return out.data.copy(), tokens.grad.copy(), grads

    ref = run(None)
    with ProcessPoolExpertExecutor(num_workers) as executor:
        executor.bind(block)
        got = run(executor)
    diffs = [np.abs(got[0] - ref[0]).max(), np.abs(got[1] - ref[1]).max()]
    diffs += [np.abs(g - r).max() for g, r in zip(got[2], ref[2])]
    return float(max(diffs))


def equivalence_int8(num_workers=2):
    """Max |int8 executor - in-process| after round-tripping the model's
    expert weights through the quantizer.  Absmax per-channel quantization
    is a fixed point (the absmax element always maps to code 127), so the
    executor's store rebuilds identical values — expected exactly 0."""
    block = build_block(hidden=32, ffn=64, experts=4, seed=5)
    with ProcessPoolExpertExecutor(num_workers) as executor:
        executor.bind(block, weight_format="int8")
        for expert in block.experts:
            for proj in (expert.w_gate, expert.w_up, expert.w_down):
                proj.weight.data = quantize_tensor(
                    proj.weight.data).dequantize()
        tokens_data = np.random.default_rng(6).normal(size=(48, 32))
        with no_grad():
            tokens = Tensor(tokens_data)
            gate_out = block.gate(tokens)
            got = executor_dispatch(executor, 0, block.experts, tokens,
                                    gate_out)
            ref = fused_dispatch(block.experts, tokens, gate_out)
    return float(np.abs(got.data - ref.data).max())


def int8_roundtrip_error():
    """Worst per-channel relative quantization error across one block's
    expert weights (reported, not gated — accuracy, not equivalence)."""
    block = build_block(seed=7)
    worst = 0.0
    for expert in block.experts:
        for proj in (expert.w_gate, expert.w_up, expert.w_down):
            w = proj.weight.data
            err = np.abs(quantize_tensor(w).dequantize() - w).max()
            worst = max(worst, float(err / np.abs(w).max()))
    return worst


# --------------------------------------------------------------------- #
# pytest entry points (CI runs -k equivalence on this file)
# --------------------------------------------------------------------- #
def test_equivalence_native_is_bit_exact():
    assert equivalence_native() <= NATIVE_TOLERANCE


def test_equivalence_int8_roundtrip_is_bit_exact():
    assert equivalence_int8() <= INT8_TOLERANCE


def test_throughput_smoke(benchmark):
    """One 2-worker step runs end to end and yields a finite rate."""
    rate = benchmark.pedantic(
        lambda: measure_throughput(2, rows=128, iters=1),
        rounds=1, iterations=1)
    assert rate > 0


# --------------------------------------------------------------------- #
# standalone runner (JSON artifact)
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Expert-parallel executor benchmark")
    parser.add_argument("--output", type=Path, default=None,
                        help="write results as JSON to this path")
    parser.add_argument("--workers", type=int, default=None,
                        help="measure only this worker count (with the "
                             "serial baseline)")
    parser.add_argument("--smoke", action="store_true",
                        help="small workload, single iteration (CI)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if any gate fails")
    args = parser.parse_args(argv)

    rows = 128 if args.smoke else ROWS
    iters = 1 if args.smoke else 3
    counts = [args.workers] if args.workers else list(WORKER_COUNTS)

    equiv_native = equivalence_native()
    equiv_int8 = equivalence_int8()
    int8_err = int8_roundtrip_error()

    serial_train = measure_throughput(None, rows=rows, iters=iters)
    serial_decode = measure_throughput(None, rows=rows, iters=iters,
                                       train=False)
    measurements = []
    for n in counts:
        measurements.append({
            "workers": n,
            "train_tokens_per_s": measure_throughput(n, rows=rows,
                                                     iters=iters),
            "decode_tokens_per_s": measure_throughput(
                n, rows=rows, iters=iters, train=False,
                weight_format="int8"),
        })
    for m in measurements:
        m["train_speedup"] = m["train_tokens_per_s"] / serial_train
        m["decode_speedup"] = m["decode_tokens_per_s"] / serial_decode

    table_rows = [["serial", f"{serial_train:.0f}", "1.00x",
                   f"{serial_decode:.0f}", "1.00x"]]
    table_rows += [[str(m["workers"]), f"{m['train_tokens_per_s']:.0f}",
                    f"{m['train_speedup']:.2f}x",
                    f"{m['decode_tokens_per_s']:.0f}",
                    f"{m['decode_speedup']:.2f}x"] for m in measurements]
    print(format_table(["workers", "train tok/s", "speedup",
                        "decode tok/s (int8)", "speedup"], table_rows))

    cores = os.cpu_count() or 1
    gate_cell = next((m for m in measurements
                      if m["workers"] == GATE_WORKERS), None)
    gate_evaluated = cores >= MIN_CORES_FOR_GATE and gate_cell is not None
    speedup_ok = (not gate_evaluated
                  or gate_cell["train_speedup"] >= SPEEDUP_GATE)
    equiv_ok = (equiv_native <= NATIVE_TOLERANCE
                and equiv_int8 <= INT8_TOLERANCE)

    payload = {
        "workload": {"hidden": HIDDEN, "ffn": FFN,
                     "num_experts": NUM_EXPERTS, "top_k": TOP_K,
                     "rows": rows, "iters": iters},
        "cores": cores,
        "serial": {"train_tokens_per_s": serial_train,
                   "decode_tokens_per_s": serial_decode},
        "measurements": measurements,
        "int8_roundtrip_rel_error": int8_err,
        "headline": {
            "speedup_ok": bool(speedup_ok),
            "gate_evaluated": bool(gate_evaluated),
            "speedup_gate": SPEEDUP_GATE,
            "gate_workers": GATE_WORKERS,
            "equiv_native_max": equiv_native,
            "native_tolerance": NATIVE_TOLERANCE,
            "equiv_int8_max": equiv_int8,
            "int8_tolerance": INT8_TOLERANCE,
        },
    }
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")

    gate_note = (f"{gate_cell['train_speedup']:.2f}x @ {GATE_WORKERS} "
                 f"workers (gate {SPEEDUP_GATE}x)" if gate_evaluated
                 else f"skipped ({cores} cores < {MIN_CORES_FOR_GATE})")
    print(f"equivalence: native {equiv_native:.3g} "
          f"(<= {NATIVE_TOLERANCE:g}), int8 {equiv_int8:.3g} "
          f"(<= {INT8_TOLERANCE:g}); int8 roundtrip rel err "
          f"{int8_err:.2e}")
    print(f"speedup gate: {gate_note} -> "
          f"{'PASS' if speedup_ok and equiv_ok else 'MISS'}")
    return 1 if (args.strict and not (speedup_ok and equiv_ok)) else 0


if __name__ == "__main__":
    raise SystemExit(main())
