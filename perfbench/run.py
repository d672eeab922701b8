"""The repository benchmark: one workload, one process, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload finetune --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that records spans around the public
functions of each ``repro`` layer and reports the per-layer metrics.  Both
check the program's outputs (see ``workloads.py``) and print, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.  A fuller record
(host, set-up repeats, op times, the workload's own figures) goes to
``perfbench/out/``, and a traced run also writes its spans there.

The run is closed loop on the main thread: op ``k + 1`` starts when op ``k``
returns, ops are drawn from the seed alone, and ops run until ``--seconds``
have passed.  Set-up is repeated (``SETUP_REPEATS``) and reported as the
import time plus the median build, so one slow build does not decide
``setup_s``.  The end-to-end times are scaled to a reference host speed
measured by ``probe.py`` around the builds and between the ops; BLAS runs
on one thread.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread.  The program's matrices are small: a second thread
# adds no speed on two vCPUs, only spin-waits that make the run depend on
# the load of the other vCPU.  It must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
PROBES_PER_BUILD = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("finetune", "serve", "place"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_rev():
    """HEAD's commit when the checkout is a git work tree, else None."""
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def blas_record(np):
    """BLAS library and version as numpy reports them, and the thread count
    of numpy's bundled OpenBLAS (None for another BLAS)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas*"):
        get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        get.restype, get.argtypes = ctypes.c_int, []
        threads = int(get())
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads,
            "env": {key: os.environ.get(key) for key in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def host_record(args, np, scipy):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas_record(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics():
    """``{name: unit}`` for the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def layer_metrics(workload, tracer, windows, walls_by_op, scales_by_op,
                  declared):
    """Per-layer metrics of a traced run (every declared name, 0 if idle).

    The layer times are wall times; the traced and untraced op medians
    behind the overhead are scaled by the probes around each op, so that a
    change of host speed between the blocks does not read as overhead.
    """
    import numpy as np
    from workloads import percentile

    per_op = tracer.layer_times(windows)
    traced = sorted(op for op in windows if op in walls_by_op)
    values = {name: 0.0 for name in declared}
    names = {name for op in per_op.values() for name in op}
    for name in names:
        values[f"{name}_ms"] = 1e3 * float(np.mean(
            [per_op[op].get(name, 0.0) for op in traced]))
    for kind, test in (("decode_step", lambda seq: seq == 1),
                       ("prefill", lambda seq: seq > 1)):
        total = sum(end - start for name, start, end, _, op, extra
                    in tracer.spans
                    if name == "models.embed_head" and extra is not None
                    and test(extra["seq"]) and op in walls_by_op)
        values[f"serving.{kind}_ms"] = 1e3 * total / len(traced)
    values["gc.pause_ms"] = 1e3 * sum(
        tracer.gc_pause_s[op] for op in traced) / len(traced)
    values["gc.gen2_count"] = sum(
        tracer.gc_gen2[op] for op in traced) / len(traced)
    scaled_ms = {op: wall * scales_by_op[op] * 1e3
                 for op, wall in walls_by_op.items()}
    traced_p50 = percentile([scaled_ms[op] for op in traced], 50)
    untraced_p50 = percentile([ms for op, ms in scaled_ms.items()
                               if op not in windows], 50)
    values["trace.traced_op_p50_ms"] = traced_p50
    values["trace.untraced_op_p50_ms"] = untraced_p50
    values["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    values.update(workload.counts(tracer, traced))
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return values


def measure(workload, seconds, tracer, probe):
    """Run ops until ``seconds`` pass, with one probe before each op and
    one after the last; returns the op log and the traced ops' windows."""
    log = []  # (op, wall_s, ok)
    windows = {}
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        probe()
        traced = tracer is not None and (k // workload.trace_block) % 2 == 1
        if traced:
            tracer.op = k
            tracer.install()
        start = time.perf_counter()
        ok = workload.op(k)
        end = time.perf_counter()
        if traced:
            tracer.remove()
            tracer.op = -1
            windows[k] = (start, end)
        log.append((k, end - start, ok))
        k += 1
        if end >= deadline:
            probe()
            return log, windows


def leftovers():
    """Child processes and extra threads this run left behind."""
    problems = []
    children = multiprocessing.active_children()
    if children:
        problems.append(f"child processes still running: {children}")
    if threading.active_count() != 1:
        problems.append(f"threads still running: {threading.enumerate()}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import scipy
        import workloads
        from probe import HostProbe
        from spans import SpanTracer
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    end_to_end, per_layer = declared_metrics()
    host = host_record(args, np, scipy)
    print("host " + json.dumps(host), flush=True)

    probe = HostProbe(workloads.WORKLOADS[args.workload].probe_stream)
    builds = []
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            # Free the previous build first, so that peak_rss_mb holds one.
            workload = None
            gc.collect()
            probe(PROBES_PER_BUILD)
            start = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed)
            workload.build()
            builds.append(time.perf_counter() - start)
    except workloads.CheckError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    setup_s = import_s + statistics.median(builds)
    probe(PROBES_PER_BUILD)
    setup_probes = probe.samples_ms[:]
    gc.collect()

    tracer = None
    if args.trace:
        tracer = SpanTracer()
        workload.trace_points(tracer)
    log, windows = measure(workload, args.seconds, tracer, probe)
    walls = [wall for _, wall, ok in log if ok]
    # Each op is scaled by the probes just before and just after it, so a
    # change of host speed within the run is followed op by op.
    around = probe.samples_ms[len(setup_probes):]
    scale_by_op = {op: probe.scale([around[k], around[k + 1]])
                   for k, (op, _, ok) in enumerate(log) if ok}
    scales = list(scale_by_op.values())

    problems = []
    try:
        workload.verify()
    except workloads.CheckError as error:
        problems.append(str(error))
    if not walls:
        problems.append("no op succeeded")
        return finish(args, host, problems, log, {}, {}, None, probe)

    if args.trace:
        ok_walls = {op: wall for op, wall, ok in log if ok}
        try:
            values = layer_metrics(workload, tracer, windows, ok_walls,
                                   scale_by_op, per_layer)
        except ValueError as error:
            problems.append(f"spans do not tile the ops: {error}")
            values = {}
        units = per_layer
        report = {}
    else:
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_scale = probe.scale(setup_probes)
        values = workload.end_to_end(walls, scales)
        values.update(setup_s=setup_s * setup_scale, peak_rss_mb=peak_rss_mb)
        raw = workload.end_to_end(walls, [1.0] * len(walls))
        units = end_to_end
        report = {f"wall_{name}": value for name, value in raw.items()}
        report.update(wall_setup_s=setup_s)
        report.update(workload.report(walls))
        report.update(import_s=import_s, builds_s=builds,
                      setup_probe_scale=setup_scale,
                      op_probe_scale_p50=statistics.median(scales))
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items() if name in values}
    for name, metric in metrics.items():
        if metric["value"]:  # a traced run lists the layers that did work
            print(f"{args.workload} {name} = {metric['value']:.4f} "
                  f"{metric['unit']}")
    for name, value in report.items():
        if isinstance(value, dict):
            print(f"{args.workload} {name} = {value['value']:.4f} "
                  f"(p{value['pct']} of {value['n']}, "
                  f"{value['beyond']} beyond)")
        else:
            print(f"{args.workload} {name} = {value}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    return finish(args, host, problems, log, metrics, report, tracer, probe)


def finish(args, host, problems, log, metrics, report, tracer,
           probe) -> int:
    """Write the run record, check for leftovers, print the result."""
    problems = problems + leftovers()
    attempted = len(log)
    failed = sum(1 for _, _, ok in log if not ok)
    correct = not problems and failed == 0
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"host": host, "report": report, "problems": problems,
              "ops": [{"op": op, "wall_s": wall, "ok": ok}
                      for op, wall, ok in log],
              "probe_ms": probe.samples_ms,
              "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
