#!/usr/bin/env python
"""Compare a fresh benchmark run against a committed baseline JSON.

The benchmark scripts (``benchmarks/bench_replay.py``,
``benchmarks/bench_serving.py``) write a machine-readable payload; the
repo commits one blessed run of each (``BENCH_replay.json``,
``BENCH_serving.json``).  CI re-runs the benchmark into a *fresh* file and
this script checks the fresh headline numbers against the baseline within
a tolerance band, so a perf regression fails the job without shared-runner
jitter causing flakes:

* ``speedup``-style metrics (higher is better) must reach
  ``baseline * (1 - tolerance)``;
* ``ratio``-style metrics (lower is better) must stay under
  ``baseline / (1 - tolerance)`` — the same band, mirrored in log space;
* correctness fields (``max_divergence``, ``ids_identical``,
  ``records_flowing``) are hard gates with no band — those regressing is
  a bug, not noise.

Usage::

    python tools/check_bench_regression.py --kind replay \
        --fresh BENCH_replay.fresh.json --baseline BENCH_replay.json \
        [--tolerance 0.5]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import List, Optional

# Shared CI runners show large run-to-run variance; the band is meant to
# catch order-of-magnitude regressions (a vectorized path silently falling
# back to the reference loop), not single-digit-percent drift.
DEFAULT_TOLERANCE = 0.5

# Exit codes: regressions are 1; missing input files get their own codes so
# a CI log line like "exit 3" reads as "the benchmark never produced its
# fresh payload" (the job above it failed) rather than a perf regression.
EXIT_OK = 0
EXIT_REGRESSED = 1
EXIT_MISSING_FRESH = 3
EXIT_MISSING_BASELINE = 4


def lookup(payload: dict, dotted: str):
    """Resolve ``"headline.speedup"``-style paths into a nested dict."""
    node = payload
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            raise KeyError(f"missing field {dotted!r} (at {key!r})")
        node = node[key]
    return node


@dataclass(frozen=True)
class Check:
    """One metric comparison between fresh and baseline payloads.

    ``direction`` is ``"higher"`` (fresh may be up to ``tolerance`` below
    baseline), ``"lower"`` (the same band mirrored: up to
    ``1 / (1 - tolerance)`` above), ``"exact"`` (values must match — used
    for booleans, where the baseline value is the required one), or
    ``"limit"`` (fresh must stay at or under the baseline value with no
    band — hard correctness gates).  ``baseline_path`` reads the baseline
    side from a different field, e.g. comparing a fresh measurement
    against the committed run's recorded gate value.
    """

    path: str
    direction: str
    baseline_path: Optional[str] = None

    def run(self, fresh: dict, baseline: dict,
            tolerance: float) -> "Finding":
        have = lookup(fresh, self.path)
        want = lookup(baseline, self.baseline_path or self.path)
        if self.direction == "higher":
            floor = want * (1.0 - tolerance)
            ok = have >= floor
            message = (f"{self.path}: {have:.6g} vs baseline {want:.6g} "
                       f"(floor {floor:.6g})")
        elif self.direction == "lower":
            ceiling = want / (1.0 - tolerance)
            ok = have <= ceiling
            message = (f"{self.path}: {have:.6g} vs baseline {want:.6g} "
                       f"(ceiling {ceiling:.6g})")
        elif self.direction == "exact":
            ok = have == want
            message = f"{self.path}: {have!r} vs baseline {want!r}"
        elif self.direction == "limit":
            ok = have <= want
            message = (f"{self.path}: {have:.6g} vs hard limit "
                       f"{want:.6g} ({self.baseline_path or self.path})")
        else:
            raise ValueError(f"unknown direction {self.direction!r}")
        return Finding(path=self.path, ok=ok, message=message)


@dataclass(frozen=True)
class Finding:
    """Outcome of one :class:`Check`."""

    path: str
    ok: bool
    message: str


CHECKS = {
    # The cache ratio and divergence compare against the committed run's
    # *gate* values (absolute limits), not its measurements — smoke CI runs
    # use smaller cache workloads whose raw ratio isn't comparable.
    "replay": (
        Check("headline.speedup", "higher"),
        Check("headline.max_divergence", "limit",
              baseline_path="headline.divergence_tolerance"),
        Check("headline.cache_ratio", "limit",
              baseline_path="headline.cache_max_ratio"),
    ),
    "serving": (
        Check("headline.speedup", "higher"),
        Check("headline.ids_identical", "exact"),
        Check("headline.records_flowing", "exact"),
    ),
    # Continuous batching: the throughput ratio (batched vs sequential
    # single-stream) carries the perf band; both bit-identity gates are
    # hard — the slot-pool runtime diverging from the generate oracle is
    # a correctness bug, never jitter.
    "serving_batch": (
        Check("headline.throughput_ratio", "higher"),
        Check("headline.single_request_identical", "exact"),
        Check("headline.per_request_identical", "exact"),
    ),
    # Online re-placement: the replay is a deterministic byte-count
    # simulation, so the booleans (migration applied, repaid in-run,
    # unprofitable shift declined) are hard gates; the measured
    # cross-node drop carries the band, and the break-even point must
    # stay within the committed run's remaining-steps budget.
    # Predictive prefetch: the replay is fully modeled (seeded stream,
    # FlopModel compute, bandwidth-priced fetches), so every gate that
    # could regress is a correctness bug, not jitter — both bit-identity
    # booleans, the transition-beats-previous accuracy/bytes wins, and
    # the live replication pass firing are exact.  So are the headline
    # figures a drifting predictor or replication pass would move: the
    # accuracies are ratios of integer counters and the replica counts
    # integers, all from seeded replays, and --smoke runs the headline
    # capacity, so a fresh run reads the committed values.  Only the
    # modeled speedup carries the tolerance band.
    "prefetch": (
        Check("headline.ids_identical_live", "exact"),
        Check("headline.ids_identical_batch", "exact"),
        Check("headline.transition_beats_previous", "exact"),
        Check("headline.transition_reduces_unhidden", "exact"),
        Check("headline.replication_applied", "exact"),
        Check("headline.accuracy_previous", "exact"),
        Check("headline.accuracy_transition", "exact"),
        Check("headline.live_accuracy", "exact"),
        Check("headline.replicas", "exact"),
        Check("headline.replication_events", "exact"),
        Check("headline.speedup", "higher"),
    ),
    # Request tracing: everything here is correctness, not wall clock —
    # ids must be bit-identical with tracing enabled vs disabled on both
    # live engines, per-request attributed bytes must tile the aggregate
    # counters, and a sidecar-free serve loop must make as many calls into
    # the sidecar packages as the committed run: none.
    "tracing": (
        Check("tracing.ids_identical_live", "exact"),
        Check("tracing.ids_identical_batch", "exact"),
        Check("tracing.ledger_bytes_tile", "exact"),
        Check("tracing.slo_tracked", "exact"),
        Check("tracing.disabled_sidecar_calls", "exact"),
    ),
    "replacement": (
        Check("headline.applied", "exact"),
        Check("headline.cross_node_drop", "higher"),
        Check("headline.recouped_within_remaining", "exact"),
        Check("headline.break_even_steps", "limit",
              baseline_path="headline.remaining_steps"),
        Check("unprofitable.skipped_unprofitable", "exact"),
        Check("unprofitable.placement_unchanged", "exact"),
    ),
}


def compare(kind: str, fresh: dict, baseline: dict,
            tolerance: float = DEFAULT_TOLERANCE) -> List[Finding]:
    """Run every check for ``kind``; returns one finding per check.

    A missing field in either payload (schema drift) surfaces as a failed
    finding rather than an exception, so CI output lists every problem.
    """
    if kind not in CHECKS:
        raise ValueError(f"kind must be one of {sorted(CHECKS)}, "
                         f"got {kind!r}")
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    findings = []
    for check in CHECKS[kind]:
        try:
            findings.append(check.run(fresh, baseline, tolerance))
        except KeyError as exc:
            findings.append(Finding(path=check.path, ok=False,
                                    message=f"{check.path}: {exc.args[0]}"))
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=sorted(CHECKS))
    parser.add_argument("--fresh", required=True,
                        help="JSON written by the benchmark run under test")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON to compare against")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative slack on speed metrics "
                             f"(default {DEFAULT_TOLERANCE})")
    args = parser.parse_args(argv)

    try:
        with open(args.fresh, encoding="utf-8") as fh:
            fresh = json.load(fh)
    except FileNotFoundError:
        print(f"MISSING FRESH PAYLOAD: {args.fresh} does not exist — the "
              f"benchmark run under test never wrote its output (check the "
              f"bench step's own log); this is NOT a perf regression")
        return EXIT_MISSING_FRESH
    try:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        print(f"MISSING BASELINE: {args.baseline} does not exist — commit "
              f"a blessed benchmark run for kind {args.kind!r}")
        return EXIT_MISSING_BASELINE

    findings = compare(args.kind, fresh, baseline, args.tolerance)
    failed = [f for f in findings if not f.ok]
    for finding in findings:
        status = "ok  " if finding.ok else "FAIL"
        print(f"[{status}] {finding.message}")
    if failed:
        print(f"{len(failed)}/{len(findings)} checks regressed vs "
              f"{args.baseline}")
        return EXIT_REGRESSED
    print(f"all {len(findings)} checks within tolerance "
          f"({args.tolerance:.0%}) of {args.baseline}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
