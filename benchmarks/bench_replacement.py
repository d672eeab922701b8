"""Online re-placement benchmark: traffic-shift replay with live migration.

A 60-step Mixtral fine-tuning replay on the paper's 3-node cluster whose
routing hot set shifts at step 30.  The locality monitor latches a
collapse, the :class:`~repro.placement.replan.ReplacementController`
re-solves placement against its post-shift routing window, prices the
expert migration through the comm model, and hot-swaps the broker.  The
headline measures what the swap actually bought: cross-node bytes per
step after the swap versus a shadow broker frozen on the stale placement.

Acceptance gates (hard, also enforced by ``--strict`` and CI):

* the controller applies exactly one migration after the shift, and its
  break-even point lands within the steps remaining in the run;
* measured cross-node traffic drops >= 20% post-swap vs. the frozen
  shadow placement;
* measured cumulative savings exceed the migration's own cross-node
  bytes (the move repaid itself inside the replay);
* a shift the controller prices over a too-short horizon is declined and
  logged as ``replacement_skipped`` (no placement change).

Everything here is a deterministic replay of seeded synthetic routing —
byte counts, not wall times — so CI comparisons are exact up to float
noise.

Run standalone for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_replacement.py \\
        --output BENCH_replacement.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import format_table
from repro.cluster import paper_cluster
from repro.comm.cost import CommCostModel
from repro.core.config import VelaConfig
from repro.models import mixtral_8x7b_sim
from repro.placement import (LocalityAwarePlacement, PlacementProblem,
                             ReplacementController, ReplanConfig)
from repro.routing import WIKITEXT_REGIME, SyntheticRouter, phase_switch_trace
from repro.runtime.broker import ExpertBroker
from repro.telemetry import MonitorThresholds, RoutingHealthMonitor

STEPS_PER_PHASE = 30
SEED = 7
# healthy locality hit rate on this cluster is ~0.115 (master hosts 16 of
# 256 experts); the shifted regime lands near 0.065 — 0.08 discriminates.
LOCALITY_THRESHOLD = 0.08
MIN_CROSS_NODE_DROP = 0.20

REPLAN = dict(window_size=8, min_window_steps=5, cooldown_steps=10,
              horizon_steps=25)


def _scenario(steps_per_phase=STEPS_PER_PHASE, horizon_steps=None):
    """Build the shift replay: monitor + controller + live/shadow brokers."""
    model = mixtral_8x7b_sim()
    topology = paper_cluster()
    config = VelaConfig(model, topology, batch_size=16, seq_len=256)
    capacities = config.worker_capacities()
    trace = phase_switch_trace(model, [WIKITEXT_REGIME, WIKITEXT_REGIME],
                               config.tokens_per_step,
                               steps_per_phase=steps_per_phase, seed=SEED)
    router = SyntheticRouter(model, WIKITEXT_REGIME, seed=SEED)
    problem = PlacementProblem(
        config=model, topology=topology,
        probability_matrix=router.probability_matrix(config.profile_tokens),
        tokens_per_step=config.tokens_per_step, capacities=capacities)
    placement = LocalityAwarePlacement().place(problem)
    monitor = RoutingHealthMonitor(
        placement=placement,
        thresholds=MonitorThresholds(
            min_locality_hit_rate=LOCALITY_THRESHOLD))
    broker = ExpertBroker(model, placement, topology.num_workers)
    replan = dict(REPLAN)
    if horizon_steps is not None:
        replan["horizon_steps"] = horizon_steps
    controller = ReplacementController(
        model, topology, placement, tokens_per_step=config.tokens_per_step,
        capacities=capacities, monitor=monitor, targets=[broker],
        replan=ReplanConfig(**replan))
    return dict(model=model, topology=topology, trace=trace,
                placement=placement, monitor=monitor, broker=broker,
                controller=controller,
                cost=CommCostModel(model, topology),
                shadow=ExpertBroker(model, placement, topology.num_workers))


def _replay(scenario):
    """Drive the trace through monitor + brokers; returns per-step bytes."""
    cost, broker, shadow = (scenario["cost"], scenario["broker"],
                            scenario["shadow"])
    live_bytes, shadow_bytes = [], []
    for step, counts in enumerate(scenario["trace"].counts):
        scenario["monitor"].observe_step(counts, step=step)
        live_bytes.append(cost.cross_node_bytes(broker.plan_step(counts)))
        shadow_bytes.append(
            cost.cross_node_bytes(shadow.plan_step(counts)))
    return live_bytes, shadow_bytes


def measure_headline() -> dict:
    """The shift replay: migration applied, priced, and measured."""
    scenario = _scenario()
    live_bytes, shadow_bytes = _replay(scenario)
    controller = scenario["controller"]
    steps = len(live_bytes)

    applied = [d for d in controller.history if d.outcome == "applied"]
    result = {
        "steps": steps,
        "shift_step": STEPS_PER_PHASE,
        "tokens_per_step": controller.tokens_per_step,
        "decisions": len(controller.history),
        "applied": len(applied) == 1,
        "min_cross_node_drop": MIN_CROSS_NODE_DROP,
    }
    if not applied:
        return result

    decision = applied[0]
    report = decision.report
    start = decision.step + 1
    remaining = steps - start
    old = float(np.mean(shadow_bytes[start:]))
    new = float(np.mean(live_bytes[start:]))
    migration = decision.plan.cross_node_bytes(scenario["topology"])
    saved = float(sum(o - n for o, n in zip(shadow_bytes[start:],
                                            live_bytes[start:])))
    events = scenario["monitor"].event_log.events
    result.update({
        "applied_step": decision.step,
        "remaining_steps": remaining,
        "experts_moved": len(decision.plan.moves),
        "migration_cross_bytes": migration,
        "migration_time_s": report.migration_time_s,
        # projections (from the controller's own break-even report)
        "projected_saved_bytes_per_step": report.saved_bytes_per_step,
        "break_even_steps": report.break_even_steps,
        "benefit_ratio": report.benefit_ratio,
        # measurements (live broker vs frozen shadow, post-swap)
        "old_bytes_per_step": old,
        "new_bytes_per_step": new,
        "cross_node_drop": 1.0 - new / old,
        "measured_saved_bytes": saved,
        "recouped_within_remaining": bool(saved > migration),
        "recovered": any(e.kind == "locality_collapse.recovered"
                         for e in events),
    })
    return result


def measure_unprofitable() -> dict:
    """The same shift priced over a 2-step horizon: must be declined."""
    scenario = _scenario(steps_per_phase=20, horizon_steps=2)
    _replay(scenario)
    controller = scenario["controller"]
    skipped = [d for d in controller.history if d.outcome == "skipped"
               and d.reason == "unprofitable"]
    events = [e for e in scenario["monitor"].event_log.events
              if e.kind == "replacement_skipped"]
    return {
        "horizon_steps": 2,
        "decisions": len(controller.history),
        "skipped_unprofitable": (len(controller.history) > 0
                                 and len(skipped) == len(controller.history)),
        "skip_events_logged": len(events) == len(controller.history),
        "placement_unchanged":
            controller.placement is scenario["placement"],
    }


def gates_pass(headline: dict, unprofitable: dict) -> bool:
    """Every acceptance gate, in one place."""
    return (headline.get("applied", False)
            and headline["cross_node_drop"] >= MIN_CROSS_NODE_DROP
            and headline["recouped_within_remaining"]
            and headline["break_even_steps"] <= headline["remaining_steps"]
            and unprofitable["skipped_unprofitable"]
            and unprofitable["placement_unchanged"])


# --------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------- #
def test_replacement_headline():
    """Acceptance: applied, >= 20% measured drop, recouped in-run."""
    headline = measure_headline()
    assert headline["applied"], headline
    assert headline["cross_node_drop"] >= MIN_CROSS_NODE_DROP, headline
    assert headline["recouped_within_remaining"], headline
    assert headline["break_even_steps"] <= headline["remaining_steps"]


def test_replacement_declines_unprofitable():
    unprofitable = measure_unprofitable()
    assert unprofitable["skipped_unprofitable"], unprofitable
    assert unprofitable["placement_unchanged"]


# --------------------------------------------------------------------- #
# standalone runner (JSON artifact)
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Online re-placement benchmark")
    parser.add_argument("--output", type=Path, default=None,
                        help="write results as JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="accepted for CI symmetry (the replay is "
                             "already CI-sized and deterministic)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if any acceptance gate misses")
    args = parser.parse_args(argv)

    headline = measure_headline()
    unprofitable = measure_unprofitable()

    if headline.get("applied"):
        print(f"traffic shift at step {headline['shift_step']}, migration "
              f"applied at step {headline['applied_step']} "
              f"({headline['experts_moved']} experts, "
              f"{headline['migration_cross_bytes'] / 1e9:.2f} GB cross-node, "
              f"{headline['migration_time_s']:.1f} s)")
        saved_measured = (headline["old_bytes_per_step"]
                          - headline["new_bytes_per_step"])
        print(format_table(
            ["cross-node GB/step", "stale placement", "after swap", "saved"],
            [["measured (vs shadow)",
              f"{headline['old_bytes_per_step'] / 1e9:.2f}",
              f"{headline['new_bytes_per_step'] / 1e9:.2f}",
              f"{saved_measured / 1e9:.2f}"]]))
        print(f"projected saving "
              f"{headline['projected_saved_bytes_per_step'] / 1e9:.2f} "
              f"GB/step, break-even {headline['break_even_steps']:.1f} "
              f"steps (<= {headline['remaining_steps']} remaining)")
        print(f"measured cross-node drop "
              f"{headline['cross_node_drop']:.1%} "
              f"(required {MIN_CROSS_NODE_DROP:.0%}); cumulative saved "
              f"{headline['measured_saved_bytes'] / 1e9:.1f} GB vs "
              f"migration {headline['migration_cross_bytes'] / 1e9:.1f} GB "
              f"-> recouped: {headline['recouped_within_remaining']}")
    else:
        print("headline replay never applied a migration")
    print(f"unprofitable scenario (horizon 2): "
          f"{unprofitable['decisions']} decisions, all declined: "
          f"{unprofitable['skipped_unprofitable']}")

    ok = gates_pass(headline, unprofitable)
    payload = {"headline": headline, "unprofitable": unprofitable}
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    print(f"replacement benchmark -> {'PASS' if ok else 'MISS'}")
    return 1 if (args.strict and not ok) else 0


if __name__ == "__main__":
    raise SystemExit(main())
