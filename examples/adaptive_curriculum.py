"""Adaptive VELA on a dataset-switching curriculum, plus failure recovery.

The paper profiles locality once because a single fine-tuning dataset keeps
routing stable (Theorem 1).  This example explores operations beyond that:

1. a curriculum that switches from WikiText-style to Alpaca-style data at
   step 40 — the static placement goes stale; a CUSUM detector shows when
   the drift is visible, and the online re-placement controller re-solves
   against a sliding routing window every 10 steps, migrating experts only
   when the move repays its explicit migration cost,
2. a worker failure drill: for each worker, what does recovery cost and how
   much slower is the degraded cluster?

Run:  python examples/adaptive_curriculum.py
"""

import dataclasses

from repro import VelaConfig, VelaSystem
from repro.bench.report import format_table, percent, series_panel
from repro.cluster import paper_cluster
from repro.core import FailureRecoveryPlanner
from repro.models import mixtral_8x7b_sim
from repro.placement import ReplacementController, ReplanConfig
from repro.routing import (ALPACA_REGIME, WIKITEXT_REGIME, CusumDriftDetector,
                           SyntheticRouter, calibrate_slack,
                           phase_switch_trace)
from repro.runtime import RunMetrics


def replay_replacements(system, trace, placement, decisions):
    """Replay ``trace`` with each applied decision's placement from the
    step after it, on one engine per stretch; a decision's migration time
    lands on the first step it pays for."""
    applied = [d for d in decisions if d.outcome == "applied"]
    bounds = [0] + [d.step + 1 for d in applied] + [trace.num_steps]
    placements = [placement] + [d.placement for d in applied]
    migrations = [0.0] + [d.report.migration_time_s for d in applied]
    run = RunMetrics(strategy="replan-vela")
    for start, stop, stretch, migration in zip(bounds, bounds[1:],
                                               placements, migrations):
        if start == stop:
            continue
        first, *rest = system.simulate(trace.slice_steps(start, stop),
                                       stretch).steps
        run.append(dataclasses.replace(
            first, total_time=first.total_time + migration,
            comm_time=first.comm_time + migration))
        run.steps.extend(rest)
    return run


def curriculum_study(config: VelaConfig) -> None:
    print("=== curriculum: wikitext (steps 0-39) -> alpaca (steps 40-79) ===")
    trace = phase_switch_trace(config.model,
                               [WIKITEXT_REGIME, ALPACA_REGIME],
                               config.tokens_per_step, steps_per_phase=40,
                               seed=1)
    router = SyntheticRouter(config.model, WIKITEXT_REGIME, seed=1)
    profile = router.probability_matrix(config.profile_tokens)

    # Drift detection: when would a monitor first notice the switch?
    slack = calibrate_slack(trace.slice_steps(0, 20), profile) * 1.2
    detection = CusumDriftDetector(threshold=0.3, slack=slack).scan(trace,
                                                                    profile)
    print(f"CUSUM drift detector fires at step {detection.change_step} "
          f"(switch is at step 40)")

    system = VelaSystem(config)
    placement = system.place(profile)
    static = system.simulate(trace, placement)
    controller = ReplacementController(
        config.model, config.topology, placement,
        tokens_per_step=config.tokens_per_step,
        capacities=config.worker_capacities(),
        replan=ReplanConfig(trigger="interval", interval=10, window_size=10,
                            cooldown_steps=0))
    for step in range(trace.num_steps):
        controller.observe_step(trace.step_counts(step), step=step)
    adaptive = replay_replacements(system, trace, placement,
                                   controller.history)

    print(series_panel({
        "static vela": static.external_traffic_series() / 1e6,
        "adaptive vela": adaptive.external_traffic_series() / 1e6,
    }, unit="MB/node"))
    for decision in controller.history:
        if decision.outcome == "applied":
            print(f"re-placement after step {decision.step}: "
                  f"{len(decision.plan.moves)} experts moved, migration "
                  f"{decision.report.migration_time_s:.1f}s")
    rows = [
        ["static", static.avg_step_time(),
         static.external_traffic_series()[-20:].mean() / 1e6],
        ["adaptive", adaptive.avg_step_time(),
         adaptive.external_traffic_series()[-20:].mean() / 1e6],
    ]
    print(format_table(["system", "avg step (s)", "post-switch MB/node"],
                       rows))


def failure_drill(config: VelaConfig) -> None:
    print("\n=== failure drill: lose each worker, re-place, measure ===")
    router = SyntheticRouter(config.model, WIKITEXT_REGIME, seed=1)
    profile = router.probability_matrix(config.profile_tokens)
    placement = VelaSystem(config).place(profile)
    planner = FailureRecoveryPlanner(config)
    print(f"standby capacity needed for any-single-failure tolerance: "
          f"{planner.required_standby_capacity()} expert slots")
    rows = []
    for plan in planner.survey(placement, profile):
        rows.append([plan.failed_worker, plan.experts_restored,
                     f"{plan.restore_time_s:.1f}", percent(plan.slowdown)])
    if rows:
        print(format_table(["failed worker", "experts moved", "restore (s)",
                            "comm slowdown"], rows))
    else:
        print("no single failure is survivable at current capacities; "
              "add standby slots")


def main() -> None:
    base = VelaConfig(model=mixtral_8x7b_sim(), topology=paper_cluster())
    curriculum_study(base)
    # Fault-tolerant capacity provisioning for the drill.
    resilient = VelaConfig(model=mixtral_8x7b_sim(), topology=paper_cluster(),
                           capacities=[20, 60, 60, 60, 60, 60])
    failure_drill(resilient)


if __name__ == "__main__":
    main()
