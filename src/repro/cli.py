"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``evaluate``  — regenerate every paper figure's data (the full harness).
* ``compare``   — one Fig. 5/6 cell: all strategies on one workload.
* ``place``     — solve a locality-aware placement and save it to JSON.
* ``heatmap``   — print a Fig. 7 access heatmap.
* ``locality``  — the live tiny-model Fig. 3 measurement study.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=("mixtral", "gritlm"),
                        default="mixtral")
    parser.add_argument("--dataset", choices=("wikitext", "alpaca"),
                        default="wikitext")
    parser.add_argument("--seed", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VELA (ICDCS 2025) reproduction — locality-aware MoE "
                    "fine-tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate = sub.add_parser("evaluate", help="run the full figure harness")
    evaluate.add_argument("--steps", type=int, default=60)
    evaluate.add_argument("--finetune-steps", type=int, default=80)
    evaluate.add_argument("--seed", type=int, default=1)
    evaluate.add_argument("--skip-locality", action="store_true",
                          help="skip the live tiny-model Fig. 3 study")
    evaluate.add_argument("--markdown", default=None,
                          help="also write results as markdown to this path")

    compare = sub.add_parser("compare", help="one Fig. 5/6 cell")
    _add_workload_args(compare)
    compare.add_argument("--steps", type=int, default=60)

    place = sub.add_parser("place", help="solve and save a placement")
    _add_workload_args(place)
    place.add_argument("--output", default="placement.json")

    heatmap_cmd = sub.add_parser("heatmap", help="print a Fig. 7 heatmap")
    _add_workload_args(heatmap_cmd)

    locality = sub.add_parser("locality", help="live Fig. 3 study")
    locality.add_argument("--finetune-steps", type=int, default=80)
    locality.add_argument("--pretrain-steps", type=int, default=40)
    locality.add_argument("--seed", type=int, default=0)
    return parser


def cmd_evaluate(args) -> int:
    """Run the full figure harness (optionally exporting markdown)."""
    from .bench import run_full_evaluation

    report = run_full_evaluation(num_steps=args.steps,
                                 finetune_steps=args.finetune_steps,
                                 seed=args.seed,
                                 include_locality=not args.skip_locality)
    print(report.render())
    if args.markdown:
        from .bench.export import write_markdown
        write_markdown(report, args.markdown)
        print(f"markdown written to {args.markdown}")
    return 0


def cmd_compare(args) -> int:
    """Run one Fig. 5/6 cell and print the comparison."""
    from .bench import run_comparison_experiment
    from .bench.report import format_table, percent, series_panel

    exp = run_comparison_experiment(args.model, args.dataset,
                                    num_steps=args.steps, seed=args.seed)
    print(f"workload: {exp.workload_name} ({args.steps} steps)")
    print(series_panel(exp.traffic_series_mb(), unit="MB/node/step"))
    rows = [[name, exp.step_times()[name], traffic]
            for name, traffic in exp.traffic_mb_per_node().items()]
    print(format_table(["strategy", "step time (s)", "MB/node/step"], rows))
    print(f"vela vs EP: traffic -{percent(exp.traffic_reduction_vs_ep())}, "
          f"time -{percent(exp.time_reduction_vs_ep())}")
    return 0


def cmd_place(args) -> int:
    """Solve a locality-aware placement and save it as JSON."""
    from .bench import paper_workload
    from .bench.report import percent
    from .placement import LocalityAwarePlacement, PlacementProblem
    from .placement.io import save_placement

    workload = paper_workload(args.model, args.dataset, seed=args.seed)
    config = workload.config
    problem = PlacementProblem(
        config=config.model, topology=config.topology,
        probability_matrix=workload.probability_matrix,
        tokens_per_step=config.tokens_per_step,
        capacities=config.worker_capacities())
    solution = LocalityAwarePlacement().solve(problem)
    save_placement(solution.placement, args.output,
                   model_name=config.model.name,
                   extra={"workload": workload.name,
                          "lp_objective_s": solution.lp_objective,
                          "rounded_objective_s": solution.rounded_objective})
    print(f"placement written to {args.output}")
    print(f"LP bound {solution.lp_objective * 1e3:.1f} ms, rounded "
          f"{solution.rounded_objective * 1e3:.1f} ms "
          f"(gap {percent(solution.integrality_gap)})")
    return 0


def cmd_heatmap(args) -> int:
    """Print a Fig. 7 access heatmap."""
    from .bench import run_heatmap_experiment
    from .bench.report import heatmap, percent

    exp = run_heatmap_experiment(args.model, args.dataset, seed=args.seed)
    print(f"access heatmap, {exp.workload_name} (experts x layers):")
    print(heatmap(exp.probability_matrix.T, row_label="e",
                  col_label="layer", max_value=1.0))
    print(f"top-2 share {percent(exp.hot_expert_share(2))}, normalized "
          f"entropy {exp.concentration():.3f}")
    return 0


def cmd_locality(args) -> int:
    """Run the live tiny-model Fig. 3 measurement study."""
    from .bench import run_locality_experiment
    from .bench.report import percent, series_panel

    exp = run_locality_experiment(finetune_steps=args.finetune_steps,
                                  pretrain_steps=args.pretrain_steps,
                                  seed=args.seed)
    profile = exp.profile
    print(f"selected-score sums: {percent(profile.fraction_above(0.5))} "
          f"above 0.5, {percent(profile.fraction_above(0.7))} above 0.7")
    freq = exp.access_over_time
    print(series_panel({f"expert {e}": freq[:, e]
                        for e in range(freq.shape[1])}))
    print(f"max frequency drift {exp.frequency_drift():.4f}; Theorem-1 "
          f"violations {exp.stability.violations}")
    return 0


_COMMANDS = {
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "place": cmd_place,
    "heatmap": cmd_heatmap,
    "locality": cmd_locality,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
