"""Benchmark harness: workloads, per-figure experiments, reporting."""

from .experiments import (ComparisonExperiment, HeatmapExperiment,
                          LocalityExperiment, run_comparison_experiment,
                          run_heatmap_experiment, run_locality_experiment)
from .calls import calls_into
from .export import report_to_markdown, write_markdown
from .harness import PAPER_CELLS, EvaluationReport, run_full_evaluation
from .host import host_record
from .report import format_table, heatmap, histogram, percent, series_panel, sparkline
from .workloads import (MODELS, REGIMES, PaperWorkload, paper_workload,
                        tiny_finetune_workload)

__all__ = [
    "paper_workload", "tiny_finetune_workload", "PaperWorkload",
    "MODELS", "REGIMES",
    "run_locality_experiment", "run_comparison_experiment",
    "run_heatmap_experiment", "LocalityExperiment", "ComparisonExperiment",
    "HeatmapExperiment",
    "run_full_evaluation", "EvaluationReport", "PAPER_CELLS",
    "host_record", "calls_into",
    "report_to_markdown", "write_markdown",
    "format_table", "heatmap", "histogram", "sparkline", "series_panel",
    "percent",
]
