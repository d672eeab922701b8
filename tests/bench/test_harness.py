"""Tests for the full-evaluation harness plumbing."""

import threading

import pytest

from repro.bench import (EvaluationReport, calls_into,
                         run_comparison_experiment, run_heatmap_experiment,
                         run_full_evaluation)
from repro.bench.cache import ResultCache, content_key
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def mini_report():
    report = EvaluationReport()
    report.comparisons["mixtral/wikitext"] = run_comparison_experiment(
        "mixtral", "wikitext", num_steps=2,
        strategies=("expert_parallel", "sequential", "random", "vela"))
    report.heatmaps["mixtral/wikitext"] = run_heatmap_experiment(
        "mixtral", "wikitext")
    report.elapsed_s = 2.5
    return report


class TestEvaluationReport:
    def test_render_contains_sections(self, mini_report):
        text = mini_report.render()
        assert "Fig. 5" in text
        assert "Fig. 6" in text
        assert "Fig. 7" in text
        assert "mixtral/wikitext" in text

    def test_traffic_table_has_all_strategies(self, mini_report):
        table = mini_report.traffic_table()
        for column in ("EP", "sequential", "random", "vela"):
            assert column in table

    def test_time_table_shows_reduction(self, mini_report):
        assert "%" in mini_report.time_table()

    def test_render_without_locality(self, mini_report):
        assert "Fig. 3" not in mini_report.render()

    def test_elapsed_reported(self, mini_report):
        assert "2.5s" in mini_report.render()

    def test_render_can_drop_timing(self, mini_report):
        text = mini_report.render(include_timing=False)
        assert "2.5s" not in text
        assert "total evaluation time" not in text
        assert "Fig. 5" in text


class TestCachedEvaluation:
    STEPS = dict(num_steps=2, finetune_steps=4, include_locality=False)

    def test_cache_round_trip_is_deterministic(self, tmp_path):
        cache_dir = tmp_path / "cells"
        cold = run_full_evaluation(cache_dir=cache_dir, **self.STEPS)
        assert len(ResultCache(cache_dir)) > 0
        warm = run_full_evaluation(cache_dir=cache_dir, **self.STEPS)
        assert (warm.render(include_timing=False)
                == cold.render(include_timing=False))

    def test_cache_key_separates_params(self, tmp_path):
        cache_dir = tmp_path / "cells"
        run_full_evaluation(cache_dir=cache_dir, **self.STEPS)
        populated = len(ResultCache(cache_dir))
        run_full_evaluation(cache_dir=cache_dir, num_steps=3,
                            finetune_steps=4, include_locality=False)
        assert len(ResultCache(cache_dir)) > populated

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_full_evaluation(**self.STEPS)
        fanned = run_full_evaluation(parallel=2, **self.STEPS)
        assert (fanned.render(include_timing=False)
                == serial.render(include_timing=False))

    def test_uncached_without_cache_dir(self, tmp_path):
        report = run_full_evaluation(**self.STEPS)
        assert not list(tmp_path.iterdir())
        assert "Fig. 5" in report.render()


class TestResultCache:
    def test_content_key_order_insensitive(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_get_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key({"cell": "demo"})
        assert cache.get(key) is None
        cache.put(key, {"value": 41})
        assert cache.get(key) == {"value": 41}
        assert key in cache

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key({"cell": "demo"})
        cache.put(key, [1, 2, 3])
        (path,) = tmp_path.iterdir()
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None


class TestCLIEvaluate:
    def test_evaluate_skip_locality_small(self, tmp_path, capsys):
        from repro.cli import main
        md_path = str(tmp_path / "results.md")
        code = main(["evaluate", "--steps", "2", "--skip-locality",
                     "--markdown", md_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        with open(md_path) as handle:
            assert "## Fig. 5" in handle.read()


class TestCallsInto:
    def test_counts_calls_into_named_packages_on_any_thread(self):
        def on_thread():
            worker = threading.Thread(target=Telemetry)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        assert calls_into(["repro.telemetry"], Telemetry) > 0
        assert calls_into(["repro.telemetry"], on_thread) > 0
        assert calls_into(["repro.tele"], Telemetry) == 0
        assert calls_into(["repro.telemetry"], lambda: sum(range(9))) == 0
