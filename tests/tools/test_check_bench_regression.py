"""Tests for the benchmark-regression comparison tool."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[2] / "tools"
_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", _TOOLS / "check_bench_regression.py")
cbr = importlib.util.module_from_spec(_spec)
# dataclasses resolves the defining module through sys.modules at class
# creation time, so register before exec.
sys.modules[_spec.name] = cbr
_spec.loader.exec_module(cbr)

# The committed baseline file of every checker kind.
COMMITTED_BASELINES = {
    "replay": "BENCH_replay.json",
    "serving": "BENCH_serving.json",
    "serving_batch": "BENCH_serving_batch.json",
    "prefetch": "BENCH_prefetch.json",
    "tracing": "BENCH_serving_batch.json",
    "replacement": "BENCH_replacement.json",
}


def replay_payload(speedup=100.0, divergence=1e-15, cache_ratio=0.001):
    return {
        "headline": {
            "speedup": speedup,
            "max_divergence": divergence,
            "divergence_tolerance": 1e-9,
            "cache_ratio": cache_ratio,
            "cache_max_ratio": 0.1,
        },
    }


def serving_payload(speedup=10.0, ids_identical=True, records_flowing=True):
    return {
        "headline": {
            "speedup": speedup,
            "ids_identical": ids_identical,
            "records_flowing": records_flowing,
        },
    }


def serving_batch_payload(ratio=4.0, single=True, per_request=True):
    return {
        "headline": {
            "throughput_ratio": ratio,
            "single_request_identical": single,
            "per_request_identical": per_request,
        },
    }


def prefetch_payload(accuracy_transition=0.5887451171875, speedup=1.29):
    return {
        "headline": {
            "ids_identical_live": True,
            "ids_identical_batch": True,
            "transition_beats_previous": True,
            "transition_reduces_unhidden": True,
            "replication_applied": True,
            "accuracy_previous": 0.4488525390625,
            "accuracy_transition": accuracy_transition,
            "live_accuracy": 0.8235294117647058,
            "replicas": 2,
            "replication_events": 4,
            "speedup": speedup,
        },
    }


def replacement_payload(applied=True, drop=0.2, recouped=True,
                        break_even=16.0, declined=True):
    return {
        "headline": {
            "applied": applied,
            "cross_node_drop": drop,
            "recouped_within_remaining": recouped,
            "break_even_steps": break_even,
            "remaining_steps": 25,
        },
        "unprofitable": {
            "skipped_unprofitable": declined,
            "placement_unchanged": declined,
        },
    }


class TestLookup:
    def test_nested_path(self):
        assert cbr.lookup({"a": {"b": 3}}, "a.b") == 3

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            cbr.lookup({"a": {}}, "a.b")


class TestCompare:
    def test_identical_payloads_pass(self):
        findings = cbr.compare("replay", replay_payload(), replay_payload())
        assert all(f.ok for f in findings)

    def test_speedup_within_band_passes(self):
        findings = cbr.compare("replay", replay_payload(speedup=60.0),
                               replay_payload(speedup=100.0), tolerance=0.5)
        assert all(f.ok for f in findings)

    def test_speedup_below_band_fails(self):
        findings = cbr.compare("replay", replay_payload(speedup=40.0),
                               replay_payload(speedup=100.0), tolerance=0.5)
        failed = [f for f in findings if not f.ok]
        assert [f.path for f in failed] == ["headline.speedup"]

    def test_divergence_is_a_hard_gate(self):
        # The limit comes from the baseline's recorded tolerance, with no
        # band widening — any divergence above it is a correctness bug.
        findings = cbr.compare("replay", replay_payload(divergence=1e-6),
                               replay_payload(), tolerance=0.5)
        failed = [f for f in findings if not f.ok]
        assert [f.path for f in failed] == ["headline.max_divergence"]

    def test_cache_ratio_checked_against_gate_not_measurement(self):
        # Fresh smoke runs use smaller cache workloads; only the committed
        # max-ratio gate applies.
        findings = cbr.compare("replay", replay_payload(cache_ratio=0.09),
                               replay_payload(cache_ratio=0.0001))
        assert all(f.ok for f in findings)
        findings = cbr.compare("replay", replay_payload(cache_ratio=0.2),
                               replay_payload())
        assert not all(f.ok for f in findings)

    def test_serving_boolean_regression_fails(self):
        findings = cbr.compare("serving",
                               serving_payload(ids_identical=False),
                               serving_payload())
        failed = [f for f in findings if not f.ok]
        assert [f.path for f in failed] == ["headline.ids_identical"]

    def test_serving_batch_identity_is_a_hard_gate(self):
        findings = cbr.compare("serving_batch", serving_batch_payload(),
                               serving_batch_payload())
        assert all(f.ok for f in findings)
        findings = cbr.compare("serving_batch",
                               serving_batch_payload(per_request=False),
                               serving_batch_payload())
        failed = [f.path for f in findings if not f.ok]
        assert failed == ["headline.per_request_identical"]
        # throughput gets the jitter band; identity does not
        findings = cbr.compare("serving_batch",
                               serving_batch_payload(ratio=2.5),
                               serving_batch_payload(ratio=4.0),
                               tolerance=0.5)
        assert all(f.ok for f in findings)

    def test_tracing_sidecar_calls_are_exact(self):
        def tracing(calls):
            return {"tracing": {"ids_identical_live": True,
                                "ids_identical_batch": True,
                                "ledger_bytes_tile": True,
                                "slo_tracked": True,
                                "disabled_sidecar_calls": calls}}

        assert all(f.ok for f in cbr.compare("tracing", tracing(0),
                                              tracing(0)))
        failed = [f.path for f in cbr.compare("tracing", tracing(1),
                                              tracing(0)) if not f.ok]
        assert failed == ["tracing.disabled_sidecar_calls"]

    def test_prefetch_headline_figures_are_exact(self):
        # The modeled speedup keeps its band ...
        findings = cbr.compare("prefetch", prefetch_payload(speedup=0.5),
                               prefetch_payload(), tolerance=0.7)
        assert all(f.ok for f in findings)
        # ... but a predictor that drifts fails, even while it still beats
        # the previous-token baseline.
        findings = cbr.compare(
            "prefetch", prefetch_payload(accuracy_transition=0.5887),
            prefetch_payload(), tolerance=0.7)
        failed = [f.path for f in findings if not f.ok]
        assert failed == ["headline.accuracy_transition"]

    def test_replacement_booleans_are_hard_gates(self):
        findings = cbr.compare("replacement", replacement_payload(),
                               replacement_payload())
        assert all(f.ok for f in findings)
        findings = cbr.compare("replacement",
                               replacement_payload(recouped=False),
                               replacement_payload())
        failed = [f.path for f in findings if not f.ok]
        assert failed == ["headline.recouped_within_remaining"]
        findings = cbr.compare("replacement",
                               replacement_payload(declined=False),
                               replacement_payload())
        failed = [f.path for f in findings if not f.ok]
        assert failed == ["unprofitable.skipped_unprofitable",
                          "unprofitable.placement_unchanged"]

    def test_replacement_break_even_checked_against_remaining(self):
        # the limit is the committed run's remaining-steps budget, not the
        # committed break-even measurement
        findings = cbr.compare("replacement",
                               replacement_payload(break_even=24.0),
                               replacement_payload(break_even=16.0))
        assert all(f.ok for f in findings)
        findings = cbr.compare("replacement",
                               replacement_payload(break_even=26.0),
                               replacement_payload())
        failed = [f.path for f in findings if not f.ok]
        assert failed == ["headline.break_even_steps"]

    def test_missing_field_reported_not_raised(self):
        findings = cbr.compare("serving", {"headline": {}},
                               serving_payload())
        assert all(not f.ok for f in findings)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            cbr.compare("nope", {}, {})

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            cbr.compare("replay", replay_payload(), replay_payload(),
                        tolerance=1.0)


class TestMain:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "fresh.json", serving_payload(9.0))
        base = self._write(tmp_path, "base.json", serving_payload(10.0))
        code = cbr.main(["--kind", "serving", "--fresh", fresh,
                         "--baseline", base])
        assert code == 0
        assert "all 3 checks" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "fresh.json", serving_payload(2.0))
        base = self._write(tmp_path, "base.json", serving_payload(10.0))
        code = cbr.main(["--kind", "serving", "--fresh", fresh,
                         "--baseline", base])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_fresh_gets_distinct_exit_code(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", serving_payload())
        code = cbr.main(["--kind", "serving",
                         "--fresh", str(tmp_path / "absent.fresh.json"),
                         "--baseline", base])
        assert code == cbr.EXIT_MISSING_FRESH == 3
        out = capsys.readouterr().out
        assert "MISSING FRESH PAYLOAD" in out
        assert "NOT a perf regression" in out

    def test_missing_baseline_gets_distinct_exit_code(self, tmp_path,
                                                      capsys):
        fresh = self._write(tmp_path, "fresh.json", serving_payload())
        code = cbr.main(["--kind", "serving", "--fresh", fresh,
                         "--baseline", str(tmp_path / "absent.json")])
        assert code == cbr.EXIT_MISSING_BASELINE == 4
        assert "MISSING BASELINE" in capsys.readouterr().out

    def test_against_committed_baselines(self, tmp_path):
        """Every checker kind's committed baseline passes its own
        comparison; a kind added to or removed from ``CHECKS`` without a
        row here fails."""
        repo = _TOOLS.parent
        assert set(COMMITTED_BASELINES) == set(cbr.CHECKS)
        for kind, name in COMMITTED_BASELINES.items():
            baseline = str(repo / name)
            code = cbr.main(["--kind", kind, "--fresh", baseline,
                             "--baseline", baseline])
            assert code == 0
