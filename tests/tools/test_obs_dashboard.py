"""Tests for the ASCII routing-health dashboard."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.telemetry import MonitorEvent

_TOOLS = Path(__file__).resolve().parents[2] / "tools"
_spec = importlib.util.spec_from_file_location(
    "obs_dashboard", _TOOLS / "obs_dashboard.py")
dash = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dash)


def _events():
    return [
        MonitorEvent(kind="run_start", labels={"run_id": "run-abc"}),
        MonitorEvent(kind="load_spike", severity="critical", step=3,
                     message="layer 0 ratio 12 exceeds 4"),
        MonitorEvent(kind="load_spike.recovered", step=5,
                     message="load_spike cleared"),
        MonitorEvent(kind="drift_violation", severity="critical", step=7,
                     message="expert 0 drift exceeds bound"),
    ]


class TestActiveAnomalies:
    def test_recovered_anomaly_is_cleared(self):
        assert dash.active_anomalies(_events()) == ["drift_violation"]

    def test_empty_stream(self):
        assert dash.active_anomalies([]) == []

    def test_duplicate_fires_counted_once(self):
        events = [MonitorEvent(kind="load_spike", severity="critical"),
                  MonitorEvent(kind="load_spike", severity="critical")]
        assert dash.active_anomalies(events) == ["load_spike"]


class TestRender:
    def test_header_and_recent_events(self):
        text = dash.render_dashboard(_events())
        assert "run: run-abc" in text
        assert "status: running" in text
        assert "active anomalies: drift_violation" in text
        assert "critical=2" in text
        assert "load_spike.recovered" in text

    def test_finished_run(self):
        events = _events() + [MonitorEvent(kind="run_end",
                                           labels={"run_id": "run-abc"})]
        assert "status: finished" in dash.render_dashboard(events)

    def test_empty_log(self):
        assert "(no events yet)" in dash.render_dashboard([])

    def test_last_limits_rows(self):
        events = [MonitorEvent(kind=f"k{i}") for i in range(20)]
        text = dash.render_dashboard(events, last=5)
        assert "k19" in text and "k14" not in text

    def test_long_messages_clipped_to_width(self):
        events = [MonitorEvent(kind="load_spike", severity="critical",
                               message="x" * 500)]
        text = dash.render_dashboard(events, width=60)
        assert all(len(line) <= 60 for line in text.splitlines())


class TestRequestPanel:
    def _sink(self, tmp_path):
        from repro.telemetry.tracing import RequestLedger, TraceSink
        path = tmp_path / "trace.jsonl"
        with TraceSink(path) as sink:
            for i, finish in enumerate((1.0, 2.0)):
                sink.write(RequestLedger(
                    trace_id=f"t-{i}", arrival_time=0.0, admit_time=0.1,
                    first_token_time=0.4, finish_time=finish,
                    finish_reason="max_tokens", tokens=4, steps=4,
                    prefill_s=0.3, decode_s=finish - 0.4).to_dict())
        return path

    @staticmethod
    def _panel_rows(out, slowest):
        """Request labels of the waterfall rows below the panel header."""
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.startswith(f" slowest {slowest} requests"))
        labels = []
        # Skip the header's rule and the waterfall's column line; the
        # dashboard's closing rule ends the rows.
        for line in lines[header + 3:]:
            if line.startswith("="):
                break
            labels.append(line.split("|")[0].strip())
        return labels

    def test_panel_appended_after_events(self, tmp_path):
        path = self._sink(tmp_path)
        text = dash.render_dashboard(_events(), trace_path=str(path))
        assert "slowest 5 requests" in text
        assert "t-0" in text and "t-1" in text
        # The panel sits below the event section.
        assert text.index("t-0") > text.index("drift_violation")

    def test_panel_with_empty_event_log(self, tmp_path):
        path = self._sink(tmp_path)
        text = dash.render_dashboard([], trace_path=str(path))
        assert "(no events yet)" in text
        assert "t-1" in text

    def test_missing_trace_file_reports_empty(self, tmp_path):
        text = dash.render_dashboard(_events(),
                                     trace_path=str(tmp_path / "nope.jsonl"))
        assert "(no finished requests in trace yet)" in text

    def test_no_trace_path_no_panel(self):
        assert "requests" not in dash.render_dashboard(_events())

    def test_cli_trace_flag(self, tmp_path, capsys):
        from repro.telemetry import EventLog
        events_path = tmp_path / "events.jsonl"
        with EventLog(events_path) as log:
            for event in _events():
                log.emit(event)
        trace_path = self._sink(tmp_path)
        assert dash.main([str(events_path), "--trace", str(trace_path),
                          "--slowest", "1"]) == 0
        out = capsys.readouterr().out
        # Only the slowest request (t-1, 1.9 s) makes the panel.  The rows
        # are read below the header, which prints the trace path (pytest's
        # first base temp, "pytest-0", contains "t-0").
        assert self._panel_rows(out, 1) == ["t-1"]


class TestCli:
    def test_renders_file_once(self, tmp_path, capsys):
        from repro.telemetry import EventLog
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            for event in _events():
                log.emit(event)
        assert dash.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "run: run-abc" in out
        assert "drift_violation" in out

    def test_missing_file_renders_empty(self, tmp_path, capsys):
        assert dash.main([str(tmp_path / "absent.jsonl")]) == 0
        assert "(no events yet)" in capsys.readouterr().out
