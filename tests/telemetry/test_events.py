"""Tests for structured monitor events, JSONL logs, and run manifests."""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.telemetry import (EventLog, MonitorEvent, RunManifest,
                             current_git_rev, read_events)


class TestMonitorEvent:
    def test_round_trip(self):
        event = MonitorEvent(kind="load_spike", severity="critical", step=7,
                             message="ratio 12 exceeds 4",
                             time_unix=123.5,
                             labels={"layer": 2, "ratio": 12.0})
        back = MonitorEvent.from_dict(event.to_dict())
        assert back == event

    def test_defaults_fill_optional_fields(self):
        back = MonitorEvent.from_dict({"kind": "run_start"})
        assert back.severity == "info"
        assert back.step is None
        assert back.labels == {}

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            MonitorEvent(kind="x", severity="fatal")


class TestEventLog:
    def test_in_memory_only(self):
        log = EventLog()
        log.emit(MonitorEvent(kind="a"))
        log.emit(MonitorEvent(kind="b"))
        assert len(log) == 2
        assert [e.kind for e in log.events] == ["a", "b"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit(MonitorEvent(kind="run_start", time_unix=1.0))
            log.emit(MonitorEvent(kind="drift_violation",
                                  severity="critical", step=3,
                                  labels={"expert": 1, "drift": 0.09}))
        events = read_events(path)
        assert [e.kind for e in events] == ["run_start", "drift_violation"]
        assert events[1].labels == {"expert": 1, "drift": 0.09}
        assert events[1].severity == "critical"

    def test_append_across_reopens(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit(MonitorEvent(kind="first"))
        with EventLog(path) as log:
            log.emit(MonitorEvent(kind="second"))
        assert [e.kind for e in read_events(path)] == ["first", "second"]

    def test_truncated_last_line_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit(MonitorEvent(kind="kept"))
        # Simulate a writer killed mid-append: half a JSON object at the
        # tail must not poison the readable prefix.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "lost", "sever')
        events = read_events(path)
        assert [e.kind for e in events] == ["kept"]

    def test_missing_file_returns_empty(self, tmp_path):
        assert read_events(tmp_path / "never_written.jsonl") == []

    def test_empty_file_returns_empty(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_events(path) == []
        # Whitespace-only files (e.g. a flushed bare newline) count as empty.
        path.write_text("\n\n", encoding="utf-8")
        assert read_events(path) == []

    def test_corruption_before_tail_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [json.dumps({"kind": "ok"}), "garbage not json",
                 json.dumps({"kind": "later"})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_events(path)


class TestEventLogRotation:
    def _emit_n(self, log, n, kind="tick"):
        for index in range(n):
            log.emit(MonitorEvent(kind=f"{kind}-{index}", time_unix=1.0))

    def test_rotation_caps_primary_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, max_bytes=256) as log:
            self._emit_n(log, 40)
            assert log.rotations > 0
        import os
        # Each file stays under the cap plus at most one whole line; the
        # pair together bounds disk at ~2x max_bytes.
        assert os.path.getsize(path) <= 256
        assert os.path.getsize(str(path) + ".1") <= 256

    def test_read_events_merges_rotated_pair_in_order(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, max_bytes=256) as log:
            self._emit_n(log, 40)
        kinds = [e.kind for e in read_events(path)]
        # The rolled file holds the older prefix; the pair reads back as
        # one contiguous, ordered tail of the stream.
        assert kinds == [f"tick-{i}" for i in range(40 - len(kinds), 40)]
        assert len(kinds) > 2  # both files contribute

    def test_rotation_never_splits_a_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, max_bytes=128) as log:
            self._emit_n(log, 30)
        for part in (str(path) + ".1", str(path)):
            for line in open(part, encoding="utf-8"):
                if line.strip():
                    json.loads(line)

    def test_second_rotation_drops_oldest(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, max_bytes=128) as log:
            self._emit_n(log, 60)
            assert log.rotations >= 2
        kinds = [e.kind for e in read_events(path)]
        assert kinds[-1] == "tick-59"
        assert "tick-0" not in kinds

    def test_oversized_single_event_still_written(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, max_bytes=64) as log:
            log.emit(MonitorEvent(kind="big", time_unix=1.0,
                                  labels={"blob": "x" * 200}))
        events = read_events(path)
        assert [e.kind for e in events] == ["big"]

    def test_concurrent_writers_across_one_rotation(self, tmp_path):
        """Four threads emit 15 equal-sized events each under a cap of 40
        lines: the log rotates exactly once, no line is torn, and the pair
        reads back every event exactly once, each thread's in order."""
        path = tmp_path / "events.jsonl"
        threads, per_thread = 4, 15
        line = len(json.dumps(MonitorEvent(kind="w0-00").to_dict())) + 1
        barrier = threading.Barrier(threads)

        def writer(log, t):
            barrier.wait()
            for i in range(per_thread):
                log.emit(MonitorEvent(kind=f"w{t}-{i:02d}"))

        with EventLog(path, max_bytes=40 * line) as log:
            workers = [threading.Thread(target=writer, args=(log, t))
                       for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            assert log.rotations == 1
        for part in (str(path) + ".1", str(path)):
            for raw in open(part, encoding="utf-8"):
                json.loads(raw)
        kinds = [e.kind for e in read_events(path)]
        assert sorted(kinds) == sorted(f"w{t}-{i:02d}" for t in range(threads)
                                       for i in range(per_thread))
        for t in range(threads):
            mine = [kind for kind in kinds if kind.startswith(f"w{t}-")]
            assert mine == sorted(mine)

    def test_oversized_events_bound_the_pair(self, tmp_path):
        """The documented bound: each file holds one line past the cap at
        most, and the pair twice the longest line."""
        path = tmp_path / "events.jsonl"
        event = MonitorEvent(kind="big", labels={"blob": "x" * 485})
        with EventLog(path, max_bytes=200) as log:
            for _ in range(3):
                log.emit(event)
        size = len(json.dumps(event.to_dict())) + 1
        assert size == 592
        total = os.path.getsize(path) + os.path.getsize(str(path) + ".1")
        assert total == 2 * size

    def test_no_cap_never_rotates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            self._emit_n(log, 50)
            assert log.rotations == 0
        assert len(read_events(path)) == 50

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            EventLog(max_bytes=0)


class TestRunManifest:
    def test_auto_run_id_and_start_time(self):
        manifest = RunManifest()
        assert manifest.run_id.startswith("run-")
        assert manifest.started_unix > 0
        assert manifest.status == "running"

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = RunManifest(run_id="run-abc", config={"steps": 20},
                               seed=7, git_rev="deadbeef")
        manifest.status = "completed"
        manifest.ended_unix = manifest.started_unix + 5.0
        manifest.final_metrics = {"final_loss": 1.25}
        manifest.save(path)
        back = RunManifest.load(path)
        assert back.to_dict() == manifest.to_dict()

    def test_saved_file_is_plain_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        RunManifest(run_id="run-x").save(path)
        payload = json.loads(path.read_text())
        assert payload["run_id"] == "run-x"
        assert payload["status"] == "running"

    def test_failed_save_keeps_previous_manifest(self, tmp_path):
        """A save that cannot serialize (numpy scalars reach
        ``final_metrics`` through ``end_run``) leaves the previous file
        loadable and no temporary file behind."""
        path = tmp_path / "manifest.json"
        manifest = RunManifest(run_id="run-x")
        manifest.save(path)
        first = RunManifest.load(path).to_dict()
        manifest.final_metrics = {"steps_done": np.int64(3)}
        with pytest.raises(TypeError):
            manifest.save(path)
        assert RunManifest.load(path).to_dict() == first
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


class TestGitRev:
    def test_inside_repo_returns_hex(self):
        rev = current_git_rev()
        # The test suite runs from a checkout; outside one None is fine.
        if rev is not None:
            assert len(rev) == 40
            int(rev, 16)

    def test_outside_repo_returns_none(self, tmp_path):
        assert current_git_rev(cwd=str(tmp_path)) is None
