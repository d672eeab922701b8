"""Structured monitor events and per-run manifests (append-only JSONL).

Two durable artifacts complement the in-memory :class:`~repro.telemetry.Registry`:

* **event logs** — every :class:`MonitorEvent` the
  :class:`~repro.telemetry.monitor.RoutingHealthMonitor` emits (anomalies,
  recoveries, run lifecycle) appended as one JSON object per line.  The
  format is append-only and crash-tolerant: :func:`read_events` accepts a
  truncated *final* line (the one a killed process was mid-write on) but
  still rejects corruption anywhere earlier in the file.
* **run manifests** — one :class:`RunManifest` JSON document per run
  (config, seed, git revision, start/end timestamps, final metrics
  including the Theorem-1 :class:`~repro.routing.stability.StabilityReport`
  dict), so a finished run can be audited without re-deriving anything.

Everything here is standard library only, like the rest of the telemetry
subsystem.  Schemas are documented in ``docs/OBSERVABILITY.md`` § Health
monitoring & events.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

EVENT_SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class MonitorEvent:
    """One structured monitoring event.

    ``kind`` names what happened (``"locality_collapse"``,
    ``"drift_violation.recovered"``, ``"run_start"`` ...); ``step`` is the
    fine-tuning/decode step it was detected at (``None`` for lifecycle
    events); ``labels`` carries the detector's measured values (the
    offending layer, the observed ratio, the threshold crossed).
    """

    kind: str
    severity: str = "info"
    step: Optional[int] = None
    message: str = ""
    time_unix: float = 0.0
    labels: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in EVENT_SEVERITIES:
            raise ValueError(f"severity must be one of {EVENT_SEVERITIES}, "
                             f"got {self.severity!r}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict (the JSONL line's payload)."""
        return {"kind": self.kind, "severity": self.severity,
                "step": self.step, "message": self.message,
                "time_unix": self.time_unix, "labels": dict(self.labels)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MonitorEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(kind=data["kind"], severity=data.get("severity", "info"),
                   step=data.get("step"), message=data.get("message", ""),
                   time_unix=data.get("time_unix", 0.0),
                   labels=dict(data.get("labels", {})))


class EventLog:
    """Append-only JSONL event sink (plus an in-memory mirror).

    With ``path=None`` events are only kept in memory — handy for tests and
    for the dashboard's live view of a same-process run.  With a path, each
    :meth:`emit` appends one line and flushes, so a tailing reader (or
    ``tools/obs_dashboard.py --follow``) sees events as they happen and a
    crash loses at most the line being written.

    ``max_bytes=`` caps the on-disk size for long serving runs: when
    appending the next line would push a non-empty file past the cap, the
    file is rotated to ``<path>.1`` (replacing any previous rotation) and a
    fresh file is started, so the most recent events are always retained.
    A line longer than ``max_bytes`` is still written whole, alone in its
    file, so each file holds at most ``max(max_bytes, longest line)``
    bytes and the pair at most twice that (two 592-byte events under
    ``max_bytes=200`` take 1,184 bytes).  :func:`read_events` reads the
    rotated pair in order.  Rotation happens on whole-line boundaries only,
    so the rotated file is always fully parseable.
    """

    def __init__(self, path: Optional[str] = None,
                 max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.path = str(path) if path is not None else None
        self.max_bytes = max_bytes
        self.events: List[MonitorEvent] = []
        self._lock = threading.Lock()
        self._handle = None
        self._size = 0
        self.rotations = 0

    def _open(self) -> None:
        self._size = os.path.getsize(self.path) if os.path.exists(
            self.path) else 0
        self._handle = open(self.path, "a", encoding="utf-8")

    def emit(self, event: MonitorEvent) -> MonitorEvent:
        """Record one event (appends + flushes when backed by a file)."""
        with self._lock:
            self.events.append(event)
            if self.path is not None:
                if self._handle is None:
                    self._open()
                line = json.dumps(event.to_dict()) + "\n"
                nbytes = len(line.encode("utf-8"))
                if (self.max_bytes is not None and self._size > 0
                        and self._size + nbytes > self.max_bytes):
                    self._handle.close()
                    os.replace(self.path, self.path + ".1")
                    self.rotations += 1
                    self._size = 0
                    self._handle = open(self.path, "a", encoding="utf-8")
                self._handle.write(line)
                self._handle.flush()
                self._size += nbytes
        return event

    def close(self) -> None:
        """Close the underlying file (no-op when in-memory only)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.events)


def read_events(path) -> List[MonitorEvent]:
    """Read a JSONL event log back into :class:`MonitorEvent` objects.

    A missing or empty file yields ``[]`` — a monitored run that emitted no
    events (or never started) is not an error.  A malformed *final* line is
    tolerated (a writer killed mid-append leaves exactly one truncated line
    at the tail); malformed content anywhere else raises ``ValueError`` —
    that is corruption, not a crash artifact.

    When the log was written with ``max_bytes=`` rotation, the rotated
    ``<path>.1`` file is read first so events come back oldest-first across
    the pair.  Rotation only ever moves whole lines, so the truncated-tail
    tolerance still applies exactly once, to the live file's last line.
    """
    lines: List[str] = []
    found = False
    for part in (str(path) + ".1", str(path)):
        try:
            with open(part, "r", encoding="utf-8") as handle:
                lines.extend(line for line in handle.read().split("\n")
                             if line.strip())
            found = True
        except FileNotFoundError:
            continue
    if not found:
        return []
    events: List[MonitorEvent] = []
    for index, line in enumerate(lines):
        try:
            events.append(MonitorEvent.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            if index == len(lines) - 1:
                break  # truncated tail from an interrupted append
            raise ValueError(
                f"corrupt event log {path!s} at line {index + 1}: {error}")
    return events


def current_git_rev(cwd: Optional[str] = None) -> Optional[str]:
    """The current ``git rev-parse HEAD``, or ``None`` outside a checkout."""
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    rev = result.stdout.strip()
    return rev or None


@dataclass
class RunManifest:
    """Everything needed to identify and audit one run.

    ``final_metrics`` is filled at :meth:`~repro.telemetry.monitor.
    RoutingHealthMonitor.end_run` time and includes the stability report
    (``StabilityReport.to_dict()``) when gate probabilities were observed.
    """

    run_id: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    git_rev: Optional[str] = None
    started_unix: float = 0.0
    ended_unix: Optional[float] = None
    status: str = "running"
    final_metrics: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.run_id:
            self.run_id = f"run-{uuid.uuid4().hex[:12]}"
        if not self.started_unix:
            self.started_unix = time.time()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict (the manifest file's payload)."""
        return {"run_id": self.run_id, "config": dict(self.config),
                "seed": self.seed, "git_rev": self.git_rev,
                "started_unix": self.started_unix,
                "ended_unix": self.ended_unix, "status": self.status,
                "final_metrics": dict(self.final_metrics)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Inverse of :meth:`to_dict`."""
        return cls(run_id=data["run_id"], config=dict(data.get("config", {})),
                   seed=data.get("seed"), git_rev=data.get("git_rev"),
                   started_unix=data.get("started_unix", 0.0),
                   ended_unix=data.get("ended_unix"),
                   status=data.get("status", "running"),
                   final_metrics=dict(data.get("final_metrics", {})))

    def save(self, path) -> None:
        """Write the manifest as pretty-printed JSON (atomic overwrite).

        Serializes first, then writes ``<path>.tmp`` and renames it over
        ``path``: a manifest that fails to serialize leaves the previous
        file intact.
        """
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        tmp = f"{os.fspath(path)}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a manifest written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
