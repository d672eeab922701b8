"""A stdlib HTTP endpoint exposing live telemetry: ``/metrics`` + ``/healthz``.

``MetricsServer`` wraps :class:`http.server.ThreadingHTTPServer` in a
daemon thread, so a fine-tune or a :class:`~repro.serving.scheduler.
LiveDecodeEngine` decode loop can be scraped *while it runs*:

* ``GET /metrics`` — the Prometheus text rendering
  (:func:`~repro.telemetry.promexport.prometheus_text`) of the configured
  registries, always ``200``.
* ``GET /healthz`` — run-health JSON.  ``200 {"status": "ok"}`` while the
  attached :class:`~repro.telemetry.monitor.RoutingHealthMonitor` (if any)
  has no latched anomaly; ``503`` with the active anomaly kinds otherwise.
* ``GET /debug/flight`` — the attached
  :class:`~repro.telemetry.flight.FlightRecorder`'s current post-mortem
  bundle as JSON (``404`` when no recorder is attached).
  ``/debug/flight?dump=1`` additionally writes the bundle to the
  recorder's dump directory and reports the path (``409`` when the
  recorder has no ``dump_dir``).

Everything is read-only (the on-demand flight dump writes only to the
recorder's own dump directory) and thread-safe: the registry, monitor,
and recorder guard their own state, and the handler never blocks the
producing thread.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, List, Optional, Union

from .monitor import RoutingHealthMonitor
from .promexport import CONTENT_TYPE, prometheus_text
from .registry import Registry


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-telemetry/1.0"

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        owner: "MetricsServer" = self.server.owner  # type: ignore[attr-defined]
        if path == "/metrics":
            body = prometheus_text(*owner.registries).encode("utf-8")
            self._respond(200, CONTENT_TYPE, body)
        elif path == "/healthz":
            status, payload = owner.health()
            body = (json.dumps(payload) + "\n").encode("utf-8")
            self._respond(status, "application/json", body)
        elif path == "/debug/flight":
            query = self.path.partition("?")[2]
            dump = any(part in ("dump=1", "dump=true")
                       for part in query.split("&"))
            status, payload = owner.flight_bundle(dump=dump)
            body = (json.dumps(payload) + "\n").encode("utf-8")
            self._respond(status, "application/json", body)
        else:
            self._respond(404, "text/plain; charset=utf-8", b"not found\n")

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging."""


class MetricsServer:
    """Serve ``/metrics`` and ``/healthz`` for live registries.

    Accepts any mix of :class:`Registry`, :class:`Telemetry`, and
    :class:`RoutingHealthMonitor` sources (a monitor contributes both its
    registry and the health state).  ``port=0`` (the default) binds an
    ephemeral port, available as :attr:`port` after :meth:`start`.
    """

    def __init__(self, *sources: Union[Registry, Any],
                 monitor: Optional[RoutingHealthMonitor] = None,
                 flight=None, host: str = "127.0.0.1", port: int = 0):
        self.monitor = monitor
        self.flight = flight
        self.registries: List[Registry] = []
        for source in sources:
            if isinstance(source, RoutingHealthMonitor):
                if self.monitor is None:
                    self.monitor = source
                self._add_registry(source.telemetry.registry)
            else:
                self._add_registry(getattr(source, "registry", source))
        if monitor is not None:
            self._add_registry(monitor.telemetry.registry)
        if not self.registries:
            raise ValueError("MetricsServer needs at least one registry, "
                             "telemetry, or monitor source")
        self.host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def _add_registry(self, registry: Registry) -> None:
        if all(existing is not registry for existing in self.registries):
            self.registries.append(registry)

    # ------------------------------------------------------------------ #
    def health(self) -> tuple:
        """(HTTP status, JSON payload) for ``/healthz``."""
        if self.monitor is None:
            return 200, {"status": "ok", "monitored": False}
        active = self.monitor.active_anomalies
        payload = {
            "status": "ok" if not active else "unhealthy",
            "monitored": True,
            "steps_observed": self.monitor.steps_observed,
            "active_anomalies": [event.kind for event in active],
        }
        return (200 if not active else 503), payload

    def flight_bundle(self, dump: bool = False) -> tuple:
        """(HTTP status, JSON payload) for ``/debug/flight``."""
        if self.flight is None:
            return 404, {"error": "no flight recorder attached"}
        payload = self.flight.bundle(reason="on_demand",
                                     monitor=self.monitor)
        if dump:
            if self.flight.dump_dir is None:
                return 409, {"error": "flight recorder has no dump_dir",
                             "bundle": payload}
            target = self.flight.dump(reason="on_demand",
                                      monitor=self.monitor)
            payload["dumped_to"] = str(target)
        return 200, payload

    # ------------------------------------------------------------------ #
    def start(self) -> "MetricsServer":
        """Bind the socket and serve from a daemon thread; returns self."""
        if self._httpd is not None:
            return self
        self._httpd = ThreadingHTTPServer((self.host, self._requested_port),
                                          _Handler)
        self._httpd.owner = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-metrics-server",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL, e.g. ``http://127.0.0.1:8912``."""
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
