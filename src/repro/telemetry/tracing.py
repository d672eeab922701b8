"""Request-scoped tracing: trace context, cost ledgers, SLO burn rate.

Aggregate counters answer "how many bytes crossed the wire"; they cannot
answer "which request paid for them" once the continuous-batching engine
interleaves requests in one ragged decode step.  This module adds the
request dimension:

* **trace context** — every :class:`~repro.serving.batching.Request` mints
  a ``trace_id`` at construction (:func:`mint_trace_id`); the serving
  engines propagate it through admission → prefill → ragged decode steps →
  eviction.
* :class:`RequestLedger` — one per-request cost breakdown: queueing /
  TTFT / prefill / decode / decode-stall seconds plus *attributed* bytes
  (expert prefetch hidden/un-hidden/remote bytes, broker dispatch and
  cross-node dispatch bytes).
* :class:`RequestTracer` — the engine-side recorder.  Shared step costs
  (a ragged decode step, a broker dispatch, a prefetch report) are split
  across the step's co-resident requests by token share
  (:meth:`RequestTracer.set_step` + :meth:`RequestTracer.attribute`);
  the split uses a largest-weight-first remainder so the in-order float
  sum of the shares reproduces the step amount, and the tracer mirrors
  every attributed amount into :attr:`RequestTracer.totals` — the tiling
  invariant the tests and the bench gate check against the aggregate
  ``broker.dispatch_bytes`` / ``serve.prefetch_*`` counters.
* :class:`TraceSink` — an append-only JSONL sink of finished ledgers
  (:func:`read_trace` reads it back), feeding ``tools/trace_report.py``
  and the dashboard's per-request panel.
* :class:`SLOTracker` — rolling-window good/bad classification against
  TTFT and per-token-latency SLOs (:class:`SLOConfig`), published as
  ``serve.slo_burn_rate`` gauges with a latched ``slo_burn`` event.

The tracer is accounting-only: it never touches the model, the KV caches,
or the ids buffer, so greedy ids are bit-identical with tracing on or off
(enforced by ``tests/serving`` and a hard ``benchmarks/
bench_serving_batch.py`` gate).  Like ``telemetry=``/``monitor=``, the
``tracing=None`` default keeps the engines' hot paths on a single
attribute check.
"""

from __future__ import annotations

import json
import math
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .events import EventLog, MonitorEvent

#: Ledger fields a shared step cost may be attributed into.
ATTRIBUTION_FIELDS = (
    "dispatch_bytes", "cross_node_dispatch_bytes",
    "prefetch_hidden_bytes", "prefetch_unhidden_bytes",
    "prefetch_remote_bytes",
)


def mint_trace_id() -> str:
    """A fresh request-scoped trace id (``t-`` + 12 hex chars)."""
    return f"t-{uuid.uuid4().hex[:12]}"


@dataclass
class RequestLedger:
    """Per-request cost breakdown, filled as the request moves through.

    Timing fields are in the engine's (virtual) clock; byte fields are the
    request's attributed share of shared step costs (see
    :meth:`RequestTracer.attribute`).  ``decode_stall_s`` is time the
    request sat admitted-and-decoding while the engine ran someone else's
    prefill — latency the request paid without advancing.
    """

    trace_id: str
    request_id: Optional[int] = None
    arrival_time: float = 0.0
    admit_time: float = 0.0
    queue_depth_at_admit: int = 0
    prompt_len: int = 0
    tokens: int = 0
    steps: int = 0
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    finish_reason: Optional[str] = None
    prefill_s: float = 0.0
    decode_s: float = 0.0
    decode_stall_s: float = 0.0
    dispatch_bytes: float = 0.0
    cross_node_dispatch_bytes: float = 0.0
    prefetch_hidden_bytes: float = 0.0
    prefetch_unhidden_bytes: float = 0.0
    prefetch_remote_bytes: float = 0.0

    @property
    def queueing_s(self) -> float:
        """Arrival-to-admission wait."""
        return self.admit_time - self.arrival_time

    @property
    def ttft_s(self) -> Optional[float]:
        """Arrival-to-first-token time (None before the first token)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def latency_s(self) -> Optional[float]:
        """Arrival-to-finish time (None while in flight)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def attributed_bytes(self) -> float:
        """Every byte this request was charged for, across all fields."""
        return (self.dispatch_bytes + self.prefetch_hidden_bytes
                + self.prefetch_unhidden_bytes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict (the trace sink's line payload)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["queueing_s"] = self.queueing_s
        payload["ttft_s"] = self.ttft_s
        payload["latency_s"] = self.latency_s
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RequestLedger":
        """Inverse of :meth:`to_dict` (derived fields are recomputed)."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


class TraceSink:
    """Append-only JSONL sink of finished request ledgers.

    Same contract as :class:`~repro.telemetry.events.EventLog`:
    ``path=None`` keeps records in memory only; with a path every
    :meth:`write` appends one JSON line and flushes, so a crash loses at
    most the line being written.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = str(path) if path is not None else None
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._handle = None

    def write(self, record: Dict[str, Any]) -> None:
        """Append one ledger dict (one JSONL line when file-backed)."""
        with self._lock:
            self.records.append(record)
            if self.path is not None:
                if self._handle is None:
                    self._handle = open(self.path, "a", encoding="utf-8")
                json.dump(record, self._handle)
                self._handle.write("\n")
                self._handle.flush()

    def close(self) -> None:
        """Close the underlying file (no-op when in-memory only)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.records)


def read_trace(path) -> List[RequestLedger]:
    """Read a :class:`TraceSink` JSONL file back into ledgers.

    Missing file yields ``[]``; a malformed *final* line is tolerated (a
    writer killed mid-append), corruption earlier raises ``ValueError`` —
    the :func:`~repro.telemetry.events.read_events` contract.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().split("\n")
                     if line.strip()]
    except FileNotFoundError:
        return []
    ledgers: List[RequestLedger] = []
    for index, line in enumerate(lines):
        try:
            ledgers.append(RequestLedger.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            if index == len(lines) - 1:
                break
            raise ValueError(
                f"corrupt trace sink {path!s} at line {index + 1}: {error}")
    return ledgers


@dataclass(frozen=True)
class SLOConfig:
    """Request-level SLOs and the burn-rate alarm's shape.

    A finished request is *good* when its TTFT is within ``ttft_s`` (if
    set) and its p95 per-token latency is within ``token_latency_s`` (if
    set).  The burn rate over the last ``window`` requests is

        ``burn = bad_fraction / (1 - target)``

    — 1.0 means the error budget of a ``target`` availability objective is
    being spent exactly as fast as it accrues; above ``max_burn_rate``
    (after ``min_requests`` finishes) the tracker latches ``slo_burn``.
    """

    ttft_s: Optional[float] = None
    token_latency_s: Optional[float] = None
    target: float = 0.99
    window: int = 64
    max_burn_rate: float = 1.0
    min_requests: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.max_burn_rate <= 0:
            raise ValueError("max_burn_rate must be positive")


class SLOTracker:
    """Rolling-window SLO classification + burn-rate gauges and latching.

    Gauges (when a telemetry registry is attached):
    ``serve.slo_burn_rate{slo="ttft"|"token_latency"|"any"}`` and
    ``serve.slo_good_fraction``.  The latched ``slo_burn`` event fires
    once when the combined burn rate crosses ``max_burn_rate`` and
    ``slo_burn.recovered`` once when it falls back under — the
    :class:`~repro.telemetry.monitor.RoutingHealthMonitor` latching
    contract.
    """

    def __init__(self, config: SLOConfig, telemetry=None,
                 event_log: Optional[EventLog] = None):
        self.config = config
        self.telemetry = telemetry
        self.event_log = event_log
        self._window: deque = deque(maxlen=config.window)  # (ttft_ok, tok_ok)
        self._latched = False
        self.requests_observed = 0

    def _p95(self, token_latencies) -> Optional[float]:
        if token_latencies is None or len(token_latencies) == 0:
            return None
        from .instruments import Histogram
        return Histogram.of(float(v) for v in token_latencies).percentile(95)

    def observe(self, ledger: RequestLedger,
                token_latencies=None) -> bool:
        """Classify one finished request; returns True when it was good."""
        config = self.config
        ttft_ok = True
        if config.ttft_s is not None:
            ttft = ledger.ttft_s
            ttft_ok = ttft is not None and ttft <= config.ttft_s
        token_ok = True
        if config.token_latency_s is not None:
            p95 = self._p95(token_latencies)
            token_ok = p95 is not None and p95 <= config.token_latency_s
        self._window.append((ttft_ok, token_ok))
        self.requests_observed += 1
        self._publish(ledger)
        return ttft_ok and token_ok

    def burn_rate(self, slo: str = "any") -> float:
        """Error-budget burn rate over the window (0.0 before any finish)."""
        if not self._window:
            return 0.0
        if slo == "ttft":
            bad = sum(1 for t, _ in self._window if not t)
        elif slo == "token_latency":
            bad = sum(1 for _, k in self._window if not k)
        elif slo == "any":
            bad = sum(1 for t, k in self._window if not (t and k))
        else:
            raise ValueError(f"slo must be 'ttft', 'token_latency' or "
                             f"'any', got {slo!r}")
        return (bad / len(self._window)) / (1.0 - self.config.target)

    @property
    def good_fraction(self) -> float:
        """Fraction of windowed requests that met every SLO."""
        if not self._window:
            return 1.0
        return sum(1 for t, k in self._window if t and k) / len(self._window)

    @property
    def burning(self) -> bool:
        """True while the ``slo_burn`` condition is latched."""
        return self._latched

    def _publish(self, ledger: RequestLedger) -> None:
        burn = self.burn_rate("any")
        if self.telemetry is not None:
            for slo in ("ttft", "token_latency", "any"):
                self.telemetry.gauge("serve.slo_burn_rate", slo=slo).set(
                    self.burn_rate(slo))
            self.telemetry.gauge("serve.slo_good_fraction").set(
                self.good_fraction)
        enough = self.requests_observed >= self.config.min_requests
        firing = enough and burn > self.config.max_burn_rate
        if firing and not self._latched:
            self._latched = True
            self._emit("slo_burn", "critical",
                       f"SLO burn rate {burn:.3g} exceeds "
                       f"{self.config.max_burn_rate:.3g}",
                       burn_rate=burn, trace_id=ledger.trace_id,
                       good_fraction=self.good_fraction)
        elif not firing and self._latched and enough:
            self._latched = False
            self._emit("slo_burn.recovered", "info",
                       f"SLO burn rate {burn:.3g} back under "
                       f"{self.config.max_burn_rate:.3g}",
                       burn_rate=burn, good_fraction=self.good_fraction)

    def _emit(self, kind: str, severity: str, message: str,
              **labels: Any) -> None:
        if self.event_log is not None:
            self.event_log.emit(MonitorEvent(
                kind=kind, severity=severity, message=message,
                time_unix=time.time(), labels=labels))


def split_by_weight(amount: float,
                    weights: Sequence[Tuple[Any, float]]
                    ) -> List[Tuple[Any, float]]:
    """Split ``amount`` across keyed weights, preserving the total.

    Shares are proportional to weight; the *smallest* weight receives the
    remainder (``amount`` minus the float sum of the larger shares), so
    accumulating the returned shares in order reproduces ``amount``
    without drift — the largest-first ordering keeps that final
    subtraction inside Sterbenz's exact-cancellation range.  Zero/negative
    total weight attributes nothing.
    """
    entries = [(key, float(w)) for key, w in weights]
    total = math.fsum(w for _, w in entries)
    if not entries or total <= 0.0 or amount == 0.0:
        return []
    entries.sort(key=lambda kw: -kw[1])
    shares: List[Tuple[Any, float]] = []
    running = 0.0
    for index, (key, weight) in enumerate(entries):
        if index == len(entries) - 1:
            share = amount - running
        else:
            share = amount * (weight / total)
            running += share
        shares.append((key, share))
    return shares


class RequestTracer:
    """Engine-side recorder of per-request trace context and ledgers.

    One tracer serves one engine's runs (``serve`` calls, or
    :class:`~repro.serving.scheduler.LiveDecodeEngine` decodes, one
    request per batch row).  The engine drives the lifecycle —
    :meth:`admit`, :meth:`prefill` / :meth:`decode_step` / :meth:`stall`,
    :meth:`finish` — and brackets each shared forward with
    :meth:`set_step` so :meth:`attribute` / :meth:`attribute_fetch` can
    split shared costs by token share.

    With a ``telemetry=`` registry, every request also lands spans on its
    own ``req-<id>`` track (``trace.queue`` / ``trace.prefill`` /
    ``trace.decode``), so the existing Chrome-trace export renders a
    per-request waterfall for free.  With a ``sink=``
    :class:`TraceSink`, each finished ledger appends one JSONL record.
    ``slo=`` (an :class:`SLOConfig` or :class:`SLOTracker`) attaches
    burn-rate tracking fed at every finish.

    :attr:`totals` mirrors every attributed amount (full step amounts, in
    arrival order) — by construction it matches what the aggregate
    counters received, so tests can check the per-request shares tile it.
    """

    def __init__(self, telemetry=None, sink: Optional[TraceSink] = None,
                 slo=None, event_log: Optional[EventLog] = None):
        self.telemetry = telemetry
        self.sink = sink
        self.event_log = event_log
        if slo is None:
            self.slo = None
        elif isinstance(slo, SLOTracker):
            self.slo = slo
        elif isinstance(slo, SLOConfig):
            self.slo = SLOTracker(slo, telemetry=telemetry,
                                  event_log=event_log)
        else:
            raise TypeError(f"slo must be an SLOConfig or SLOTracker, "
                            f"got {type(slo).__name__}")
        self.active: Dict[str, RequestLedger] = {}
        self.finished: List[RequestLedger] = []
        self.totals: Dict[str, float] = {}
        self._weights: List[Tuple[str, float]] = []
        self._lock = threading.Lock()
        self._anonymous = 0

    def bind(self, telemetry=None, event_log=None) -> None:
        """Late-bind engine plumbing (first non-None source wins)."""
        if self.telemetry is None and telemetry is not None:
            self.telemetry = telemetry
            if self.slo is not None and self.slo.telemetry is None:
                self.slo.telemetry = telemetry
        if self.event_log is None and event_log is not None:
            self.event_log = event_log
            if self.slo is not None and self.slo.event_log is None:
                self.slo.event_log = event_log

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def admit(self, request=None, *, now: float = 0.0, queue_depth: int = 0,
              trace_id: Optional[str] = None,
              request_id: Optional[int] = None,
              arrival_time: Optional[float] = None,
              prompt_len: int = 0) -> RequestLedger:
        """Open a ledger at admission time (slot acquired).

        Pass the engine's :class:`~repro.serving.batching.Request` to pull
        ``trace_id`` / ``request_id`` / ``arrival_time`` / prompt length
        from it; the keyword fields cover callers without one.
        """
        if request is not None:
            trace_id = trace_id or getattr(request, "trace_id", None)
            request_id = request.request_id if request_id is None \
                else request_id
            arrival_time = request.arrival_time if arrival_time is None \
                else arrival_time
            prompt_len = prompt_len or request.prompt_len
        if trace_id is None:
            trace_id = mint_trace_id()
        with self._lock:
            if trace_id in self.active:
                raise ValueError(f"trace {trace_id!r} is already active")
            ledger = RequestLedger(
                trace_id=trace_id, request_id=request_id,
                arrival_time=now if arrival_time is None else arrival_time,
                admit_time=now, queue_depth_at_admit=int(queue_depth),
                prompt_len=int(prompt_len))
            self.active[trace_id] = ledger
        return ledger

    def prefill(self, trace_ids: Sequence[str], start: float,
                duration: float) -> None:
        """Record one batched prefill (each request gains its first token)."""
        with self._lock:
            for trace_id in trace_ids:
                ledger = self.active.get(trace_id)
                if ledger is None:
                    continue
                ledger.prefill_s += duration
                ledger.tokens += 1
                ledger.steps += 1
                if ledger.first_token_time is None:
                    ledger.first_token_time = start + duration
                self._span("trace.prefill", start, duration, "prefill",
                           ledger)

    def decode_step(self, trace_ids: Sequence[str], start: float,
                    duration: float) -> None:
        """Record one ragged decode step for its co-resident requests."""
        with self._lock:
            for trace_id in trace_ids:
                ledger = self.active.get(trace_id)
                if ledger is None:
                    continue
                ledger.decode_s += duration
                ledger.tokens += 1
                ledger.steps += 1
                self._span("trace.decode_step", start, duration, "decode",
                           ledger)

    def stall(self, trace_ids: Sequence[str], duration: float) -> None:
        """Charge engine time spent not advancing these active requests."""
        with self._lock:
            for trace_id in trace_ids:
                ledger = self.active.get(trace_id)
                if ledger is not None:
                    ledger.decode_stall_s += duration

    def finish(self, trace_id: str, *, now: float, reason: str,
               token_latencies=None) -> Optional[RequestLedger]:
        """Close a ledger at eviction; feeds the sink and the SLO tracker."""
        with self._lock:
            ledger = self.active.pop(trace_id, None)
            if ledger is None:
                return None
            ledger.finish_time = now
            ledger.finish_reason = reason
            self.finished.append(ledger)
            if self.telemetry is not None:
                self._span("trace.queue", ledger.arrival_time,
                           ledger.queueing_s, "queue", ledger)
                self._span("trace.request", ledger.arrival_time,
                           ledger.latency_s or 0.0, "request", ledger,
                           finish_reason=reason, tokens=ledger.tokens)
        if self.sink is not None:
            self.sink.write(ledger.to_dict())
        if self.slo is not None:
            self.slo.observe(ledger, token_latencies=token_latencies)
        return ledger

    def _span(self, name: str, start: float, duration: float,
              category: str, ledger: RequestLedger, **labels: Any) -> None:
        if self.telemetry is None or duration < 0:
            return
        track = f"req-{ledger.request_id}" if ledger.request_id is not None \
            else f"req-{ledger.trace_id}"
        self.telemetry.record_span(name, start, duration, category=category,
                                   track=track, trace_id=ledger.trace_id,
                                   **labels)

    # ------------------------------------------------------------------ #
    # shared-cost attribution
    # ------------------------------------------------------------------ #
    def set_step(self, weights: Sequence[Tuple[str, float]]) -> None:
        """Declare the current step's (trace_id, token-share weight) list.

        Every subsequent :meth:`attribute` call splits its amount across
        these requests until the next :meth:`set_step`.
        """
        with self._lock:
            self._weights = [(str(t), float(w)) for t, w in weights]

    def attribute(self, fieldname: str, amount: float) -> None:
        """Split one shared step cost across the current step's requests.

        ``amount`` is also accumulated — whole, in call order — into
        :attr:`totals`, mirroring the aggregate counter the caller feeds,
        so per-request shares can be checked to tile the aggregate.
        """
        if fieldname not in ATTRIBUTION_FIELDS:
            raise ValueError(f"unknown attribution field {fieldname!r}; "
                             f"expected one of {ATTRIBUTION_FIELDS}")
        amount = float(amount)
        with self._lock:
            self.totals[fieldname] = self.totals.get(fieldname, 0.0) + amount
            for trace_id, share in split_by_weight(amount, self._weights):
                ledger = self.active.get(trace_id)
                if ledger is not None:
                    setattr(ledger, fieldname,
                            getattr(ledger, fieldname) + share)

    def attribute_fetch(self, report) -> None:
        """Attribute one prefetch :class:`~repro.serving.prefetch.
        StepFetchReport`'s byte fields (hidden / un-hidden / remote)."""
        if report is None:
            return
        self.attribute("prefetch_hidden_bytes", report.hidden_bytes)
        self.attribute("prefetch_unhidden_bytes", report.unhidden_bytes)
        self.attribute("prefetch_remote_bytes", report.remote_bytes)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def ledgers(self) -> List[RequestLedger]:
        """Every ledger, finished first then still-active."""
        with self._lock:
            return list(self.finished) + list(self.active.values())

    def ledger(self, trace_id: str) -> Optional[RequestLedger]:
        """Look one ledger up by trace id (active or finished)."""
        with self._lock:
            if trace_id in self.active:
                return self.active[trace_id]
            for ledger in self.finished:
                if ledger.trace_id == trace_id:
                    return ledger
        return None

    def attributed_total(self, fieldname: str) -> float:
        """Exact float sum of one field across every ledger."""
        return math.fsum(getattr(ledger, fieldname)
                         for ledger in self.ledgers)

    def attribution_residual(self, fieldname: str) -> float:
        """Ledger-sum minus mirrored total for one field (0.0 = tiles)."""
        with self._lock:
            total = self.totals.get(fieldname, 0.0)
        return self.attributed_total(fieldname) - total

    def top_requests(self, k: int = 5,
                     key: str = "attributed_bytes") -> List[RequestLedger]:
        """The ``k`` most expensive requests by ``key`` (a ledger attr)."""
        return sorted(self.ledgers,
                      key=lambda led: getattr(led, key) or 0.0,
                      reverse=True)[:k]


# --------------------------------------------------------------------- #
# rendering (shared by tools/trace_report.py and tools/obs_dashboard.py)
# --------------------------------------------------------------------- #
WATERFALL_GLYPHS = {"queue": ".", "prefill": "=", "decode": "#",
                    "stall": "!"}


def render_waterfall(ledgers: Sequence[RequestLedger], width: int = 78,
                     limit: Optional[int] = None) -> str:
    """ASCII per-request waterfall over a shared timeline.

    One row per request: ``.`` queueing, ``=`` prefill, ``#`` decode,
    ``!`` decode-stall, positioned between the earliest arrival and the
    latest finish.  ``limit`` keeps only the slowest requests by latency.
    """
    done = [led for led in ledgers if led.finish_time is not None]
    if not done:
        return "(no finished requests)"
    if limit is not None:
        done = sorted(done, key=lambda led: led.latency_s or 0.0,
                      reverse=True)[:limit]
        done = sorted(done, key=lambda led: led.arrival_time)
    t0 = min(led.arrival_time for led in done)
    t1 = max(led.finish_time for led in done)
    span = max(t1 - t0, 1e-12)
    label_w = max(len(_ledger_label(led)) for led in done) + 2
    bar_w = max(width - label_w, 8)
    scale = bar_w / span
    lines = [f"{'request':<{label_w}}|{'-' * bar_w}|  "
             f"[{WATERFALL_GLYPHS['queue']}=queue "
             f"{WATERFALL_GLYPHS['prefill']}=prefill "
             f"{WATERFALL_GLYPHS['decode']}=decode "
             f"{WATERFALL_GLYPHS['stall']}=stall]"]
    for led in done:
        bar = [" "] * bar_w
        cursor = led.arrival_time
        segments = (("queue", led.queueing_s), ("prefill", led.prefill_s),
                    ("stall", led.decode_stall_s), ("decode", led.decode_s))
        for kind, duration in segments:
            if duration <= 0:
                continue
            lo = int((cursor - t0) * scale)
            cursor += duration
            hi = max(int((cursor - t0) * scale), lo + 1)
            for col in range(lo, min(hi, bar_w)):
                bar[col] = WATERFALL_GLYPHS[kind]
        lines.append(f"{_ledger_label(led):<{label_w}}|{''.join(bar)}| "
                     f"{(led.latency_s or 0.0) * 1e3:8.1f} ms")
    return "\n".join(lines)


def _ledger_label(ledger: RequestLedger) -> str:
    if ledger.request_id is not None:
        return f"req {ledger.request_id}"
    return ledger.trace_id


def render_top_requests(ledgers: Sequence[RequestLedger], k: int = 5,
                        key: str = "attributed_bytes") -> str:
    """Top-``k`` most-expensive-requests table (by ``key``)."""
    from ..bench.report import format_table
    top = sorted(ledgers, key=lambda led: getattr(led, key) or 0.0,
                 reverse=True)[:k]
    rows = []
    for led in top:
        ttft = led.ttft_s
        rows.append([
            _ledger_label(led), led.trace_id, str(led.tokens),
            f"{led.queueing_s * 1e3:.1f}",
            "-" if ttft is None else f"{ttft * 1e3:.1f}",
            f"{led.decode_stall_s * 1e3:.1f}",
            f"{led.attributed_bytes:.0f}",
            f"{led.prefetch_unhidden_bytes:.0f}",
            f"{led.cross_node_dispatch_bytes:.0f}",
        ])
    return format_table(
        ["request", "trace", "tokens", "queue ms", "ttft ms", "stall ms",
         "bytes", "unhidden B", "x-node B"], rows)
