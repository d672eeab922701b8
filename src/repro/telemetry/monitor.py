"""Streaming routing-health monitoring (paper-aligned gauges + anomalies).

The engines and trainers already produce per-step routing counts (and, on
the monitored layer, full gate probabilities).  A
:class:`RoutingHealthMonitor` turns that stream into *live* health signals,
published as gauges in a :class:`~repro.telemetry.Registry`:

``routing.load_imbalance{layer=l}``
    Per-layer hottest/coldest expert frequency ratio — exactly
    :meth:`repro.routing.profiler.LocalityProfile.imbalance_ratio`
    (``inf`` when an expert received no tokens).
``routing.locality_hit_rate``
    Fraction of this step's expert selections served by the master-local
    worker under the active :class:`~repro.placement.base.Placement` —
    the traffic the master-worker runtime does *not* put on the wire.
``routing.gate_entropy`` / ``routing.gate_top1_confidence``
    Normalized mean token entropy and mean top-1 softmax score of the
    monitored layer's gate (needs ``probs``).
``routing.drift_max`` / ``routing.drift_bound`` / ``routing.drift_margin``
    Per-step mean-score drift vs the Theorem-1 softmax-sensitivity bound,
    computed exactly as :meth:`repro.routing.stability.StabilityMonitor.
    report` does (``drift_margin`` < 0 means the bound was violated).

Three threshold detectors latch anomalies — **locality collapse**, **load
spike**, **drift-bound violation** — and emit one structured
:class:`~repro.telemetry.events.MonitorEvent` on entry plus one
``<kind>.recovered`` event on exit, so an event log never repeats an active
condition.  :meth:`begin_run`/:meth:`end_run` bracket a run with a
:class:`~repro.telemetry.events.RunManifest`.

The monitor is threaded through the engines, the trainer, and the decode
engine as an optional ``monitor=`` argument (same contract as PR 3's
``telemetry=``): with the default ``None`` every hot path pays exactly one
attribute check.  All methods are lock-guarded, so a decode thread can feed
the monitor while an HTTP scrape (``repro.telemetry.server``) reads it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..models.moe_block import routing_counts
from ..placement.base import Placement
from ..placement.replication import ReplicatedPlacement
from ..routing.stability import (StabilityMonitor, StabilityReport,
                                 softmax_sensitivity_bound)
from .events import EventLog, MonitorEvent, RunManifest, current_git_rev
from .tracer import Telemetry

ANOMALY_KINDS = ("locality_collapse", "load_spike", "drift_violation")


def load_imbalance(counts: np.ndarray) -> np.ndarray:
    """Per-layer hot/cold expert ratio for a ``(layers, experts)`` matrix.

    Identical math to ``LocalityProfile.imbalance_ratio`` (which divides
    frequencies; frequency ratios equal count ratios): ``max/min`` per
    layer, ``inf`` where the coldest expert received nothing.
    """
    counts = np.asarray(counts, dtype=np.float64)
    high = counts.max(axis=-1)
    low = counts.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(low > 0, high / np.where(low > 0, low, 1.0), np.inf)
    return ratio


def locality_hit_rate(counts: np.ndarray, placement,
                      local_worker: int = 0) -> float:
    """Fraction of expert selections placed on ``local_worker``.

    ``counts`` is a ``(layers, experts)`` selection matrix; ``placement``
    provides the ``assignment`` (layers, experts) worker-id matrix.  Returns
    0.0 for an all-zero step.
    """
    counts = np.asarray(counts, dtype=np.float64)
    assignment = np.asarray(placement.assignment)
    if assignment.shape != counts.shape:
        raise ValueError(f"placement shape {assignment.shape} does not match "
                         f"counts shape {counts.shape}")
    total = counts.sum()
    if total <= 0:
        return 0.0
    local = counts[assignment == local_worker].sum()
    return float(local / total)


@dataclass(frozen=True)
class MonitorThresholds:
    """Anomaly thresholds (defaults never fire — opt into each detector).

    ``min_locality_hit_rate``: below it, **locality_collapse** latches.
    ``max_load_imbalance``: above it (any layer), **load_spike** latches.
    ``drift_slack`` / ``drift_tolerance``: the Theorem-1 check's
    second-order slack and absolute tolerance, matching
    :class:`~repro.routing.stability.StabilityMonitor` — a step whose drift
    exceeds ``bound + tolerance`` latches **drift_violation**.
    """

    min_locality_hit_rate: float = 0.0
    max_load_imbalance: float = math.inf
    drift_slack: float = 2.0
    drift_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_locality_hit_rate <= 1.0:
            raise ValueError("min_locality_hit_rate must be in [0, 1]")
        if self.max_load_imbalance < 1.0:
            raise ValueError("max_load_imbalance must be >= 1")
        if self.drift_tolerance < 0:
            raise ValueError("drift_tolerance must be non-negative")


class RoutingHealthMonitor:
    """Consume per-step routing statistics, publish gauges, latch anomalies.

    Parameters
    ----------
    telemetry:
        Registry sink for the gauges; a private :class:`Telemetry` is
        created when omitted (so a monitor is usable standalone and
        exportable via ``prometheus_text``).
    placement:
        Active expert placement; enables ``routing.locality_hit_rate`` and
        the locality-collapse detector.  ``local_worker`` names the worker
        whose traffic is loopback (the master's, worker 0, by default).
    monitored_layer:
        Which layer's ``probs`` feed the gate/drift gauges (the trainer's
        ``FineTuneConfig.monitored_layer`` counterpart).
    lr:
        Learning rate passed to the internal
        :class:`~repro.routing.stability.StabilityMonitor`.
    event_log:
        Structured event sink; an in-memory :class:`EventLog` is created
        when omitted.  Pass ``EventLog(path)`` for a durable JSONL stream.
    manifest_path:
        When set, :meth:`begin_run`/:meth:`end_run` write the
        :class:`RunManifest` there (begin writes ``status="running"``, end
        overwrites with the final document).
    """

    def __init__(self, telemetry: Optional[Telemetry] = None,
                 placement=None, local_worker: int = 0,
                 monitored_layer: int = 0, lr: float = 3e-5,
                 thresholds: Optional[MonitorThresholds] = None,
                 event_log: Optional[EventLog] = None,
                 manifest_path: Optional[str] = None):
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.placement = placement
        self.local_worker = local_worker
        self.monitored_layer = monitored_layer
        self.thresholds = thresholds or MonitorThresholds()
        self.event_log = event_log if event_log is not None else EventLog()
        self.manifest_path = manifest_path
        self.manifest: Optional[RunManifest] = None
        self.stability = StabilityMonitor(
            lr=lr, second_order_slack=self.thresholds.drift_slack)
        self.steps_observed = 0
        self._lock = threading.RLock()
        self._active: Dict[str, MonitorEvent] = {}
        self._prev_means: Optional[np.ndarray] = None
        self._listeners: List = []

    # ------------------------------------------------------------------ #
    # health state
    # ------------------------------------------------------------------ #
    @property
    def healthy(self) -> bool:
        """True while no anomaly is latched unrecovered."""
        with self._lock:
            return not self._active

    @property
    def active_anomalies(self) -> List[MonitorEvent]:
        """The currently latched anomaly events (entry order)."""
        with self._lock:
            return list(self._active.values())

    @property
    def events(self) -> List[MonitorEvent]:
        """Every event emitted so far (anomalies, recoveries, lifecycle)."""
        return list(self.event_log.events)

    def swap_placement(self, placement) -> None:
        """Hot-swap the placement the locality gauges are computed against.

        The online re-placement hook
        (:class:`~repro.placement.replan.ReplacementController` calls it
        after applying a migration): subsequent steps score locality and
        collapse detection against the new assignment.  A latched
        ``locality_collapse`` stays latched until a post-swap step
        actually clears the threshold — recovery is measured, not
        assumed.

        The placement is checked at the call, since the re-placement
        controller swaps the monitor directly: anything but a
        :class:`~repro.placement.base.Placement` or a
        :class:`~repro.placement.replication.ReplicatedPlacement` raises
        ``TypeError``, an assignment shape other than the held placement's
        ``ValueError``, and the held placement is left as it was.
        """
        if not isinstance(placement, (Placement, ReplicatedPlacement)):
            raise TypeError(f"placement must be a Placement or a "
                            f"ReplicatedPlacement, got "
                            f"{type(placement).__name__}")
        with self._lock:
            if self.placement is not None:
                shape = np.shape(placement.assignment)
                held = np.shape(self.placement.assignment)
                if shape != held:
                    raise ValueError(f"placement shape {shape} does not "
                                     f"match the held placement's {held}")
            self.placement = placement

    def add_listener(self, listener) -> None:
        """Register a per-step callback ``listener(counts, step, events)``.

        Called after every :meth:`observe_step` with the step's
        ``(layers, experts)`` counts, its step index, and the events the
        step emitted — outside the monitor's lock, so a listener may call
        back into the monitor (or run a placement re-solve) freely.
        """
        with self._lock:
            self._listeners.append(listener)

    def stability_report(self) -> Optional[StabilityReport]:
        """The Theorem-1 report over observed steps (None before 2 steps)."""
        with self._lock:
            if len(self.stability._mean_probs) < 2:
                return None
            return self.stability.report()

    # ------------------------------------------------------------------ #
    # event plumbing
    # ------------------------------------------------------------------ #
    def _emit(self, kind: str, severity: str, step: Optional[int],
              message: str, **labels: Any) -> MonitorEvent:
        event = MonitorEvent(kind=kind, severity=severity, step=step,
                             message=message, time_unix=time.time(),
                             labels=labels)
        self.event_log.emit(event)
        return event

    def _latch(self, kind: str, firing: bool, step: Optional[int],
               message: str, emitted: List[MonitorEvent],
               **labels: Any) -> None:
        """Fire ``kind`` once on entry, ``<kind>.recovered`` once on exit."""
        if firing and kind not in self._active:
            event = self._emit(kind, "critical", step, message, **labels)
            self._active[kind] = event
            self.telemetry.counter("monitor.anomalies", kind=kind).add(1.0)
            emitted.append(event)
        elif not firing and kind in self._active:
            del self._active[kind]
            emitted.append(self._emit(f"{kind}.recovered", "info", step,
                                      f"{kind} cleared", **labels))

    # ------------------------------------------------------------------ #
    # observation
    # ------------------------------------------------------------------ #
    def observe_step(self, counts: np.ndarray, step: Optional[int] = None,
                     probs: Optional[np.ndarray] = None) -> List[MonitorEvent]:
        """Digest one step's routing statistics.

        ``counts`` is the ``(layers, experts)`` selection matrix;
        ``probs``, when available, is the monitored layer's full
        ``(tokens, experts)`` softmax matrix.  Returns the events emitted
        *by this call* (empty on a healthy step).
        """
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError(f"expected (layers, experts) counts, "
                             f"got shape {counts.shape}")
        with self._lock:
            telemetry = self.telemetry
            emitted: List[MonitorEvent] = []
            if step is None:
                step = self.steps_observed
            self.steps_observed += 1
            telemetry.counter("monitor.steps").add(1.0)

            ratios = load_imbalance(counts)
            for layer, ratio in enumerate(ratios):
                telemetry.gauge("routing.load_imbalance",
                                layer=layer).set(float(ratio))
            worst_layer = int(np.argmax(ratios))
            worst = float(ratios[worst_layer])
            telemetry.gauge("routing.load_imbalance_max").set(worst)
            self._latch("load_spike",
                        worst > self.thresholds.max_load_imbalance, step,
                        f"layer {worst_layer} load-imbalance ratio {worst:.4g}"
                        f" exceeds {self.thresholds.max_load_imbalance:.4g}",
                        emitted, layer=worst_layer, ratio=worst,
                        threshold=self.thresholds.max_load_imbalance)

            if self.placement is not None:
                hit_rate = locality_hit_rate(counts, self.placement,
                                             self.local_worker)
                telemetry.gauge("routing.locality_hit_rate").set(hit_rate)
                self._latch(
                    "locality_collapse",
                    hit_rate < self.thresholds.min_locality_hit_rate, step,
                    f"locality hit-rate {hit_rate:.4g} fell below "
                    f"{self.thresholds.min_locality_hit_rate:.4g}",
                    emitted, hit_rate=hit_rate,
                    threshold=self.thresholds.min_locality_hit_rate)

            if probs is not None:
                self._observe_probs(np.asarray(probs, dtype=np.float64),
                                    counts, step, emitted)
            listeners = list(self._listeners)
        # Listeners run outside the lock: a re-placement controller may
        # solve an LP and swap the placement back in without deadlocking
        # a concurrent scrape thread.
        for listener in listeners:
            listener(counts, step, emitted)
        return emitted

    def _observe_probs(self, probs: np.ndarray, counts: np.ndarray,
                       step: int, emitted: List[MonitorEvent]) -> None:
        """Gate-quality gauges plus the incremental Theorem-1 drift check."""
        telemetry = self.telemetry
        experts = probs.shape[-1]
        safe = np.clip(probs, 1e-12, None)
        entropy = float(-(safe * np.log(safe)).sum(axis=-1).mean()
                        / math.log(experts)) if experts > 1 else 0.0
        telemetry.gauge("routing.gate_entropy").set(entropy)
        telemetry.gauge("routing.gate_top1_confidence").set(
            float(probs.max(axis=-1).mean()))

        layer = self.monitored_layer
        layer_counts = counts[layer] if layer < counts.shape[0] else counts[0]
        total = int(layer_counts.sum())
        self.stability.observe(probs, layer_counts, max(total, 1))

        # Same pairwise arithmetic as StabilityMonitor.report(): drift of
        # clipped mean scores vs the softmax-sensitivity bound at measured
        # |Δ log P|, plus the second-order slack.
        means = np.clip(probs.mean(axis=0), 1e-12, None)
        prev = self._prev_means
        self._prev_means = means
        if prev is None:
            return
        drift = np.abs(means - prev)
        delta_y = float(np.abs(np.log(means) - np.log(prev)).max())
        bound = softmax_sensitivity_bound(prev, delta_y) \
            + self.thresholds.drift_slack * delta_y ** 2
        margin = bound - drift
        telemetry.gauge("routing.drift_max").set(float(drift.max()))
        telemetry.gauge("routing.drift_bound").set(float(bound.max()))
        telemetry.gauge("routing.drift_margin").set(float(margin.min()))
        over = drift > bound + self.thresholds.drift_tolerance
        firing = bool(over.any())
        expert = int(np.argmax(drift - bound))
        self._latch("drift_violation", firing, step,
                    f"expert {expert} drift {float(drift[expert]):.4g} "
                    f"exceeds Theorem-1 bound {float(bound[expert]):.4g}",
                    emitted, expert=expert, drift=float(drift[expert]),
                    bound=float(bound[expert]), delta_y=delta_y)

    def observe_records(self, records: Sequence, step: Optional[int] = None,
                        num_experts: Optional[int] = None
                        ) -> List[MonitorEvent]:
        """Digest one step's :class:`BlockRoutingRecord` list.

        Builds the ``(layers, experts)`` count matrix with
        :func:`~repro.models.moe_block.routing_counts` and pulls the
        monitored layer's probability matrix when the model recorded one.
        ``num_experts`` is inferred from the placement or the recorded
        probabilities when omitted.
        """
        records = list(records)
        if not records:
            return []
        if num_experts is None:
            if self.placement is not None:
                num_experts = int(np.asarray(
                    self.placement.assignment).shape[1])
            else:
                for record in records:
                    if record.probs is not None:
                        num_experts = record.probs.shape[-1]
                        break
        if num_experts is None:
            raise ValueError("num_experts is required when no placement is "
                             "set and no record carries probabilities")
        counts = routing_counts(records, num_experts)
        probs = None
        if self.monitored_layer < len(records):
            probs = records[self.monitored_layer].probs
        return self.observe_step(counts, step=step, probs=probs)

    # ------------------------------------------------------------------ #
    # run lifecycle
    # ------------------------------------------------------------------ #
    def begin_run(self, config: Optional[Dict[str, Any]] = None,
                  seed: Optional[int] = None, run_id: Optional[str] = None,
                  git_rev: Optional[str] = None) -> RunManifest:
        """Open a run manifest and emit the ``run_start`` event."""
        with self._lock:
            if git_rev is None:
                git_rev = current_git_rev()
            self.manifest = RunManifest(run_id=run_id or "",
                                        config=dict(config or {}), seed=seed,
                                        git_rev=git_rev, status="running")
            if self.manifest_path is not None:
                self.manifest.save(self.manifest_path)
            self._emit("run_start", "info", None,
                       f"run {self.manifest.run_id} started",
                       run_id=self.manifest.run_id)
            return self.manifest

    def end_run(self, final_metrics: Optional[Dict[str, Any]] = None,
                status: str = "completed") -> RunManifest:
        """Close the manifest (stability report included) + ``run_end``."""
        with self._lock:
            if self.manifest is None:
                self.manifest = RunManifest(status="running")
            self.manifest.status = status
            self.manifest.ended_unix = time.time()
            metrics = dict(final_metrics or {})
            metrics.setdefault("steps_observed", self.steps_observed)
            metrics.setdefault("anomalies_total", sum(
                1 for e in self.event_log.events
                if e.kind in ANOMALY_KINDS))
        report = self.stability_report()
        with self._lock:
            if report is not None:
                metrics["stability"] = report.to_dict()
            self.manifest.final_metrics = metrics
            if self.manifest_path is not None:
                self.manifest.save(self.manifest_path)
            self._emit("run_end", "info", None,
                       f"run {self.manifest.run_id} {status}",
                       run_id=self.manifest.run_id, status=status)
            return self.manifest
