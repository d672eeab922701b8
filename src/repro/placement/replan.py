"""Online re-placement: closing the loop from anomaly to migration.

The offline pipeline (:mod:`repro.placement.lp` -> rounding ->
:mod:`repro.placement.local_search` -> :mod:`repro.placement.replication`)
solves placement once, before fine-tuning, against the profiling pass.  The
PR-5 :class:`~repro.telemetry.monitor.RoutingHealthMonitor` *detects* when
that placement goes stale (locality collapse, load spikes) but nothing acts
on it.  This module is the actuator:

* :class:`RoutingWindow` — a thread-safe sliding window of recent per-step
  ``(layers, experts)`` routing counts, the online replacement for the
  offline profiling pass.
* :func:`plan_migration` / :class:`MigrationPlan` — the diff between two
  placements as explicit expert moves plus replica adds/drops, with byte
  accounting per receiving worker.  A move whose destination already held a
  copy (an old replica promoted to primary) ships nothing.
* :class:`BreakEvenReport` — migration bytes vs. projected cross-node
  savings over a horizon; the ``min_benefit_ratio`` knob declines
  unprofitable migrations.
* :class:`ReplacementController` — watches the count stream (fed directly
  or by listening to a monitor), re-solves placement against the window on
  a latched anomaly (or a fixed interval), prices the migration through
  :class:`~repro.comm.cost.CommCostModel`, and — when profitable — hot-swaps
  the new :class:`~repro.placement.base.Placement` into every registered
  target (:class:`~repro.runtime.broker.ExpertBroker`, the live serving
  engines, the monitor itself) without stopping decode.

Every decision is observable: ``replacement_started`` /
``replacement_applied`` / ``replacement_skipped`` events land in the event
log, and ``placement.migration_bytes`` / ``placement.saved_bytes_per_step``
gauges track the latest plan.  See ``docs/PLACEMENT.md`` for the full loop
and ``docs/OBSERVABILITY.md`` for the event schema.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.topology import ClusterTopology
from ..comm.cost import CommCostModel
from ..models.config import MoEModelConfig
from ..telemetry.events import EventLog, MonitorEvent
from ..telemetry.tracer import Telemetry
from .base import Placement, PlacementProblem
from .local_search import LocalSearchRefiner
from .lp import problem_from_window
from .replication import ReplicatedPlacement

TRIGGER_POLICIES = ("anomaly", "interval", "manual")

REPLACEMENT_EVENT_KINDS = ("replacement_started", "replacement_applied",
                           "replacement_skipped")


class RoutingWindow:
    """Sliding window over recent per-step routing count matrices.

    Thread-safe: a decode thread can :meth:`observe` while a background
    re-solve reads :meth:`total`.  The window is the online stand-in for
    the paper's profiling pass — its summed counts, normalized, are a
    locality profile measured on *recent* traffic instead of
    pre-fine-tuning traffic.
    """

    def __init__(self, maxlen: int = 32):
        if maxlen < 1:
            raise ValueError("maxlen must be positive")
        self.maxlen = maxlen
        self._steps: deque = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._steps)

    def observe(self, counts: np.ndarray) -> None:
        """Append one step's ``(layers, experts)`` count matrix."""
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 2:
            raise ValueError(f"expected (layers, experts) counts, "
                             f"got shape {counts.shape}")
        with self._lock:
            self._steps.append(counts.copy())

    def clear(self) -> None:
        """Drop every buffered step."""
        with self._lock:
            self._steps.clear()

    def total(self) -> np.ndarray:
        """Summed counts over the window (``(layers, experts)``)."""
        with self._lock:
            if not self._steps:
                raise ValueError("window is empty")
            return np.sum(self._steps, axis=0)

    def mean(self) -> np.ndarray:
        """Per-step mean counts over the window."""
        with self._lock:
            if not self._steps:
                raise ValueError("window is empty")
            return np.mean(self._steps, axis=0)

    def probability_matrix(self, top_k: int) -> np.ndarray:
        """Windowed locality profile: rows normalized to sum to ``top_k``.

        Matches the :meth:`repro.routing.trace.RoutingTrace.
        probability_matrix` convention the placement LP consumes.  A layer
        that routed no tokens in the window falls back to uniform.
        """
        total = self.total()
        row_mass = total.sum(axis=1, keepdims=True)
        experts = total.shape[1]
        uniform = np.full_like(total, 1.0 / experts)
        with np.errstate(invalid="ignore", divide="ignore"):
            profile = np.where(row_mass > 0, total / np.where(
                row_mass > 0, row_mass, 1.0), uniform)
        return profile * top_k


# --------------------------------------------------------------------- #
# migration plans
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExpertMove:
    """One expert changing primary worker."""

    layer: int
    expert: int
    src: int
    dst: int


def _primary_of(placement) -> Placement:
    """The primary :class:`Placement` of a plain or replicated placement."""
    if isinstance(placement, ReplicatedPlacement):
        return placement.primary
    return placement


def _replicas_of(placement) -> Dict[Tuple[int, int], List[int]]:
    if isinstance(placement, ReplicatedPlacement):
        return {k: list(v) for k, v in placement.replicas.items()}
    return {}


@dataclass(frozen=True)
class MigrationPlan:
    """The transfer schedule realizing a placement change.

    ``moves`` are primary re-assignments; ``replica_adds`` /
    ``replica_drops`` are ``(layer, expert, worker)`` triples.  Byte
    accounting charges ``expert_bytes`` to each *receiving* worker for
    every copy it does not already hold (drops are free — deleting a
    local copy moves nothing).
    """

    moves: Tuple[ExpertMove, ...]
    replica_adds: Tuple[Tuple[int, int, int], ...]
    replica_drops: Tuple[Tuple[int, int, int], ...]
    expert_bytes: float
    num_workers: int
    # (layer, expert, dst) moves whose destination already held a copy
    # under the old placement — promoted in place, nothing shipped.
    free_moves: Tuple[ExpertMove, ...] = ()

    @property
    def num_transfers(self) -> int:
        """Expert copies that actually cross the wire."""
        return len(self.moves) + len(self.replica_adds)

    @property
    def is_empty(self) -> bool:
        """True when the plan changes nothing (including drops)."""
        return not (self.moves or self.free_moves or self.replica_adds
                    or self.replica_drops)

    def bytes_per_worker(self) -> np.ndarray:
        """Bytes each worker must *receive* to realize the plan."""
        incoming = np.zeros(self.num_workers)
        for move in self.moves:
            incoming[move.dst] += self.expert_bytes
        for _, _, worker in self.replica_adds:
            incoming[worker] += self.expert_bytes
        return incoming

    @property
    def total_bytes(self) -> float:
        """Total bytes shipped across the cluster."""
        return float(self.bytes_per_worker().sum())

    def cross_node_bytes(self, topology: ClusterTopology) -> float:
        """Bytes that cross node boundaries (master holds the checkpoint)."""
        incoming = self.bytes_per_worker()
        total = 0.0
        for worker in range(min(self.num_workers, topology.num_workers)):
            if topology.is_cross_node_from_master(worker):
                total += incoming[worker]
        return float(total)

    def transfer_time(self, cost_model: CommCostModel) -> float:
        """Seconds to land the plan, priced by the comm bandwidth model."""
        return cost_model.migration_time(self.bytes_per_worker())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (counts and bytes, not the full move list)."""
        return {"experts_moved": len(self.moves),
                "free_moves": len(self.free_moves),
                "replica_adds": len(self.replica_adds),
                "replica_drops": len(self.replica_drops),
                "total_bytes": self.total_bytes}


def plan_migration(old, new, config: MoEModelConfig,
                   num_workers: Optional[int] = None,
                   expert_bytes: Optional[float] = None) -> MigrationPlan:
    """Diff two placements into a :class:`MigrationPlan`.

    ``old`` and ``new`` may each be a :class:`~repro.placement.base.
    Placement` or a :class:`~repro.placement.replication.
    ReplicatedPlacement`; replica sets default to empty for plain
    placements.  ``expert_bytes`` defaults to the model's fp16 expert
    footprint (``config.expert_nbytes()``) — frozen weights plus adapter
    state travel together.
    """
    old_primary, new_primary = _primary_of(old), _primary_of(new)
    if old_primary.assignment.shape != new_primary.assignment.shape:
        raise ValueError("placement shapes differ")
    if expert_bytes is None:
        expert_bytes = float(config.expert_nbytes())
    if num_workers is None:
        num_workers = max(int(old_primary.assignment.max()),
                          int(new_primary.assignment.max())) + 1

    old_replicas = _replicas_of(old)
    new_replicas = _replicas_of(new)

    def old_holders(layer: int, expert: int) -> set:
        holders = {old_primary.worker_of(layer, expert)}
        holders.update(old_replicas.get((layer, expert), ()))
        return holders

    moves: List[ExpertMove] = []
    free_moves: List[ExpertMove] = []
    changed = np.argwhere(old_primary.assignment != new_primary.assignment)
    for layer, expert in changed:
        layer, expert = int(layer), int(expert)
        move = ExpertMove(layer=layer, expert=expert,
                          src=old_primary.worker_of(layer, expert),
                          dst=new_primary.worker_of(layer, expert))
        if move.dst in old_holders(layer, expert):
            free_moves.append(move)
        else:
            moves.append(move)

    adds: List[Tuple[int, int, int]] = []
    drops: List[Tuple[int, int, int]] = []
    for key in sorted(set(old_replicas) | set(new_replicas)):
        layer, expert = key
        before = set(old_replicas.get(key, ()))
        after = set(new_replicas.get(key, ()))
        for worker in sorted(after - before):
            if worker not in old_holders(layer, expert):
                adds.append((layer, expert, worker))
        for worker in sorted(before - after):
            drops.append((layer, expert, worker))

    return MigrationPlan(moves=tuple(moves), free_moves=tuple(free_moves),
                         replica_adds=tuple(adds),
                         replica_drops=tuple(drops),
                         expert_bytes=expert_bytes,
                         num_workers=int(num_workers))


# --------------------------------------------------------------------- #
# break-even analysis
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BreakEvenReport:
    """Migration cost vs. projected cross-node savings.

    ``migration_bytes`` counts only bytes the migration itself puts on
    cross-node wires; ``old_bytes_per_step`` / ``new_bytes_per_step`` are
    the projected cross-node traffic of one step under each placement,
    evaluated on the routing window the re-solve used.
    """

    migration_bytes: float
    migration_time_s: float
    old_bytes_per_step: float
    new_bytes_per_step: float
    horizon_steps: int
    min_benefit_ratio: float = 1.0

    @property
    def saved_bytes_per_step(self) -> float:
        """Projected cross-node bytes saved per step (can be negative)."""
        return self.old_bytes_per_step - self.new_bytes_per_step

    @property
    def break_even_steps(self) -> float:
        """Steps until savings repay the migration (``inf`` if never)."""
        saved = self.saved_bytes_per_step
        if saved <= 0:
            return math.inf
        return self.migration_bytes / saved

    @property
    def projected_saved_bytes(self) -> float:
        """Savings over the full horizon."""
        return self.saved_bytes_per_step * self.horizon_steps

    @property
    def benefit_ratio(self) -> float:
        """Horizon savings over migration bytes (``inf`` for a free plan)."""
        if self.saved_bytes_per_step <= 0:
            return 0.0
        if self.migration_bytes <= 0:
            return math.inf
        return self.projected_saved_bytes / self.migration_bytes

    @property
    def profitable(self) -> bool:
        """True when the benefit ratio clears ``min_benefit_ratio``."""
        return self.benefit_ratio >= self.min_benefit_ratio

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary."""
        ratio = self.benefit_ratio
        steps = self.break_even_steps
        return {"migration_bytes": self.migration_bytes,
                "migration_time_s": self.migration_time_s,
                "old_bytes_per_step": self.old_bytes_per_step,
                "new_bytes_per_step": self.new_bytes_per_step,
                "saved_bytes_per_step": self.saved_bytes_per_step,
                "horizon_steps": self.horizon_steps,
                "break_even_steps": None if math.isinf(steps) else steps,
                "benefit_ratio": None if math.isinf(ratio) else ratio,
                "min_benefit_ratio": self.min_benefit_ratio,
                "profitable": self.profitable}


# --------------------------------------------------------------------- #
# controller
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReplanConfig:
    """Knobs of the online re-placement loop (see ``docs/API.md``).

    ``trigger`` selects when a re-solve starts: ``"anomaly"`` (the
    attached monitor has a latched anomaly), ``"interval"`` (every
    ``interval`` observed steps), or ``"manual"``
    (:meth:`ReplacementController.request_replan` only).

    Every re-solve hill-climbs from the *current* placement, so only
    experts whose move actually lowers the objective travel, and cuts the
    climb at its most profitable prefix.
    """

    window_size: int = 32
    min_window_steps: int = 8
    trigger: str = "anomaly"
    interval: int = 20
    cooldown_steps: int = 20
    min_benefit_ratio: float = 1.0
    horizon_steps: int = 100
    background: bool = False

    def __post_init__(self) -> None:
        if self.trigger not in TRIGGER_POLICIES:
            raise ValueError(f"trigger must be one of {TRIGGER_POLICIES}, "
                             f"got {self.trigger!r}")
        if self.window_size < 1:
            raise ValueError("window_size must be positive")
        if not 1 <= self.min_window_steps <= self.window_size:
            raise ValueError("min_window_steps must be in "
                             "[1, window_size]")
        if self.interval < 1:
            raise ValueError("interval must be positive")
        if self.cooldown_steps < 0:
            raise ValueError("cooldown_steps must be non-negative")
        if self.min_benefit_ratio < 0:
            raise ValueError("min_benefit_ratio must be non-negative")
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be positive")


@dataclass
class ReplanDecision:
    """One completed re-solve: what was planned and what happened.

    ``outcome`` is ``"applied"`` or ``"skipped"``; ``reason`` explains a
    skip (``"no_change"`` | ``"unprofitable"``).
    """

    step: int
    outcome: str
    reason: str = ""
    plan: Optional[MigrationPlan] = None
    report: Optional[BreakEvenReport] = None
    placement: Optional[Placement] = None


class ReplacementController:
    """Re-solve placement online and hot-swap it into the runtime.

    Parameters
    ----------
    config:
        The MoE model config (supplies shapes and expert footprints).
    topology:
        The cluster; prices both steady-state traffic and the migration.
    placement:
        The currently active placement (the controller's swap baseline).
    tokens_per_step:
        ``K`` for the re-solved :class:`~repro.placement.base.
        PlacementProblem`.
    capacities:
        Per-worker expert capacities for the re-solve (None =
        unconstrained, which collapses everything onto the fastest link —
        pass real capacities for meaningful plans).
    replan:
        The :class:`ReplanConfig` knob bundle.
    monitor:
        Optional :class:`~repro.telemetry.monitor.RoutingHealthMonitor`.
        When given, the controller registers itself as a step listener
        (every ``observe_step`` on the monitor feeds the window) and the
        ``"anomaly"`` trigger reads its latched state.  The monitor's
        telemetry registry and event log become the default sinks.
    targets:
        Objects exposing ``swap_placement(placement)`` — brokers, live
        engines, extra monitors.  The attached ``monitor`` is swapped
        automatically; don't list it again.

    Thread model: with ``replan.background=True`` the solve runs on a
    daemon thread and the swap happens whenever it finishes (engines
    apply it at their next iteration boundary); the default synchronous
    mode solves inline, which keeps replays deterministic.
    """

    def __init__(self, config: MoEModelConfig, topology: ClusterTopology,
                 placement, tokens_per_step: int = 4096,
                 capacities: Optional[Sequence[int]] = None,
                 replan: Optional[ReplanConfig] = None,
                 monitor=None, telemetry: Optional[Telemetry] = None,
                 event_log: Optional[EventLog] = None,
                 targets: Sequence = ()):
        self.config = config
        self.topology = topology
        self.placement = placement
        self.tokens_per_step = int(tokens_per_step)
        self.capacities = None if capacities is None \
            else [int(c) for c in capacities]
        self.replan = replan or ReplanConfig()
        self.monitor = monitor
        if telemetry is not None:
            self.telemetry = telemetry
        elif monitor is not None:
            self.telemetry = monitor.telemetry
        else:
            self.telemetry = Telemetry()
        if event_log is not None:
            self.event_log = event_log
        elif monitor is not None:
            self.event_log = monitor.event_log
        else:
            self.event_log = EventLog()
        self.targets = list(targets)
        self.refiner = LocalSearchRefiner()
        self.cost_model = CommCostModel(config, topology)
        self.window = RoutingWindow(self.replan.window_size)
        self.history: List[ReplanDecision] = []
        self.steps_observed = 0
        self._last_attempt_step: Optional[int] = None
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        if monitor is not None:
            monitor.add_listener(self._on_monitor_step)

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def add_target(self, target) -> None:
        """Register another ``swap_placement``-capable object."""
        with self._lock:
            self.targets.append(target)

    def _on_monitor_step(self, counts: np.ndarray, step: Optional[int],
                         events) -> None:
        # A freshly latched anomaly means the traffic regime just broke:
        # every buffered pre-anomaly step describes the old regime, so
        # keep only what comes after (min_window_steps then delays the
        # re-solve until the window is entirely post-break).
        from ..telemetry.monitor import ANOMALY_KINDS
        if any(event.kind in ANOMALY_KINDS for event in events):
            self.window.clear()
        self.observe_step(counts, step=step)

    @property
    def busy(self) -> bool:
        """True while a background re-solve is in flight."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for an in-flight background re-solve to finish."""
        thread = self._thread
        if thread is not None:
            thread.join(timeout)

    # ------------------------------------------------------------------ #
    # observation + triggers
    # ------------------------------------------------------------------ #
    def observe_step(self, counts: np.ndarray,
                     step: Optional[int] = None
                     ) -> Optional[ReplanDecision]:
        """Feed one step's routing counts; maybe trigger a re-solve.

        Returns the :class:`ReplanDecision` when a synchronous re-solve
        ran on this call, else None (including when a background solve
        was merely started).
        """
        self.window.observe(counts)
        with self._lock:
            if step is None:
                step = self.steps_observed
            self.steps_observed = max(self.steps_observed, step + 1)
        if not self._should_trigger(step):
            return None
        return self.request_replan(step=step)

    def _should_trigger(self, step: int) -> bool:
        replan = self.replan
        if replan.trigger == "manual" or self.busy:
            return False
        if len(self.window) < replan.min_window_steps:
            return False
        last = self._last_attempt_step
        if last is not None and step - last < replan.cooldown_steps:
            return False
        if replan.trigger == "anomaly":
            return self.monitor is not None and not self.monitor.healthy
        return (step + 1) % replan.interval == 0

    def request_replan(self, step: Optional[int] = None,
                       horizon_steps: Optional[int] = None
                       ) -> Optional[ReplanDecision]:
        """Start a re-solve now (any trigger policy).

        ``horizon_steps`` overrides the config's projection horizon —
        e.g. the steps remaining in a bounded replay.  Synchronous mode
        returns the decision; background mode returns None immediately.
        """
        if step is None:
            step = self.steps_observed - 1
        if horizon_steps is None:
            horizon_steps = self.replan.horizon_steps
        with self._lock:
            self._last_attempt_step = step
        self._emit("replacement_started", "info", step,
                   f"re-solving placement over a {len(self.window)}-step "
                   f"window", trigger=self.replan.trigger,
                   window_steps=len(self.window))
        if self.replan.background:
            thread = threading.Thread(target=self._replan,
                                      args=(step, horizon_steps),
                                      name="replan", daemon=True)
            self._thread = thread
            thread.start()
            return None
        return self._replan(step, horizon_steps)

    # ------------------------------------------------------------------ #
    # the re-solve itself
    # ------------------------------------------------------------------ #
    def _replan(self, step: int, horizon_steps: int) -> ReplanDecision:
        problem = problem_from_window(
            self.config, self.topology, self.window,
            tokens_per_step=self.tokens_per_step,
            capacities=self.capacities)
        # Incremental: hill-climb from the active placement, then cut the
        # climb at the profit-maximizing prefix — later actions chase
        # ever-smaller traffic savings that no longer repay an expert
        # transfer within the horizon.
        base = _primary_of(self.placement)
        refinement = self.refiner.refine(base, problem)
        candidate = self._truncate_to_profit(
            base, refinement.actions, problem, horizon_steps)

        plan = plan_migration(self.placement, candidate, self.config,
                              num_workers=self.topology.num_workers)
        report = self._break_even(plan, candidate, horizon_steps)
        self.telemetry.gauge("placement.migration_bytes").set(
            plan.total_bytes)
        self.telemetry.gauge("placement.saved_bytes_per_step").set(
            report.saved_bytes_per_step)

        if plan.is_empty:
            decision = ReplanDecision(step=step, outcome="skipped",
                                      reason="no_change", plan=plan,
                                      report=report)
            self._emit("replacement_skipped", "info", step,
                       "re-solve reproduced the active placement",
                       reason="no_change", **report.to_dict())
        elif not report.profitable:
            decision = ReplanDecision(step=step, outcome="skipped",
                                      reason="unprofitable", plan=plan,
                                      report=report)
            self._emit("replacement_skipped", "warning", step,
                       f"migration of {plan.total_bytes:.3g} B not repaid "
                       f"within {horizon_steps} steps "
                       f"(benefit ratio {report.benefit_ratio:.3g} < "
                       f"{self.replan.min_benefit_ratio:.3g})",
                       reason="unprofitable", **report.to_dict())
        else:
            self._apply(candidate)
            decision = ReplanDecision(step=step, outcome="applied",
                                      plan=plan, report=report,
                                      placement=candidate)
            self._emit("replacement_applied", "info", step,
                       f"migrated {plan.num_transfers} experts "
                       f"({plan.total_bytes:.3g} B), projected saving "
                       f"{report.saved_bytes_per_step:.3g} B/step",
                       **plan.to_dict(), **report.to_dict())
        self.telemetry.counter("placement.replacements",
                               outcome=decision.outcome).add(1.0)
        with self._lock:
            self.history.append(decision)
        return decision

    def _truncate_to_profit(self, base: Placement, actions: Sequence[Tuple],
                            problem: PlacementProblem,
                            horizon_steps: int) -> Placement:
        """Apply the prefix of ``actions`` maximizing projected profit.

        Profit of a prefix = ``horizon * cross-node bytes saved per step
        - min_benefit_ratio * cross-node migration bytes``, evaluated on
        the window's mean step — the same arithmetic
        :class:`BreakEvenReport` applies to the final plan, so the chosen
        prefix is the one the decline rule scores best.  Each action
        updates the running totals in O(1).
        """
        if not actions:
            return base
        mean_counts = self.window.mean()
        topology = self.topology
        num_workers = topology.num_workers
        is_cross = np.array([topology.is_cross_node_from_master(w)
                             for w in range(num_workers)])
        per_step_scale = 4 * self.config.token_feature_nbytes()
        expert_bytes = float(self.config.expert_nbytes())
        min_ratio = self.replan.min_benefit_ratio

        assignment = base.assignment.copy()
        original = base.assignment
        cross_tokens = float(sum(
            np.bincount(assignment[layer], weights=mean_counts[layer],
                        minlength=num_workers)[is_cross].sum()
            for layer in range(assignment.shape[0])))
        base_cross_tokens = cross_tokens
        # migration cost of the prefix: one expert_bytes per expert whose
        # current seat differs from its original one, charged when the
        # *destination* is cross-node from the master (the checkpoint).
        migration_cross = 0.0

        def reseat(layer: int, expert: int, src: int, dst: int) -> float:
            nonlocal cross_tokens
            count = float(mean_counts[layer, expert])
            if is_cross[src]:
                cross_tokens -= count
            if is_cross[dst]:
                cross_tokens += count
            home = int(original[layer, expert])
            before = assignment[layer, expert]
            delta = 0.0
            if before != home and is_cross[before]:
                delta -= expert_bytes
            if dst != home and is_cross[dst]:
                delta += expert_bytes
            assignment[layer, expert] = dst
            return delta

        best_profit = -math.inf
        best_k = 0
        for k, action in enumerate(actions, start=1):
            if action[0] == "move":
                _, layer, expert, src, dst = action
                migration_cross += reseat(layer, expert, src, dst)
            else:
                _, layer, expert, src, expert2, dst = action
                migration_cross += reseat(layer, expert, src, dst)
                migration_cross += reseat(layer, expert2, dst, src)
            saved = (base_cross_tokens - cross_tokens) * per_step_scale
            profit = horizon_steps * saved - min_ratio * migration_cross
            if profit > best_profit:
                best_profit = profit
                best_k = k

        assignment = original.copy()
        for action in actions[:best_k]:
            if action[0] == "move":
                _, layer, expert, src, dst = action
                assignment[layer, expert] = dst
            else:
                _, layer, expert, src, expert2, dst = action
                assignment[layer, expert] = dst
                assignment[layer, expert2] = src
        return Placement(assignment,
                         capacities=problem.effective_capacities(),
                         name=f"{base.name}+replan")

    def _break_even(self, plan: MigrationPlan, candidate,
                    horizon_steps: int) -> BreakEvenReport:
        mean_counts = self.window.mean()
        num_workers = self.topology.num_workers
        old_tokens = self.placement.tokens_per_worker(mean_counts,
                                                      num_workers)
        new_tokens = candidate.tokens_per_worker(mean_counts, num_workers)
        return BreakEvenReport(
            migration_bytes=plan.cross_node_bytes(self.topology),
            migration_time_s=plan.transfer_time(self.cost_model),
            old_bytes_per_step=self.cost_model.cross_node_bytes(old_tokens),
            new_bytes_per_step=self.cost_model.cross_node_bytes(new_tokens),
            horizon_steps=horizon_steps,
            min_benefit_ratio=self.replan.min_benefit_ratio)

    def _apply(self, candidate: Placement) -> None:
        with self._lock:
            targets = list(self.targets)
            self.placement = candidate
        for target in targets:
            target.swap_placement(candidate)
        if self.monitor is not None:
            self.monitor.swap_placement(candidate)

    # ------------------------------------------------------------------ #
    def _emit(self, kind: str, severity: str, step: Optional[int],
              message: str, **labels: Any) -> MonitorEvent:
        event = MonitorEvent(kind=kind, severity=severity, step=step,
                             message=message, time_unix=time.time(),
                             labels=labels)
        self.event_log.emit(event)
        return event
