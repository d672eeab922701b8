"""The Expert Broker (paper Section IV-A).

The broker replaces each MoE block in the model backbone.  It performs no
computation itself: given the gate's routing decisions for a step, it plans
which tokens (and later, gradients) flow to which worker.  In this simulated
runtime its product is the dispatch plan — per-(worker, layer) token
counts — which the engines turn into transfer timings and traffic totals.

Replay contract
---------------
:meth:`ExpertBroker.plan_trace` is the batched planner behind the step
engines' one replay (``run_step`` and ``run_trace``): one einsum over the
whole ``(steps, layers, experts)`` count tensor.  It is defined to equal
stacking :meth:`ExpertBroker.plan_step` over the trace's steps — integer
token counts, so agreement is exact.  ``plan_step`` plans for the
event-driven and multi-master engines and for the per-step oracle loops
in ``tests/oracles.py``, which the engine equivalence suites
(``tests/runtime/test_vectorized_engine.py``,
``tests/runtime/test_replay_property.py``, ``benchmarks/bench_replay.py``)
hold the batched replay to within ``< 1e-9`` relative divergence.

Observability
-------------
Constructed with ``telemetry=``, the broker attributes planned one-direction
payload bytes to each ``(layer, expert, worker)`` edge as
``broker.dispatch_bytes`` counters (see ``docs/OBSERVABILITY.md``).  Both
planners feed the same counters, so a batched replay and the per-step
loop accumulate identical byte attributions.

Constructed with ``monitor=`` (a :class:`~repro.telemetry.monitor.
RoutingHealthMonitor`), each plan additionally publishes per-worker token
loads (``routing.worker_tokens`` / ``routing.worker_share`` gauges) into
the monitor's registry; gauges are last-value instruments, so after a trace
plan they reflect the final planned step, as after the per-step loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..models.config import MoEModelConfig
from ..placement.base import Placement
from ..telemetry import Telemetry
from ..telemetry.monitor import RoutingHealthMonitor


@dataclass
class DispatchPlan:
    """Planned data movement for one fine-tuning step.

    ``tokens`` has shape ``(workers, layers)``: token selections each worker
    receives per block (the ``K[n, l]`` of the paper's Eq. (6)).
    """

    tokens: np.ndarray
    token_bytes: float

    @property
    def num_workers(self) -> int:
        """Worker process count."""
        return self.tokens.shape[0]

    @property
    def num_layers(self) -> int:
        """Number of MoE blocks."""
        return self.tokens.shape[1]

    def bytes_to_worker(self, worker: int, layer: int) -> float:
        """One-direction payload for one block."""
        return float(self.tokens[worker, layer]) * self.token_bytes

    def layer_bytes(self, layer: int) -> np.ndarray:
        """One-direction payloads of all workers for one block."""
        return self.tokens[:, layer] * self.token_bytes


@dataclass
class TracePlan:
    """Planned data movement for a whole trace replay.

    ``tokens`` has shape ``(steps, workers, layers)`` — every step's
    ``K[n, l]`` tensor at once, the input the vectorized engines reduce over
    without per-step Python loops.
    """

    tokens: np.ndarray
    token_bytes: float

    @property
    def num_steps(self) -> int:
        """Number of planned steps."""
        return self.tokens.shape[0]

    @property
    def num_workers(self) -> int:
        """Worker process count."""
        return self.tokens.shape[1]

    @property
    def num_layers(self) -> int:
        """Number of MoE blocks."""
        return self.tokens.shape[2]

    def step_plan(self, step: int) -> DispatchPlan:
        """The single-step :class:`DispatchPlan` view of one step."""
        return DispatchPlan(tokens=self.tokens[step],
                            token_bytes=self.token_bytes)

    def bytes(self) -> np.ndarray:
        """One-direction payloads, shape ``(steps, workers, layers)``."""
        return self.tokens * self.token_bytes


class ExpertBroker:
    """Plans master<->worker data movement for a placement."""

    def __init__(self, config: MoEModelConfig, placement: Placement,
                 num_workers: int, telemetry: Optional[Telemetry] = None,
                 monitor: Optional["RoutingHealthMonitor"] = None,
                 tracer=None, local_worker: int = 0):
        if placement.num_layers != config.num_layers or \
                placement.num_experts != config.num_experts:
            raise ValueError("placement shape does not match model config")
        self.config = config
        self.placement = placement
        self.num_workers = num_workers
        self.telemetry = telemetry
        self.monitor = monitor
        # Request attribution: with a RequestTracer, every planned edge's
        # bytes are also charged to the requests of the current traced
        # step ("dispatch_bytes"; edges leaving local_worker additionally
        # as "cross_node_dispatch_bytes").
        self.tracer = tracer
        self.local_worker = int(local_worker)

    def swap_placement(self, placement: Placement) -> None:
        """Hot-swap the active placement (online re-placement hook).

        Shape-validated like the constructor; the assignment is swapped
        atomically (one attribute store), so a concurrently running
        ``plan_step`` uses either the old or the new placement, never a
        mix.
        """
        if placement.num_layers != self.config.num_layers or \
                placement.num_experts != self.config.num_experts:
            raise ValueError("placement shape does not match model config")
        self.placement = placement

    def _record_dispatch_bytes(self, counts: np.ndarray) -> None:
        """Attribute planned payload bytes to (layer, expert, worker) edges.

        ``counts`` is a ``(layers, experts)`` token-selection matrix (one
        step's, or a whole trace's summed); each nonzero cell increments the
        ``broker.dispatch_bytes`` counter of the edge that carries it, and —
        with a tracer attached — charges the same bytes to the traced
        step's requests (edges whose hosting worker is not ``local_worker``
        also as cross-node bytes).
        """
        telemetry = self.telemetry
        tracer = self.tracer
        token_bytes = self.config.token_feature_nbytes()
        assignment = self.placement.assignment
        for layer, expert in np.argwhere(counts > 0):
            worker = int(assignment[layer, expert])
            nbytes = float(counts[layer, expert]) * token_bytes
            if telemetry is not None:
                telemetry.counter(
                    "broker.dispatch_bytes", layer=int(layer),
                    expert=int(expert), worker=worker).add(nbytes)
            if tracer is not None:
                tracer.attribute("dispatch_bytes", nbytes)
                if worker != self.local_worker:
                    tracer.attribute("cross_node_dispatch_bytes", nbytes)

    def _publish_worker_load(self, tokens: np.ndarray) -> None:
        """Publish per-worker load gauges for one planned step.

        ``tokens`` is a ``(workers, layers)`` plan matrix; each worker's
        summed token selections land as ``routing.worker_tokens`` and its
        fraction of the step as ``routing.worker_share``.
        """
        telemetry = self.monitor.telemetry
        per_worker = np.asarray(tokens).sum(axis=1)
        total = float(per_worker.sum())
        for worker, load in enumerate(per_worker):
            telemetry.gauge("routing.worker_tokens",
                            worker=worker).set(float(load))
            telemetry.gauge("routing.worker_share", worker=worker).set(
                float(load) / total if total > 0 else 0.0)

    def plan_step(self, step_counts: np.ndarray) -> DispatchPlan:
        """Build the dispatch plan from one step's routing counts.

        ``step_counts`` is the ``(layers, experts)`` matrix of token
        selections from a routing trace.
        """
        step_counts = np.asarray(step_counts)
        expected = (self.config.num_layers, self.config.num_experts)
        if step_counts.shape != expected:
            raise ValueError(f"step_counts shape {step_counts.shape} != {expected}")
        tokens = self.placement.tokens_per_worker(step_counts, self.num_workers)
        if self.telemetry is not None or self.tracer is not None:
            self._record_dispatch_bytes(step_counts)
        if self.monitor is not None:
            self._publish_worker_load(tokens)
        return DispatchPlan(tokens=tokens,
                            token_bytes=self.config.token_feature_nbytes())

    def plan_trace(self, trace_counts: np.ndarray) -> TracePlan:
        """Build the dispatch plans for every step of a trace at once.

        ``trace_counts`` is the ``(steps, layers, experts)`` count tensor of
        a :class:`~repro.routing.trace.RoutingTrace`.  The result equals
        stacking :meth:`plan_step` over steps but runs as a single einsum
        against the placement's binary tensor ``X[n, l, e]`` (Eq. (6)
        batched over the whole trace).
        """
        trace_counts = np.asarray(trace_counts)
        expected = (self.config.num_layers, self.config.num_experts)
        if trace_counts.ndim != 3 or trace_counts.shape[1:] != expected:
            raise ValueError(f"trace_counts shape {trace_counts.shape} != "
                             f"(steps, {expected[0]}, {expected[1]})")
        x = self.placement.to_binary_tensor(self.num_workers)
        tokens = np.einsum("sle,nle->snl", trace_counts,
                           x.astype(np.int64), optimize=True)
        if self.telemetry is not None or self.tracer is not None:
            self._record_dispatch_bytes(trace_counts.sum(axis=0))
        if self.monitor is not None and len(tokens) > 0:
            # Gauges are last-value: publishing the final step leaves the
            # same end state as stepping plan_step over the trace.
            self._publish_worker_load(tokens[-1])
        return TracePlan(tokens=tokens,
                         token_bytes=self.config.token_feature_nbytes())
