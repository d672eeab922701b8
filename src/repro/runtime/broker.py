"""The Expert Broker (paper Section IV-A).

The broker replaces each MoE block in the model backbone.  It performs no
computation itself: given the gate's routing decisions for a step, it plans
which tokens (and later, gradients) flow to which worker.  In this simulated
runtime its product is the dispatch plan — the token selections each
worker receives per block, ``K[n, l]`` — which the engines turn into
transfer timings and traffic totals, pricing each token at
``config.token_feature_nbytes()``.

Replay contract
---------------
:meth:`ExpertBroker.plan_trace` is the one planner: one einsum over the
whole ``(steps, layers, experts)`` count tensor against the placement's
binary tensor ``X[n, l, e]``, returning the ``(steps, workers, layers)``
token tensor.  :meth:`ExpertBroker.plan_step` is ``plan_trace`` on a
one-step trace; it plans for the event-driven and multi-master engines
and for the per-step oracle loops in ``tests/oracles.py``.  For integer
counts both equal stacking :meth:`~repro.placement.base.Placement.
tokens_per_worker` over the steps exactly, values and dtype
(``tests/runtime/test_broker.py``); the engine equivalence suites
(``tests/runtime/test_vectorized_engine.py``,
``tests/runtime/test_replay_property.py``, ``benchmarks/bench_replay.py``)
hold the batched replay to the oracle loops within ``< 1e-9`` relative
divergence.

Observability
-------------
Constructed with ``telemetry=``, the broker attributes planned one-direction
payload bytes to each ``(layer, expert, worker)`` edge as
``broker.dispatch_bytes`` counters (see ``docs/OBSERVABILITY.md``).  A
trace planned at once and the same trace planned step by step accumulate
identical byte attributions.

Constructed with ``monitor=`` (a :class:`~repro.telemetry.monitor.
RoutingHealthMonitor`), each plan additionally publishes per-worker token
loads (``routing.worker_tokens`` / ``routing.worker_share`` gauges) into
the monitor's registry; gauges are last-value instruments, so after a trace
plan they reflect the final planned step, as after the per-step loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..models.config import MoEModelConfig
from ..placement.base import Placement
from ..telemetry import Telemetry
from ..telemetry.monitor import RoutingHealthMonitor


class ExpertBroker:
    """Plans master<->worker data movement for a placement."""

    def __init__(self, config: MoEModelConfig, placement: Placement,
                 num_workers: int, telemetry: Optional[Telemetry] = None,
                 monitor: Optional["RoutingHealthMonitor"] = None,
                 tracer=None, local_worker: int = 0):
        self.config = config
        self.swap_placement(placement)
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

        The constructor validates through here too: anything but a
        :class:`~repro.placement.base.Placement` raises ``TypeError`` (a
        ``ReplicatedPlacement`` has no binary tensor to plan against), a
        shape other than the model's ``ValueError``.  The assignment is
        swapped atomically (one attribute store), so a concurrently running
        ``plan_step`` uses either the old or the new placement, never a
        mix.
        """
        if not isinstance(placement, Placement):
            raise TypeError("the broker plans a single-owner Placement, not "
                            f"{type(placement).__name__}")
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

    def plan_trace(self, trace_counts: np.ndarray) -> np.ndarray:
        """Plan every step of a trace at once.

        ``trace_counts`` is the ``(steps, layers, experts)`` count tensor of
        a :class:`~repro.routing.trace.RoutingTrace`.  Returns the
        ``(steps, workers, layers)`` tensor of token selections each worker
        receives per block, Eq. (6)'s ``K[n, l]`` batched over the trace:
        a single einsum against the placement's binary tensor
        ``X[n, l, e]``, integer for integer counts.
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
        return tokens

    def plan_step(self, step_counts: np.ndarray) -> np.ndarray:
        """Plan one step: :meth:`plan_trace` on a one-step trace.

        ``step_counts`` is the ``(layers, experts)`` matrix of token
        selections from a routing trace; returns its ``(workers, layers)``
        token matrix ``K[n, l]``.
        """
        return self.plan_trace(np.asarray(step_counts)[None])[0]
