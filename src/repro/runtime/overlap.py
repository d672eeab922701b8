"""Backward-pass communication/computation overlap.

The baseline master-worker engine serializes each block's exchange: the
master waits for expert gradients before continuing backward.  That wait is
unnecessary in the *backward* direction: once the master has computed the
gradient at a block's expert-combine point, it can dispatch gradients to
that block's workers and immediately continue back-propagating through the
block's attention into the previous block — expert adapter gradients are
only needed at the optimizer step, not on the master's critical path.

(The forward pass cannot overlap this way: block ``l+1``'s gating input *is*
block ``l``'s combined expert output, so the paper's sequential structure is
forced there.)

``OverlappedMasterWorkerEngine`` models this: backward-pass expert exchanges
run concurrently with the master's continuing backbone backward; the step
ends when both the master's chain and the slowest outstanding expert
round-trip finish.  The speedup over the baseline engine quantifies what
pipelining buys on top of locality-aware placement.  The engine overrides
only the baseline's step total and span layout; ``run_step`` and
``run_trace`` are the baseline's one batched replay, held to the
overlapped per-step loop in ``tests/oracles.py``.

With ``telemetry=``, backward fork-joins are recorded on a separate
``exchange`` track so the exported Chrome trace shows them running
concurrently with the master's backbone chain; forward spans stay on the
``master`` track exactly as in the baseline engine.  Because phases overlap,
per-step span durations sum to *more* than ``total_time`` here — the
serialized engines are the ones whose spans tile the step exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster.topology import ClusterTopology
from ..models.config import MoEModelConfig
from ..placement.base import Placement
from ..routing.trace import RoutingTrace
from .engine import MasterWorkerEngine


class OverlappedMasterWorkerEngine(MasterWorkerEngine):
    """Master-worker runtime with overlapped backward expert exchanges."""

    def _vectorized_core_total(self, spans, bf, bb, head):
        """Overlapped per-step time before the optimizer tail.

        The master's backward chain advances by one backbone time per block
        (layers visited in reverse); each block's expert round-trip starts at
        the master's current clock and finishes independently.  The step ends
        when both the chain and the slowest outstanding round-trip complete.
        """
        num_layers = self.config.num_layers
        t_fwd = num_layers * bf + spans["span_f"].sum(axis=1) + head
        offsets = np.arange(num_layers) * bb
        candidates = t_fwd[:, None] + offsets[None, :] \
            + spans["span_b"][:, ::-1]
        outstanding = np.maximum(t_fwd, candidates.max(axis=1))
        return np.maximum(t_fwd + num_layers * bb, outstanding)

    def _emit_vectorized_telemetry(self, spans, first_step, bf, bb, head,
                                   optimizer, worker_opt):
        """Lay the overlapped timeline onto the trace as spans: forward
        serialized on the ``master`` track, backward fork-joins on the
        ``exchange`` track starting at the master's clock.
        """
        telemetry = self.telemetry
        num_layers = self.config.num_layers
        t = self._telemetry_now
        for offset in range(spans["span_f"].shape[0]):
            step = first_step + offset
            for layer in range(num_layers):
                telemetry.record_span(
                    "mw.backbone", t, bf, category="backbone",
                    track="master", step=step, layer=layer, direction="fwd")
                t += bf
                span = float(spans["span_f"][offset, layer])
                telemetry.record_span(
                    "mw.fork_join", t, span, category="fork_join",
                    track="master", step=step, layer=layer, direction="fwd",
                    comm_s=float(spans["comm_f"][offset, layer]),
                    compute_s=float(spans["comp_f"][offset, layer]))
                t += span
            telemetry.record_span("mw.head", t, head, category="head",
                                  track="master", step=step)
            t += head
            master_clock = t
            outstanding = t
            for layer in reversed(range(num_layers)):
                span = float(spans["span_b"][offset, layer])
                telemetry.record_span(
                    "mw.fork_join", master_clock, span, category="fork_join",
                    track="exchange", step=step, layer=layer, direction="bwd",
                    comm_s=float(spans["comm_b"][offset, layer]),
                    compute_s=float(spans["comp_b"][offset, layer]))
                telemetry.record_span(
                    "mw.backbone", master_clock, bb, category="backbone",
                    track="master", step=step, layer=layer, direction="bwd")
                outstanding = max(outstanding, master_clock + span)
                master_clock += bb
            t = max(master_clock, outstanding)
            telemetry.record_span("mw.optimizer.master", t, optimizer,
                                  category="optimizer", track="master",
                                  step=step)
            t += optimizer
            telemetry.record_span("mw.optimizer.worker", t, worker_opt,
                                  category="optimizer", track="master",
                                  step=step)
            t += worker_opt
        self._telemetry_now = t


def overlap_speedup(config: MoEModelConfig, topology: ClusterTopology,
                    placement: Placement, trace: RoutingTrace,
                    seq_len: int, max_steps: Optional[int] = None) -> float:
    """Fraction of step time saved by backward overlap on a trace."""
    baseline = MasterWorkerEngine(config, topology, placement,
                                  trace.tokens_per_step, seq_len)
    overlapped = OverlappedMasterWorkerEngine(config, topology, placement,
                                              trace.tokens_per_step, seq_len)
    t_base = baseline.run_trace(trace, max_steps=max_steps).avg_step_time()
    t_over = overlapped.run_trace(trace, max_steps=max_steps).avg_step_time()
    return 1.0 - t_over / t_base
