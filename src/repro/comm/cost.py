"""Byte accounting and migration pricing for the master-worker pattern.

All quantities derive from three inputs: the model's per-token feature bytes
(``b * H / 8``), per-block token counts ``K[n, l]``, and the master-worker
links.  The paper's per-block and per-step times are priced elsewhere: the
step engines' fork-join spans
(:func:`~repro.runtime.engine.fork_join_span_arrays`) and the planner's
expected step time (:func:`~repro.placement.objective.expected_step_comm_time`).
"""

from __future__ import annotations

import numpy as np

from ..cluster.topology import ClusterTopology
from ..models.config import MoEModelConfig


class CommCostModel:
    """Byte counts and migration times for one cluster+model."""

    def __init__(self, config: MoEModelConfig, topology: ClusterTopology):
        self.config = config
        self.topology = topology
        self.token_bytes = config.token_feature_nbytes()

    # ------------------------------------------------------------------ #
    # migration pricing (online re-placement)
    # ------------------------------------------------------------------ #
    def migration_time(self, incoming_bytes: np.ndarray) -> float:
        """Seconds to land per-worker migration payloads.

        ``incoming_bytes[n]`` is what worker ``n`` must receive (e.g.
        :meth:`repro.placement.replan.MigrationPlan.bytes_per_worker`).
        The master holds the checkpoint, each worker's transfer is
        serialized on its own master link, and workers receive in
        parallel — so the wall time is the slowest link's transfer time.
        """
        incoming = np.asarray(incoming_bytes, dtype=np.float64)
        if np.any(incoming < 0):
            raise ValueError("incoming_bytes must be non-negative")
        worst = 0.0
        for worker in range(min(len(incoming), self.topology.num_workers)):
            if incoming[worker] <= 0:
                continue
            link = self.topology.master_link(worker)
            worst = max(worst, link.transfer_time(float(incoming[worker])))
        return worst

    # ------------------------------------------------------------------ #
    # byte accounting (Fig. 5's external traffic)
    # ------------------------------------------------------------------ #
    def step_bytes_per_worker(self, tokens_matrix: np.ndarray,
                              transfers: int = 4) -> np.ndarray:
        """Bytes exchanged with each worker in one step (all transfers)."""
        per_direction = self.token_bytes * tokens_matrix.sum(axis=1)
        return transfers * per_direction

    def cross_node_bytes(self, tokens_matrix: np.ndarray,
                         transfers: int = 4) -> float:
        """Total bytes that cross node boundaries in one step."""
        per_worker = self.step_bytes_per_worker(tokens_matrix, transfers)
        total = 0.0
        for worker in range(self.topology.num_workers):
            if self.topology.is_cross_node_from_master(worker):
                total += per_worker[worker]
        return float(total)

    def external_traffic_per_node(self, tokens_matrix: np.ndarray,
                                  transfers: int = 4) -> float:
        """Average cross-node bytes per node — the Fig. 5 y-axis."""
        return self.cross_node_bytes(tokens_matrix, transfers) / \
            self.topology.num_nodes
