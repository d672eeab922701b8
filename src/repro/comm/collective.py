"""Collective communication cost models.

These model the collectives of conventional expert parallelism, the
paper's baseline (VELA's master-worker one-to-all is priced by the step
engines' fork-join spans):

* **all-to-all**: every device exchanges with every other, preceded by
  the status synchronization the paper describes ("all devices need to
  determine how many tokens they should receive from each other before
  performing the data transfer").
* **ring all-reduce**: EP's end-of-step gradient synchronization for the
  replicated non-expert layers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster.link import Link
from ..cluster.topology import ClusterTopology
from ..telemetry import Telemetry


def all_to_all_time(byte_matrix: np.ndarray, topology: ClusterTopology,
                    telemetry: Optional[Telemetry] = None) -> float:
    """Synchronized all-to-all over a ``(N, N)`` byte matrix.

    Each device serializes its outgoing transfers (one NIC/copy engine); all
    devices proceed in parallel; the collective completes at a barrier when
    the slowest sender finishes.  Diagonal entries (local data) are free.

    With ``telemetry``, the off-diagonal payload (the bytes that actually
    touch a link) lands on the ``comm.all_to_all.bytes`` counter.
    """
    byte_matrix = np.asarray(byte_matrix, dtype=np.float64)
    n = topology.num_workers
    if byte_matrix.shape != (n, n):
        raise ValueError(f"byte matrix must be ({n}, {n})")
    worst = 0.0
    for src in range(n):
        elapsed = 0.0
        for dst in range(n):
            if src == dst or byte_matrix[src, dst] <= 0:
                continue
            link = topology.worker_link(src, dst)
            elapsed += link.transfer_time(float(byte_matrix[src, dst]))
        worst = max(worst, elapsed)
    if telemetry is not None:
        telemetry.counter("comm.all_to_all.bytes").add(
            float(byte_matrix.sum() - np.trace(byte_matrix)))
    return worst


def status_sync_time(topology: ClusterTopology) -> float:
    """The EP pre-exchange: an all-to-all of token counts plus a barrier.

    Counts are tiny (a few bytes per pair), so the cost is latency-dominated:
    every device must hear from every other before the payload all-to-all can
    be posted.  Model: one latency round over the slowest link, both ways.
    """
    slowest = max(topology.intra_link.latency_s, topology.cross_link.latency_s)
    return 2.0 * slowest


def ring_all_reduce_time(nbytes: float, topology: ClusterTopology,
                         telemetry: Optional[Telemetry] = None) -> float:
    """Bandwidth-optimal ring all-reduce across all workers.

    ``2 * (N-1)/N * nbytes`` over the slowest link in the ring plus the
    per-hop latencies of the ``2*(N-1)`` steps.

    With ``telemetry``, the total bytes on the wire — per-edge ring volume
    times the ``N`` ring edges — land on ``comm.all_reduce.bytes``.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    n = topology.num_workers
    if telemetry is not None and n > 1:
        telemetry.counter("comm.all_reduce.bytes").add(
            2.0 * (n - 1) * float(nbytes))
    if n == 1 or nbytes == 0:
        return 0.0
    # Any ring over multiple nodes traverses cross-node links.
    if topology.num_nodes > 1:
        slowest = topology.cross_link
    else:
        slowest = topology.intra_link
    return ring_time(n, nbytes, slowest)


def ring_time(ranks: int, nbytes: float, link: Link) -> float:
    """A ring all-reduce of ``nbytes`` over ``ranks`` ranks on ``link``.

    ``2 * (ranks-1)/ranks * nbytes`` at the link's bandwidth plus its
    latency on each of the ``2*(ranks-1)`` steps.  No guards: callers
    decide when a ring is free.
    """
    volume = 2.0 * (ranks - 1) / ranks * nbytes
    return volume / link.bandwidth_bytes_per_s + \
        2.0 * (ranks - 1) * link.latency_s


def cross_node_bytes_all_to_all(byte_matrix: np.ndarray,
                                topology: ClusterTopology) -> float:
    """Bytes of an all-to-all that traverse node boundaries."""
    byte_matrix = np.asarray(byte_matrix, dtype=np.float64)
    total = 0.0
    n = topology.num_workers
    for src in range(n):
        for dst in range(n):
            if src != dst and topology.is_cross_node(src, dst):
                total += byte_matrix[src, dst]
    return total
