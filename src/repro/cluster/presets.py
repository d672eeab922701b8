"""Cluster presets.

``paper_cluster`` reproduces the paper's evaluation environment (Section V-A):
three nodes, two V100-32GB GPUs each, 18.3 GB/s intra-node, 1.17 GB/s
cross-node Ethernet.
"""

from __future__ import annotations

from .device import v100_32gb
from .link import Link, cross_node_link, intra_node_link
from .topology import ClusterTopology


def paper_cluster() -> ClusterTopology:
    """3 nodes x 2 V100, the paper's measured bandwidths."""
    return ClusterTopology(num_nodes=3, gpus_per_node=2, device=v100_32gb(),
                           intra_link=intra_node_link(),
                           cross_link=cross_node_link())


def bandwidth_ratio_cluster(ratio: float, num_nodes: int = 3,
                            gpus_per_node: int = 2) -> ClusterTopology:
    """Fix cross-node bandwidth at the paper's 1.17 GB/s and scale intra-node.

    ``ratio`` is intra/cross bandwidth; the paper's environment has
    ratio ~= 15.6.  Used by the heterogeneity ablation.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    cross = cross_node_link()
    intra = Link(bandwidth_bytes_per_s=cross.bandwidth_bytes_per_s * ratio,
                 latency_s=10e-6, name=f"intra-x{ratio:g}")
    return ClusterTopology(num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                           device=v100_32gb(), intra_link=intra, cross_link=cross)

