"""Cluster hardware model: devices, links, topologies, memory capacities."""

from .device import DeviceSpec, GiB, a100_80gb, v100_32gb
from .link import GB, Link, cross_node_link, intra_node_link, loopback_link
from .memory import ExpertMemoryModel
from .probe import (NoisePoint, ProbeModel, bandwidth_noise_study,
                    probe_topology, robust_estimate)
from .presets import bandwidth_ratio_cluster, paper_cluster
from .topology import ClusterTopology, WorkerLocation

__all__ = [
    "DeviceSpec", "v100_32gb", "a100_80gb", "GiB", "GB",
    "Link", "intra_node_link", "cross_node_link", "loopback_link",
    "ClusterTopology", "WorkerLocation",
    "ExpertMemoryModel",
    "paper_cluster", "bandwidth_ratio_cluster",
    "ProbeModel", "probe_topology", "robust_estimate",
    "bandwidth_noise_study", "NoisePoint",
]
