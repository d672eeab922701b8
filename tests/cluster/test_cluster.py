"""Tests for devices, links, topology, memory model and presets."""

import numpy as np
import pytest

from repro.cluster import (ClusterTopology, DeviceSpec, ExpertMemoryModel,
                           Link, bandwidth_ratio_cluster, cross_node_link,
                           intra_node_link, paper_cluster, v100_32gb)
from repro.models import mixtral_8x7b_sim, nano_moe


class TestDevice:
    def test_compute_time(self):
        dev = DeviceSpec("x", memory_bytes=1, effective_flops=1e9)
        assert dev.compute_time(2e9) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", memory_bytes=0, effective_flops=1)
        with pytest.raises(ValueError):
            DeviceSpec("x", memory_bytes=1, effective_flops=0)
        with pytest.raises(ValueError):
            v100_32gb().compute_time(-1)

    def test_v100_spec(self):
        dev = v100_32gb()
        assert dev.memory_bytes == 32 * 1024 ** 3


class TestLink:
    def test_transfer_time(self):
        link = Link(bandwidth_bytes_per_s=1e9, latency_s=1e-3)
        assert link.transfer_time(1e9) == pytest.approx(1.001)

    def test_zero_bytes_free(self):
        assert Link(1e9, 1e-3).transfer_time(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Link(0)
        with pytest.raises(ValueError):
            Link(1e9, -1)
        with pytest.raises(ValueError):
            Link(1e9).transfer_time(-5)

    def test_paper_measured_bandwidths(self):
        assert intra_node_link().bandwidth_bytes_per_s == pytest.approx(18.3e9)
        assert cross_node_link().bandwidth_bytes_per_s == pytest.approx(1.17e9)


class TestTopology:
    def test_paper_cluster_shape(self):
        topo = paper_cluster()
        assert topo.num_nodes == 3
        assert topo.num_workers == 6

    def test_worker_locations(self):
        topo = paper_cluster()
        assert topo.node_of(0) == 0
        assert topo.node_of(5) == 2

    def test_master_link_classes(self):
        topo = paper_cluster()  # master at node 0 gpu 0
        assert topo.master_link(0).name == "loopback"
        assert topo.master_link(1) is topo.intra_link
        assert topo.master_link(2) is topo.cross_link

    def test_worker_link_classes(self):
        topo = paper_cluster()
        assert topo.worker_link(2, 2).name == "loopback"
        assert topo.worker_link(2, 3) is topo.intra_link
        assert topo.worker_link(1, 2) is topo.cross_link

    def test_cross_node_predicates(self):
        topo = paper_cluster()
        assert not topo.is_cross_node_from_master(1)
        assert topo.is_cross_node_from_master(4)
        assert topo.is_cross_node(0, 5)
        assert not topo.is_cross_node(4, 5)

    def test_master_bandwidths_length(self):
        assert len(paper_cluster().master_bandwidths()) == 6

    def test_workers_on_node(self):
        assert paper_cluster().workers_on_node(1) == [2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterTopology(0, 2)
        with pytest.raises(ValueError):
            ClusterTopology(2, 2, master_node=5)
        with pytest.raises(ValueError):
            ClusterTopology(2, 2, master_gpu=7)

    def test_custom_master_location(self):
        topo = ClusterTopology(2, 2, master_node=1, master_gpu=1)
        assert topo.master_worker_id == 3
        assert topo.master_link(3).name == "loopback"
        assert topo.is_cross_node_from_master(0)


class TestPresets:
    def test_bandwidth_ratio(self):
        topo = bandwidth_ratio_cluster(ratio=10)
        ratio = topo.intra_link.bandwidth_bytes_per_s / \
            topo.cross_link.bandwidth_bytes_per_s
        assert ratio == pytest.approx(10)
        with pytest.raises(ValueError):
            bandwidth_ratio_cluster(ratio=0)


class TestMemoryModel:
    def test_capacity_scales_with_memory(self):
        model = ExpertMemoryModel()
        cfg = mixtral_8x7b_sim()
        small = DeviceSpec("s", 16 * 1024 ** 3, 1e12)
        big = DeviceSpec("b", 64 * 1024 ** 3, 1e12)
        assert model.capacity(big, cfg) > model.capacity(small, cfg)

    def test_master_reserve_reduces_capacity(self):
        model = ExpertMemoryModel()
        cfg = mixtral_8x7b_sim()
        dev = v100_32gb()
        assert model.capacity(dev, cfg, hosts_master=True) < \
            model.capacity(dev, cfg, hosts_master=False)

    def test_capacities_paper_cluster_fit_mixtral(self):
        """The paper's cluster must (barely) host all 256 experts."""
        caps = ExpertMemoryModel().capacities(paper_cluster(), mixtral_8x7b_sim())
        assert len(caps) == 6
        assert sum(caps) >= mixtral_8x7b_sim().total_experts
        # master's GPU hosts far fewer experts
        assert caps[0] < caps[1]

    def test_capacity_zero_when_reserve_exceeds_memory(self):
        model = ExpertMemoryModel(reserve_bytes=64 * 1024 ** 3)
        assert model.capacity(v100_32gb(), mixtral_8x7b_sim()) == 0

    def test_expert_bytes_components(self):
        cfg = nano_moe()
        model = ExpertMemoryModel(adapter_overhead=0.0, activation_tokens=0)
        assert model.expert_bytes(cfg) == cfg.expert_num_params() * 2
