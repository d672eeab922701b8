"""Tests for the communication cost model (Eq. (5)-(7)) and collectives."""

import numpy as np
import pytest

from repro.cluster import ClusterTopology, Link, paper_cluster, v100_32gb
from repro.comm import (CommCostModel, all_to_all_time,
                        cross_node_bytes_all_to_all, one_to_all_time,
                        ring_all_reduce_time, status_sync_time)
from repro.models import mixtral_8x7b_sim, nano_moe


@pytest.fixture
def cost_model():
    return CommCostModel(mixtral_8x7b_sim(), paper_cluster())


class TestEq5BlockTime:
    def test_block_bytes_formula(self, cost_model):
        """D = b*H*K/8 from the paper."""
        cfg = mixtral_8x7b_sim()
        expected = 16 * 4096 * 1000 / 8
        assert cost_model.block_bytes(1000) == pytest.approx(expected)

    def test_round_trip_doubles(self, cost_model):
        topo = paper_cluster()
        one_way = cost_model.block_bytes(500) / \
            topo.cross_link.bandwidth_bytes_per_s + topo.cross_link.latency_s
        assert cost_model.block_round_trip_time(4, 500) == \
            pytest.approx(2 * one_way)

    def test_zero_tokens_free(self, cost_model):
        assert cost_model.block_round_trip_time(3, 0) == 0.0

    def test_cross_node_slower_than_intra(self, cost_model):
        assert cost_model.block_round_trip_time(2, 100) > \
            cost_model.block_round_trip_time(1, 100)


class TestEq7StepTime:
    def test_layer_time_is_max_over_workers(self, cost_model):
        tokens = np.array([0, 100, 0, 0, 0, 2000])
        expected = cost_model.block_round_trip_time(5, 2000)
        assert cost_model.layer_comm_time(tokens) == pytest.approx(expected)

    def test_step_time_sums_layers(self, cost_model):
        tokens = np.zeros((6, 32))
        tokens[5, :] = 100
        per_layer = cost_model.block_round_trip_time(5, 100)
        assert cost_model.step_comm_time(tokens, passes=2) == \
            pytest.approx(2 * 32 * per_layer)


class TestTrafficAccounting:
    def test_four_transfers_counted(self, cost_model):
        tokens = np.zeros((6, 32))
        tokens[4, 0] = 10
        per_worker = cost_model.step_bytes_per_worker(tokens)
        assert per_worker[4] == pytest.approx(
            4 * 10 * mixtral_8x7b_sim().token_feature_nbytes())

    def test_cross_node_excludes_local(self, cost_model):
        tokens = np.zeros((6, 32))
        tokens[0, 0] = 100  # master's own worker
        tokens[1, 0] = 100  # same node
        tokens[2, 0] = 100  # other node
        cross = cost_model.cross_node_bytes(tokens)
        expected = 4 * 100 * mixtral_8x7b_sim().token_feature_nbytes()
        assert cross == pytest.approx(expected)

    def test_per_node_average(self, cost_model):
        tokens = np.zeros((6, 32))
        tokens[2, 0] = 300
        assert cost_model.external_traffic_per_node(tokens) == \
            pytest.approx(cost_model.cross_node_bytes(tokens) / 3)

    def test_paper_traffic_magnitude(self, cost_model):
        """~866 MB/node/step for a uniform baseline at paper scale.

        The paper reports roughly 2600 token selections leaving each node
        per block, 16-ish MB per exchange, four exchanges, 32 layers,
        averaged over 3 nodes (Section V-B).
        """
        # Sequential striping, uniform routing: each worker gets 1/6 of
        # 1920 tokens * top-2 selections per layer.
        tokens = np.full((6, 32), 1920 * 2 / 6)
        traffic = cost_model.external_traffic_per_node(tokens)
        assert 0.7e9 < traffic < 1.1e9


class TestCollectives:
    def test_one_to_all_is_max(self):
        topo = paper_cluster()
        payloads = np.zeros(6)
        payloads[5] = 1.17e9  # exactly 1 second on the cross link
        t = one_to_all_time(payloads, topo)
        assert t == pytest.approx(1.0 + topo.cross_link.latency_s)

    def test_one_to_all_parallel_transfers(self):
        """Independent links: two equal payloads cost the same as one."""
        topo = paper_cluster()
        single = np.zeros(6)
        single[4] = 1e8
        double = single.copy()
        double[5] = 1e8
        assert one_to_all_time(double, topo) == \
            pytest.approx(one_to_all_time(single, topo))

    def test_one_to_all_validates_length(self):
        with pytest.raises(ValueError):
            one_to_all_time(np.zeros(3), paper_cluster())

    def test_all_to_all_serializes_sends(self):
        topo = paper_cluster()
        matrix = np.zeros((6, 6))
        matrix[0, 2] = 1e8
        matrix[0, 4] = 1e8
        two = all_to_all_time(matrix, topo)
        matrix2 = np.zeros((6, 6))
        matrix2[0, 2] = 1e8
        one = all_to_all_time(matrix2, topo)
        assert two > one * 1.9

    def test_all_to_all_diagonal_free(self):
        topo = paper_cluster()
        matrix = np.diag(np.full(6, 1e9))
        assert all_to_all_time(matrix, topo) == 0.0

    def test_all_to_all_shape_check(self):
        with pytest.raises(ValueError):
            all_to_all_time(np.zeros((3, 3)), paper_cluster())

    def test_status_sync_latency_bound(self):
        topo = paper_cluster()
        assert status_sync_time(topo) == pytest.approx(
            2 * topo.cross_link.latency_s)

    def test_ring_all_reduce_volume(self):
        topo = paper_cluster()
        nbytes = 6e9
        t = ring_all_reduce_time(nbytes, topo)
        volume = 2 * 5 / 6 * nbytes
        expected = volume / topo.cross_link.bandwidth_bytes_per_s + \
            10 * topo.cross_link.latency_s
        assert t == pytest.approx(expected)

    def test_ring_all_reduce_single_worker_free(self):
        topo = ClusterTopology(1, 1)
        assert ring_all_reduce_time(1e9, topo) == 0.0

    def test_cross_node_bytes_all_to_all(self):
        topo = paper_cluster()
        matrix = np.zeros((6, 6))
        matrix[0, 1] = 5.0   # same node
        matrix[0, 2] = 7.0   # cross node
        matrix[3, 3] = 9.0   # diagonal
        assert cross_node_bytes_all_to_all(matrix, topo) == pytest.approx(7.0)
