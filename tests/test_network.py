import networkx as nx
import numpy as np
import pytest

from sentrack.network import (
    CommLog,
    FloodMessage,
    build_topology,
    flood_broadcast,
    message_cost,
)


def random_positions(rng, n, scale=1000.0):
    return {i: tuple(rng.uniform(0, scale, 2)) for i in range(n)}


def to_networkx(topology):
    g = nx.Graph()
    g.add_nodes_from(topology.positions)
    for s, neighbors in topology.adjacency.items():
        for t in neighbors:
            g.add_edge(s, t)
    return g


class TestBuildTopology:
    def test_within_range_connected(self):
        topo = build_topology({0: (0, 0), 1: (700, 0)}, 800.0)
        assert topo.adjacency[0] == frozenset({1})

    def test_out_of_range_disconnected(self):
        topo = build_topology({0: (0, 0), 1: (900, 0)}, 800.0)
        assert topo.adjacency[0] == frozenset()

    def test_single_sensor(self):
        topo = build_topology({0: (5, 5)}, 800.0)
        assert topo.adjacency == {0: frozenset()}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_topology({}, 800.0)

    def test_adjacency_symmetric_no_self_loops(self):
        rng = np.random.default_rng(0)
        topo = build_topology(random_positions(rng, 12), 400.0)
        for s, neighbors in topo.adjacency.items():
            assert s not in neighbors
            for t in neighbors:
                assert s in topo.adjacency[t]


class TestFloodBroadcast:
    def test_path_graph_rounds(self):
        topo = build_topology({1: (0, 0), 2: (100, 0), 3: (200, 0)}, 150.0)
        report = flood_broadcast(topo, FloodMessage(1, 0), max_rounds=10)
        assert report.receipt_round == {1: 0, 2: 1, 3: 2}

    def test_complete_graph_one_round(self):
        topo = build_topology({0: (0, 0), 1: (10, 0), 2: (0, 10)}, 100.0)
        report = flood_broadcast(topo, FloodMessage(2, 0), max_rounds=10)
        assert report.rounds_to_full_delivery() == 1

    def test_disconnected_node_unreachable(self):
        topo = build_topology({0: (0, 0), 1: (50, 0), 2: (5000, 0)}, 100.0)
        report = flood_broadcast(topo, FloodMessage(0, 0), max_rounds=10)
        assert report.unreachable == frozenset({2})
        assert 2 not in report.receipt_round

    def test_unknown_origin_rejected(self):
        topo = build_topology({0: (0, 0)}, 100.0)
        with pytest.raises(KeyError):
            flood_broadcast(topo, FloodMessage(9, 0), max_rounds=5)

    def test_insufficient_rounds_raises(self):
        topo = build_topology({0: (0, 0), 1: (100, 0), 2: (200, 0)}, 150.0)
        with pytest.raises(RuntimeError):
            flood_broadcast(topo, FloodMessage(0, 0), max_rounds=1)

    @pytest.mark.parametrize("seed", range(10))
    def test_rounds_equal_bfs_distance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 15))
        topo = build_topology(random_positions(rng, n, 600.0), 320.0)
        g = to_networkx(topo)
        origin = int(rng.integers(n))
        report = flood_broadcast(topo, FloodMessage(origin, 0), max_rounds=n)
        dist = nx.single_source_shortest_path_length(g, origin)
        assert report.receipt_round == dist

    @pytest.mark.parametrize("seed", range(5))
    def test_relay_count_bounded(self, seed):
        rng = np.random.default_rng(100 + seed)
        topo = build_topology(random_positions(rng, 10, 500.0), 300.0)
        report = flood_broadcast(topo, FloodMessage(0, 0), max_rounds=12)
        edges = sum(len(n) for n in topo.adjacency.values()) // 2
        assert report.relays <= 2 * edges


class TestMessageCost:
    @pytest.mark.parametrize("labels,expected", [(5, 221), (0, 21), (10, 421)])
    def test_values(self, labels, expected):
        assert message_cost(labels) == expected

    def test_closed_form_range(self):
        for n in range(51):
            assert message_cost(n) == 4 * (1 + (4 + 10 * n)) + 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            message_cost(-1)


class TestCommLog:
    def test_accounting(self):
        topo = build_topology({0: (0, 0), 1: (100, 0)}, 150.0)
        log = CommLog()
        log.record(topo, step=1, origin=0, label_count=5)
        log.record(topo, step=1, origin=1, label_count=0)
        log.record(topo, step=2, origin=0, label_count=2)
        assert log.bytes_in_step(1) == 221 + 21
        assert [e.sequence for e in log.entries] == [0, 1, 2]
        assert all(e.rounds == 1 for e in log.entries)
