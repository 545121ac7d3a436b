"""Tests for the HiGHS min-cost max flow (repro.flow.solve), cross-checked against networkx."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.flow import FlowNetwork, assert_feasible_flow, min_cost_max_flow


class TestMinCostMaxFlow:
    def test_two_path_network_prefers_cheap_path(self):
        net = FlowNetwork()
        s, a, b, t = (net.add_node() for _ in range(4))
        cheap_1 = net.add_edge(s, a, capacity=2, cost=1.0)
        cheap_2 = net.add_edge(a, t, capacity=2, cost=1.0)
        pricey_1 = net.add_edge(s, b, capacity=2, cost=5.0)
        pricey_2 = net.add_edge(b, t, capacity=2, cost=5.0)
        result = min_cost_max_flow(net, s, t)
        assert result.value == pytest.approx(4.0)
        assert result.cost == pytest.approx(2 * 2.0 + 2 * 10.0)
        assert net.flow_on(cheap_1) == pytest.approx(2.0)
        assert net.flow_on(pricey_1) == pytest.approx(2.0)
        assert net.flow_on(cheap_2) == pytest.approx(2.0)
        assert net.flow_on(pricey_2) == pytest.approx(2.0)

    def test_cost_matches_stored_flow(self):
        net = FlowNetwork()
        s, a, t = (net.add_node() for _ in range(3))
        net.add_edge(s, a, capacity=3, cost=2.0)
        net.add_edge(a, t, capacity=2, cost=1.0)
        result = min_cost_max_flow(net, s, t)
        assert result.value == pytest.approx(2.0)
        assert result.cost == pytest.approx(net.total_flow_cost())
        assert_feasible_flow(net, s, t)

    def test_negative_costs_handled(self):
        """A negative-cost edge is used preferentially."""
        net = FlowNetwork()
        s, a, b, t = (net.add_node() for _ in range(4))
        net.add_edge(s, a, capacity=1, cost=1.0)
        net.add_edge(a, t, capacity=1, cost=-3.0)
        net.add_edge(s, b, capacity=1, cost=1.0)
        net.add_edge(b, t, capacity=1, cost=1.0)
        result = min_cost_max_flow(net, s, t)
        assert result.value == pytest.approx(2.0)
        assert result.cost == pytest.approx((1.0 - 3.0) + (1.0 + 1.0))

    def test_same_source_sink_rejected(self):
        net = FlowNetwork()
        s = net.add_node()
        with pytest.raises(ValueError):
            min_cost_max_flow(net, s, s)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_match_networkx(self, seed):
        rng = np.random.default_rng(seed + 100)
        num_nodes = int(rng.integers(4, 10))
        net = FlowNetwork()
        nodes = [net.add_node() for _ in range(num_nodes)]
        graph = nx.DiGraph()
        graph.add_nodes_from(range(num_nodes))
        for _ in range(int(rng.integers(num_nodes, 3 * num_nodes))):
            u, v = rng.integers(0, num_nodes, size=2)
            if u == v:
                continue
            capacity = int(rng.integers(1, 8))
            cost = int(rng.integers(0, 10))
            net.add_edge(nodes[int(u)], nodes[int(v)], capacity, cost)
            if graph.has_edge(int(u), int(v)):
                graph[int(u)][int(v)]["capacity"] += capacity
                # Parallel edges with different costs cannot be merged exactly;
                # keep the cheaper cost to stay consistent (rare with few edges).
                graph[int(u)][int(v)]["weight"] = min(graph[int(u)][int(v)]["weight"], cost)
                pytest.skip("parallel edge drawn; skip to keep oracle exact")
            else:
                graph.add_edge(int(u), int(v), capacity=capacity, weight=cost)
        source, sink = 0, num_nodes - 1
        expected_value = nx.maximum_flow_value(graph, source, sink)
        expected_cost = nx.cost_of_flow(
            graph, nx.max_flow_min_cost(graph, source, sink)
        )
        result = min_cost_max_flow(net, source, sink)
        assert result.value == pytest.approx(expected_value, abs=1e-9)
        assert result.cost == pytest.approx(expected_cost, abs=1e-6)
        assert_feasible_flow(net, source, sink)

