"""Tests for the flow-network container (repro.flow.graph)."""

from __future__ import annotations

import math

import pytest

from repro.flow import FlowNetwork


class TestNodes:
    def test_add_and_count(self):
        net = FlowNetwork()
        a = net.add_node()
        b = net.add_node()
        assert net.num_nodes == 2
        assert a == 0 and b == 1


class TestEdges:
    def test_add_edge_fills_arrays(self):
        net = FlowNetwork()
        a, b = net.add_node(), net.add_node()
        edge_id = net.add_edge(a, b, capacity=3.0, cost=2.0)
        assert edge_id == 0
        assert (net.tail[edge_id], net.head[edge_id]) == (a, b)
        assert net.capacity[edge_id] == 3.0 and net.cost[edge_id] == 2.0
        assert net.flow_on(edge_id) == 0.0
        assert net.num_edges == 1

    @pytest.mark.parametrize("capacity", [-1.0, math.inf, math.nan])
    def test_bad_capacity_rejected(self, capacity):
        net = FlowNetwork()
        a, b = net.add_node(), net.add_node()
        with pytest.raises(ValueError):
            net.add_edge(a, b, capacity=capacity)

    @pytest.mark.parametrize("cost", [math.inf, -math.inf, math.nan])
    def test_non_finite_cost_rejected(self, cost):
        net = FlowNetwork()
        a, b = net.add_node(), net.add_node()
        with pytest.raises(ValueError):
            net.add_edge(a, b, capacity=1.0, cost=cost)

    def test_out_of_range_nodes_rejected(self):
        net = FlowNetwork()
        a = net.add_node()
        with pytest.raises(IndexError):
            net.add_edge(a, 5, capacity=1.0)

    def test_edge_ids_are_array_positions(self):
        net = FlowNetwork()
        nodes = [net.add_node() for _ in range(3)]
        assert net.add_edge(nodes[0], nodes[1], 1.0) == 0
        assert net.add_edge(nodes[1], nodes[2], 2.0) == 1
        assert net.capacity == [1.0, 2.0]


class TestFlowState:
    def test_total_flow_cost(self):
        net = FlowNetwork()
        a, b, c = (net.add_node() for _ in range(3))
        net.add_edge(a, b, capacity=2.0, cost=1.5)
        net.add_edge(b, c, capacity=2.0, cost=4.0)
        net.flow = [1.0, 0.5]
        assert net.flow_on(1) == 0.5
        assert net.total_flow_cost() == pytest.approx(3.5)
