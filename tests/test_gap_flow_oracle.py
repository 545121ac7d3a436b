"""Differential gate for the GAP min-cost max flow (repro.flow.min_cost_max_flow).

The library solves the Figure-2 flow as one HiGHS LP.  This module keeps an
independent successive-shortest-path solver as a test-only oracle and checks,
on random networks and on the GAP network of every golden-corpus instance,
that the LP flow is integral, carries the ``csgraph.maximum_flow`` value, is
feasible, and costs what the oracle's flow costs (to 1e-9).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import maximum_flow

from repro.api.pipeline import DesignPipeline
from repro.core.algorithm import DesignParameters
from repro.core.gap import build_gap_network
from repro.flow import FlowNetwork, assert_feasible_flow, min_cost_max_flow
from test_golden_designs import GOLDEN_SEED, WORKLOADS


def oracle_min_cost_max_flow(net: FlowNetwork, source: int, sink: int) -> tuple[float, float]:
    """Successive shortest augmenting paths (Bellman-Ford); returns (value, cost).

    Works on its own residual copy, so ``net`` is left untouched.
    """
    n = net.num_nodes
    arc_head: list[int] = []
    arc_cap: list[float] = []
    arc_cost: list[float] = []
    out: list[list[int]] = [[] for _ in range(n)]
    for tail, head, capacity, cost in zip(net.tail, net.head, net.capacity, net.cost):
        # Arc 2e is edge e, arc 2e + 1 its residual reverse.
        for start, end, cap, unit in ((tail, head, capacity, cost), (head, tail, 0.0, -cost)):
            out[start].append(len(arc_head))
            arc_head.append(end)
            arc_cap.append(cap)
            arc_cost.append(unit)
    value = total = 0.0
    while True:
        dist = [math.inf] * n
        parent = [-1] * n
        dist[source] = 0.0
        for _ in range(n):
            changed = False
            for node in range(n):
                if dist[node] == math.inf:
                    continue
                for arc in out[node]:
                    target = arc_head[arc]
                    if arc_cap[arc] > 0 and dist[node] + arc_cost[arc] < dist[target]:
                        dist[target] = dist[node] + arc_cost[arc]
                        parent[target] = arc
                        changed = True
            if not changed:
                break
        if dist[sink] == math.inf:
            return value, total
        path = []
        node = sink
        while node != source:
            path.append(parent[node])
            node = arc_head[parent[node] ^ 1]
        push = min(arc_cap[arc] for arc in path)
        for arc in path:
            arc_cap[arc] -= push
            arc_cap[arc ^ 1] += push
        value += push
        total += push * sum(arc_cost[arc] for arc in path)


def _max_flow_value(net: FlowNetwork, source: int, sink: int) -> int:
    tail, head = np.asarray(net.tail, dtype=int), np.asarray(net.head, dtype=int)
    keep = tail != head
    if not keep.any():
        return 0
    capacity = np.asarray(net.capacity, dtype=np.int64)[keep]
    graph = sp.csr_array(
        (capacity, (tail[keep], head[keep])), shape=(net.num_nodes, net.num_nodes)
    )
    return int(maximum_flow(graph, source, sink).flow_value)


def check_against_oracle(net: FlowNetwork, source: int, sink: int) -> None:
    expected_value = _max_flow_value(net, source, sink)
    oracle_value, oracle_cost = oracle_min_cost_max_flow(net, source, sink)
    result = min_cost_max_flow(net, source, sink)

    flow = np.asarray(net.flow)
    assert np.all(flow == np.rint(flow)), "flow is not integral"
    assert_feasible_flow(net, source, sink, tol=0.0)
    tail, head = np.asarray(net.tail), np.asarray(net.head)
    carried = flow[tail == source].sum() - flow[head == source].sum()
    assert carried == result.value == expected_value == oracle_value
    assert math.isclose(result.cost, oracle_cost, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(result.cost, net.total_flow_cost(), rel_tol=1e-9, abs_tol=1e-9)


@st.composite
def random_networks(draw):
    num_nodes = draw(st.integers(2, 8))
    node = st.integers(0, num_nodes - 1)
    edges = draw(
        st.lists(st.tuples(node, node, st.integers(0, 6), st.integers(0, 9)), max_size=24)
    )
    net = FlowNetwork()
    for _ in range(num_nodes):
        net.add_node()
    for tail, head, capacity, cost in edges:
        net.add_edge(tail, head, capacity, cost)
    return net


class TestRandomNetworks:
    @settings(max_examples=60, deadline=None)
    @given(random_networks())
    def test_matches_oracle(self, net):
        check_against_oracle(net, 0, net.num_nodes - 1)

    def test_empty_network(self):
        net = FlowNetwork()
        source, sink = net.add_node(), net.add_node()
        result = min_cost_max_flow(net, source, sink)
        assert (result.value, result.cost, net.flow) == (0.0, 0.0, [])

    def test_prefers_cheap_path_and_saturates(self):
        net = FlowNetwork()
        s, a, b, t = (net.add_node() for _ in range(4))
        cheap = [net.add_edge(s, a, 2, 1.0), net.add_edge(a, t, 2, 1.0)]
        pricey = [net.add_edge(s, b, 2, 5.0), net.add_edge(b, t, 1, 5.0)]
        result = min_cost_max_flow(net, s, t)
        assert result.value == 3.0
        assert result.cost == 2 * 2.0 + 10.0
        assert [net.flow_on(e) for e in cheap + pricey] == [2.0, 2.0, 1.0, 1.0]
        check_against_oracle(net, s, t)

    def test_same_source_sink_rejected(self):
        net = FlowNetwork()
        s = net.add_node()
        with pytest.raises(ValueError):
            min_cost_max_flow(net, s, s)

    def test_fractional_capacity_rejected(self):
        net = FlowNetwork()
        s, t = net.add_node(), net.add_node()
        net.add_edge(s, t, 1.5)
        with pytest.raises(ValueError, match="integral"):
            min_cost_max_flow(net, s, t)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_gap_networks_match_oracle(workload):
    problem = WORKLOADS[workload]()
    context = DesignPipeline.standard().run(problem, DesignParameters(seed=GOLDEN_SEED))
    gap = build_gap_network(problem, context.rounded)
    assert gap.network.num_edges > 0
    check_against_oracle(gap.network, gap.source, gap.sink)
