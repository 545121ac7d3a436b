"""Directed flow network stored as parallel per-edge arrays.

The Figure-2 network of :mod:`repro.core.gap` is built edge by edge and then
handed whole to an LP solver (:func:`repro.flow.solve.min_cost_max_flow`), so
the container keeps only what that solve reads and writes: per edge its tail,
head, capacity, per-unit cost and flow.  Nodes are integer indices and an edge
id is the edge's position in the arrays.
"""

from __future__ import annotations

import math


class FlowNetwork:
    """A directed graph with edge capacities, per-unit costs and a stored flow.

    Parallel edges and self-loops are allowed; self-loops never carry flow.

    Examples
    --------
    >>> net = FlowNetwork()
    >>> s, a, t = net.add_node(), net.add_node(), net.add_node()
    >>> _ = net.add_edge(s, a, capacity=2.0, cost=1.0)
    >>> _ = net.add_edge(a, t, capacity=1.0, cost=0.0)
    >>> net.num_nodes, net.num_edges
    (3, 2)
    """

    def __init__(self) -> None:
        self.num_nodes = 0
        self.tail: list[int] = []
        self.head: list[int] = []
        self.capacity: list[float] = []
        self.cost: list[float] = []
        #: Flow per edge; all zero until a solver writes it.
        self.flow: list[float] = []

    @property
    def num_edges(self) -> int:
        return len(self.tail)

    def add_node(self) -> int:
        """Add a node and return its integer index."""
        self.num_nodes += 1
        return self.num_nodes - 1

    def add_edge(self, tail: int, head: int, capacity: float, cost: float = 0.0) -> int:
        """Add a directed edge with a non-negative capacity; return its edge id."""
        if not capacity >= 0 or math.isinf(capacity):
            raise ValueError(f"capacity must be finite and non-negative, got {capacity}")
        if not math.isfinite(cost):
            raise ValueError(f"cost must be finite, got {cost}")
        if not (0 <= tail < self.num_nodes) or not (0 <= head < self.num_nodes):
            raise IndexError("tail/head out of range; add nodes first")
        self.tail.append(tail)
        self.head.append(head)
        self.capacity.append(float(capacity))
        self.cost.append(float(cost))
        self.flow.append(0.0)
        return len(self.tail) - 1

    def flow_on(self, edge_id: int) -> float:
        """Current flow on edge ``edge_id``."""
        return self.flow[edge_id]

    def total_flow_cost(self) -> float:
        """Cost of the stored flow (sum of flow * cost per edge)."""
        return sum(flow * cost for flow, cost in zip(self.flow, self.cost))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"FlowNetwork(nodes={self.num_nodes}, edges={self.num_edges})"
