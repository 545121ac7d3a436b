"""Minimum-cost maximum flow as one HiGHS linear program.

With integral capacities the node-edge incidence matrix of a flow network is
totally unimodular, so every vertex of the min-cost flow LP is integral and a
simplex solver returns an integral optimum directly.  The solve has two steps:

1. the maximum flow value ``F`` from :func:`scipy.sparse.csgraph.maximum_flow`
   on the integer capacities;
2. one dual-simplex ``linprog(method="highs-ds")`` minimising ``cost @ x``
   subject to conservation at every node, ``F`` units leaving the source and
   entering the sink, and ``0 <= x <= capacity``.

The returned flow is checked to be integral and to carry ``F`` before it is
written back to the network.  This is the routine behind the modified-GAP
rounding stage (paper Section 5, Figure 2), whose doubled capacities are
integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import maximum_flow

from repro.flow.graph import FlowNetwork
from repro.lp.backends import SolverError

#: Largest distance from an integer a simplex vertex's flow may have.
_INTEGRALITY_TOL = 1e-9


@dataclass(frozen=True)
class FlowResult:
    """Value (units from source to sink) and total cost of a solved flow."""

    value: float
    cost: float


def min_cost_max_flow(net: FlowNetwork, source: int, sink: int) -> FlowResult:
    """Maximum flow of minimum cost from ``source`` to ``sink``.

    Capacities must be integral and costs finite.  The optimal per-edge flow
    is stored in ``net.flow``.  Raises :class:`repro.lp.SolverError` if HiGHS
    does not report an optimum.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    tail = np.asarray(net.tail, dtype=np.int64)
    head = np.asarray(net.head, dtype=np.int64)
    capacity = np.asarray(net.capacity, dtype=float)
    cost = np.asarray(net.cost, dtype=float)
    if not np.array_equal(capacity, np.rint(capacity)):
        raise ValueError("min_cost_max_flow needs integral capacities")
    # Self-loops never carry flow.
    capacity = np.where(tail == head, 0.0, capacity)

    n, m = net.num_nodes, net.num_edges
    graph = sp.csr_array((capacity.astype(np.int64), (tail, head)), shape=(n, n))
    value = int(maximum_flow(graph, source, sink).flow_value)
    flow = np.zeros(m)
    if value > 0:
        flow = _min_cost_flow_at(n, tail, head, capacity, cost, source, sink, value)
    net.flow = flow.tolist()
    return FlowResult(value=float(value), cost=float(flow @ cost))


def _min_cost_flow_at(
    num_nodes: int,
    tail: np.ndarray,
    head: np.ndarray,
    capacity: np.ndarray,
    cost: np.ndarray,
    source: int,
    sink: int,
    value: int,
) -> np.ndarray:
    """Cheapest integral flow of exactly ``value`` units (step 2 above)."""
    m = len(tail)
    columns = np.arange(m)
    incidence = sp.csr_array(
        (
            np.concatenate([np.ones(m), -np.ones(m)]),
            (np.concatenate([head, tail]), np.concatenate([columns, columns])),
        ),
        shape=(num_nodes, m),
    )
    net_inflow = np.zeros(num_nodes)
    net_inflow[source] = -value
    net_inflow[sink] = value
    result = linprog(
        c=cost,
        A_eq=incidence,
        b_eq=net_inflow,
        bounds=np.column_stack([np.zeros(m), capacity]),
        method="highs-ds",
    )
    if result.status != 0:
        raise SolverError(
            f"min-cost flow LP failed (status {result.status}): {result.message}",
            backend="highs-ds",
            status_code=int(result.status),
        )
    flow = np.rint(result.x)
    drift = float(np.max(np.abs(result.x - flow)))
    if drift > _INTEGRALITY_TOL:
        raise AssertionError(f"min-cost flow is not integral (max drift {drift:.3g})")
    carried = flow[tail == source].sum() - flow[head == source].sum()
    if carried != value:
        raise AssertionError(f"min-cost flow carries {carried}, max flow is {value}")
    return flow
