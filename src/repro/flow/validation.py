"""Validation helpers for flows.

These are used both by the test suite (as invariants for property-based
testing of the solver) and by the GAP benchmark scenario, which asserts that
the flow it reads back from the Figure-2 network is feasible.
"""

from __future__ import annotations

from repro.flow.graph import FlowNetwork

_DEFAULT_TOL = 1e-7


def flow_conservation_violations(
    net: FlowNetwork,
    source: int,
    sink: int,
    tol: float = _DEFAULT_TOL,
) -> dict[int, float]:
    """Net imbalance (inflow - outflow) at every node other than the terminals.

    Returns a mapping ``node -> imbalance`` restricted to nodes whose
    imbalance exceeds ``tol`` in absolute value.  An empty mapping means the
    stored flow conserves mass everywhere it should.
    """
    imbalance = [0.0] * net.num_nodes
    for tail, head, flow in zip(net.tail, net.head, net.flow):
        imbalance[tail] -= flow
        imbalance[head] += flow
    return {
        node: excess
        for node, excess in enumerate(imbalance)
        if node not in (source, sink) and abs(excess) > tol
    }


def is_feasible_flow(
    net: FlowNetwork,
    source: int,
    sink: int,
    tol: float = _DEFAULT_TOL,
) -> bool:
    """Whether the stored flow respects capacities and conservation."""
    try:
        assert_feasible_flow(net, source, sink, tol)
    except AssertionError:
        return False
    return True


def assert_feasible_flow(
    net: FlowNetwork,
    source: int,
    sink: int,
    tol: float = _DEFAULT_TOL,
) -> None:
    """Raise ``AssertionError`` with a diagnostic message if the flow is infeasible."""
    for edge_id, (flow, capacity) in enumerate(zip(net.flow, net.capacity)):
        if flow < -tol or flow > capacity + tol:
            raise AssertionError(
                f"edge {edge_id} ({net.tail[edge_id]}->{net.head[edge_id]}) carries "
                f"{flow} but has capacity {capacity}"
            )
    violations = flow_conservation_violations(net, source, sink, tol)
    if violations:
        raise AssertionError(f"flow conservation violated at nodes {violations}")
