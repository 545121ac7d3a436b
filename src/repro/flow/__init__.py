"""Flow-network substrate.

This subpackage holds the flow machinery required by the modified
generalized-assignment (GAP) rounding stage of the SPAA'03 overlay design
algorithm (Section 5 of the paper, Figure 2): a flat edge-array network and a
min-cost max-flow solve that hands the network to HiGHS as one LP (exact,
because the incidence matrix of an integral-capacity network is totally
unimodular).

Public API
----------
``FlowNetwork``
    Directed flow network with capacities, per-unit costs and a stored flow.
``min_cost_max_flow``
    Maximum flow of minimum cost between two terminals.
``FlowResult``
    Result container (flow value and cost).
"""

from repro.flow.graph import FlowNetwork
from repro.flow.solve import FlowResult, min_cost_max_flow
from repro.flow.validation import (
    assert_feasible_flow,
    flow_conservation_violations,
    is_feasible_flow,
)

__all__ = [
    "FlowNetwork",
    "FlowResult",
    "min_cost_max_flow",
    "assert_feasible_flow",
    "flow_conservation_violations",
    "is_feasible_flow",
]
