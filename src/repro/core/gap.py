"""Modified generalized-assignment (GAP) rounding -- Section 5 / Figure 2.

After the Section-3 rounding the only fractional variables left are the
assignment values ``x_bar``.  The paper converts them to a 0/1 solution by
building a five-level flow network (Figure 2) and extracting a half-integral
min-cost flow:

* **level 1** -- a super source ``s``;
* **level 2** -- the reflectors; edge ``s -> i`` with capacity ``F_i``;
* **level 3** -- (reflector, sink) pairs with ``x_bar != 0``; edge
  ``i -> (i, j)`` with capacity 1;
* **level 4** -- per sink ``j``, ``s_j = floor(2 * sum_i x_bar_ij)`` *boxes*.
  The weights ``w_ij`` of the sink's candidate pairs are sorted in decreasing
  order and the ``x_bar`` mass is walked through in chunks of 1/2; each chunk
  defines a box whose *weight interval* spans the weights consumed by the
  chunk.  The last box is dropped.  A pair connects to every box whose
  interval contains its weight, with capacity 1/2;
* **level 5** -- a super sink ``T``; every box connects to it with capacity
  1/2, and the demand is 1/2 per box.

The fractional ``x_bar`` (reduced to respect capacities) saturates all box
demands, so a max flow saturates them too; because all capacities are
multiples of 1/2 there is a *half-integral* min-cost max flow.  Interpreting
"pair (i, j) carries positive flow" as ``x_ij = 1`` ("doubling the halves")
yields the final integral solution, which violates fanout by at most another
factor 2 (total 4) and preserves at least half the delivered weight (total
factor 4, i.e. the final failure probability is at most the fourth root of
the target).

Implementation notes
---------------------
* All capacities are doubled so the network is integral; dividing by two
  recovers the paper's half-integral flow.  Integral capacities make the
  incidence matrix totally unimodular, so :func:`repro.flow.min_cost_max_flow`
  solves the min-cost max flow as one HiGHS LP (max-flow value from
  :func:`scipy.sparse.csgraph.maximum_flow`, then a dual-simplex solve at that
  value) and gets an integral vertex back.
* Degenerate box counts: if ``sum_i x_bar_ij < 1`` the paper's rule would give
  zero boxes after dropping the last one, which would leave the demand
  entirely unserved.  We keep a single box in that case (and only drop the
  last box when ``s_j >= 2``); this is a strict improvement in delivered
  weight and never hurts the other guarantees.  ``keep_degenerate_box=False``
  follows the paper literally.
* Costs: the per-unit cost of the ``i -> (i, j)`` edge is half the assignment
  cost, so that the doubled flow pays exactly the assignment cost when a pair
  is fully used and half of it when it is used "halfway" (the paper accounts
  for the doubling inside its O(log n) cost factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.lp_solution import AssignmentKey, RoundedSolution
from repro.core.problem import Demand, OverlayDesignProblem
from repro.flow import FlowNetwork, min_cost_max_flow

#: x_bar values smaller than this are treated as zero mass.
_MASS_TOL = 1e-12


@dataclass(frozen=True)
class WeightBox:
    """A level-4 box: half a unit of demanded weight for one sink.

    ``upper``/``lower`` bound the weights of the pairs allowed to serve this
    box (inclusive); boxes of the same demand are ordered by decreasing weight.
    """

    demand_key: tuple[str, str]
    index: int
    upper: float
    lower: float

    def contains(self, weight: float, tol: float = 1e-12) -> bool:
        return self.lower - tol <= weight <= self.upper + tol


@dataclass
class GapNetwork:
    """The constructed Figure-2 network plus bookkeeping to read the flow back."""

    network: FlowNetwork
    source: int
    sink: int
    boxes: list[WeightBox]
    #: edge id of the reflector -> (reflector, demand) pair edge, per assignment key
    pair_edge: dict[AssignmentKey, int]
    #: edge ids of pair -> box edges, per assignment key
    pair_box_edges: dict[AssignmentKey, list[int]] = field(default_factory=dict)
    #: edge id of each box's box -> T edge, aligned with ``boxes``
    box_edges: list[int] = field(default_factory=list)
    #: total (doubled) demand, i.e. number of boxes
    total_demand: int = 0


@dataclass
class GapResult:
    """Outcome of the GAP stage.

    Attributes
    ----------
    assignments:
        The final 0/1 choice: set of (reflector, demand-key) pairs served.
    flow_value:
        Amount of (doubled) flow routed; equals ``boxes_total`` when every box
        demand was saturated.
    boxes_total, boxes_served:
        Number of boxes constructed / saturated -- the audit uses the gap
        between them to report unserved weight.
    cost:
        Cost of the extracted flow (assignment-cost scale, see module notes).
    """

    assignments: set[AssignmentKey]
    flow_value: float
    boxes_total: int
    boxes_served: int
    cost: float


def build_boxes_for_demand(
    demand: Demand,
    entries: list[tuple[str, float, float]],
    keep_degenerate_box: bool = True,
) -> list[WeightBox]:
    """Construct the level-4 boxes for one demand.

    Parameters
    ----------
    demand:
        The (sink, stream) demand.
    entries:
        List of ``(reflector, weight, x_bar)`` with positive ``x_bar``.
    keep_degenerate_box:
        Keep one box when the paper's rule would produce none (see module
        notes).  Disable to follow the paper literally.

    Returns
    -------
    list[WeightBox]
        Boxes ordered by decreasing weight interval.
    """
    entries = [e for e in entries if e[2] > _MASS_TOL]
    if not entries:
        return []
    # Sort by decreasing weight (the paper's w_{1j} >= w_{2j} >= ...).
    entries.sort(key=lambda item: (-item[1], item[0]))
    total_mass = sum(x for _, _, x in entries)
    box_count = int(2.0 * total_mass + 1e-9)

    raw_boxes: list[tuple[float, float]] = []
    cumulative = 0.0
    current_upper = entries[0][1]
    target = 0.5
    for _, weight, mass in entries:
        cumulative += mass
        # Close as many half-unit boxes as this entry's mass completes.
        while cumulative >= target - 1e-12 and len(raw_boxes) < box_count:
            raw_boxes.append((current_upper, weight))
            current_upper = weight
            target += 0.5

    # Paper: "eliminate the last box for each sink".  With the degenerate-case
    # handling enabled we never drop below one box (and synthesise one spanning
    # the full weight range if the paper's rule would produce none at all).
    if keep_degenerate_box:
        if len(raw_boxes) >= 2:
            raw_boxes = raw_boxes[:-1]
        elif not raw_boxes and total_mass > _MASS_TOL:
            raw_boxes = [(entries[0][1], entries[-1][1])]
    else:
        raw_boxes = raw_boxes[:-1]

    return [
        WeightBox(demand_key=demand.key, index=idx, upper=hi, lower=lo)
        for idx, (hi, lo) in enumerate(raw_boxes)
    ]


def build_gap_network(
    problem: OverlayDesignProblem,
    rounded: RoundedSolution,
    keep_degenerate_box: bool = True,
) -> GapNetwork:
    """Build the (doubled-capacity) Figure-2 network from a rounded solution."""
    net = FlowNetwork()
    source = net.add_node()
    sink = net.add_node()

    # Group surviving x_bar values by demand.
    by_demand: dict[tuple[str, str], list[tuple[str, float, float]]] = {}
    for (reflector, demand_key), value in rounded.x.items():
        if value <= _MASS_TOL:
            continue
        by_demand.setdefault(demand_key, []).append((reflector, 0.0, value))

    demand_lookup = {demand.key: demand for demand in problem.demands}

    # Level 2: reflectors present in the support.
    reflector_nodes: dict[str, int] = {}
    for (reflector, _demand_key) in rounded.x:
        if reflector not in reflector_nodes:
            reflector_nodes[reflector] = net.add_node()
            net.add_edge(
                source,
                reflector_nodes[reflector],
                capacity=2.0 * problem.fanout(reflector),
                cost=0.0,
            )

    boxes: list[WeightBox] = []
    pair_edge: dict[AssignmentKey, int] = {}
    pair_box_edges: dict[AssignmentKey, list[int]] = {}
    box_edges: list[int] = []

    for demand_key, entries in by_demand.items():
        demand = demand_lookup[demand_key]
        # Fill in the weights (deferred above to avoid recomputing per entry).
        entries = [
            (reflector, problem.edge_weight(demand, reflector), value)
            for reflector, _w, value in entries
        ]
        demand_boxes = build_boxes_for_demand(demand, entries, keep_degenerate_box)
        if not demand_boxes:
            continue
        # Level 4/5: box nodes and their edges to the super sink.
        box_nodes: list[int] = []
        for box in demand_boxes:
            node = net.add_node()
            box_edges.append(net.add_edge(node, sink, capacity=1.0, cost=0.0))  # 1/2 doubled
            box_nodes.append(node)
            boxes.append(box)
        # Level 3: (reflector, demand) pair nodes.
        for reflector, weight, value in entries:
            key: AssignmentKey = (reflector, demand_key)
            pair_node = net.add_node()
            cost = problem.assignment_cost(demand, reflector) / 2.0
            pair_edge[key] = net.add_edge(
                reflector_nodes[reflector], pair_node, capacity=2.0, cost=cost
            )
            edges: list[int] = []
            for box, box_node in zip(demand_boxes, box_nodes):
                if box.contains(weight):
                    edges.append(net.add_edge(pair_node, box_node, capacity=1.0, cost=0.0))
            pair_box_edges[key] = edges

    return GapNetwork(
        network=net,
        source=source,
        sink=sink,
        boxes=boxes,
        pair_edge=pair_edge,
        pair_box_edges=pair_box_edges,
        box_edges=box_edges,
        total_demand=len(boxes),
    )


def solve_gap(problem: OverlayDesignProblem, gap: GapNetwork) -> GapResult:
    """Extract the min-cost max flow from a built GAP network and read it back."""
    result = min_cost_max_flow(gap.network, gap.source, gap.sink)

    assignments: set[AssignmentKey] = set()
    cost = 0.0
    for key, edge_id in gap.pair_edge.items():
        flow = gap.network.flow_on(edge_id)
        if flow > 0.5:  # any positive (doubled) flow means the pair is used
            assignments.add(key)
            reflector, (sink_name, stream) = key
            cost += problem.delivery_cost(reflector, sink_name, stream)

    boxes_served = sum(gap.network.flow_on(edge_id) > 0.5 for edge_id in gap.box_edges)

    return GapResult(
        assignments=assignments,
        flow_value=result.value,
        boxes_total=gap.total_demand,
        boxes_served=boxes_served,
        cost=cost,
    )


def gap_round(
    problem: OverlayDesignProblem,
    rounded: RoundedSolution,
    keep_degenerate_box: bool = True,
) -> GapResult:
    """Convenience wrapper: build the Figure-2 network and solve it."""
    gap = build_gap_network(problem, rounded, keep_degenerate_box)
    return solve_gap(problem, gap)
