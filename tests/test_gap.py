"""Tests for the Section-5 modified GAP rounding (repro.core.gap)."""

from __future__ import annotations

import pytest

from repro.core.formulation import build_sparse_formulation
from repro.core.gap import (
    WeightBox,
    build_boxes_for_demand,
    build_gap_network,
    gap_round,
    solve_gap,
)
from repro.core.problem import Demand
from repro.core.rounding import RoundingParameters, round_solution
from repro.flow import assert_feasible_flow


@pytest.fixture
def rounded_tiny(tiny_problem):
    formulation = build_sparse_formulation(tiny_problem)
    fractional = formulation.fractional_solution(formulation.solve()).support()
    return round_solution(tiny_problem, fractional, RoundingParameters(c=64.0, seed=0))


class TestBoxConstruction:
    DEMAND = Demand("d", "s", 0.99)

    def test_single_full_unit_gives_one_box(self):
        boxes = build_boxes_for_demand(self.DEMAND, [("r1", 3.0, 1.0)])
        # floor(2 * 1.0) = 2 boxes, last dropped -> 1 box.
        assert len(boxes) == 1
        assert boxes[0].upper == pytest.approx(3.0)
        assert boxes[0].contains(3.0)

    def test_two_units_of_mass_give_three_boxes(self):
        entries = [("r1", 5.0, 1.0), ("r2", 4.0, 0.6), ("r3", 3.0, 0.4)]
        boxes = build_boxes_for_demand(self.DEMAND, entries)
        # total mass 2.0 -> 4 raw boxes, drop last -> 3.
        assert len(boxes) == 3
        # Boxes are ordered by decreasing weight intervals.
        for earlier, later in zip(boxes, boxes[1:]):
            assert earlier.lower >= later.upper - 1e-12 or earlier.lower >= later.lower

    def test_interval_endpoints_follow_sorted_weights(self):
        entries = [("a", 10.0, 0.5), ("b", 6.0, 0.5), ("c", 2.0, 0.5)]
        boxes = build_boxes_for_demand(self.DEMAND, entries)
        # cumulative crosses 0.5 at a, 1.0 at b, 1.5 at c -> 3 raw boxes, 2 kept.
        assert len(boxes) == 2
        assert boxes[0].upper == pytest.approx(10.0)
        assert boxes[0].lower == pytest.approx(10.0)
        assert boxes[1].upper == pytest.approx(10.0)
        assert boxes[1].lower == pytest.approx(6.0)

    def test_degenerate_mass_keeps_one_box_by_default(self):
        boxes = build_boxes_for_demand(self.DEMAND, [("r1", 3.0, 0.6)])
        assert len(boxes) == 1

    def test_degenerate_mass_dropped_in_strict_paper_mode(self):
        boxes = build_boxes_for_demand(
            self.DEMAND, [("r1", 3.0, 0.6)], keep_degenerate_box=False
        )
        assert boxes == []

    def test_zero_mass_gives_no_boxes(self):
        assert build_boxes_for_demand(self.DEMAND, [("r1", 3.0, 0.0)]) == []
        assert build_boxes_for_demand(self.DEMAND, []) == []

    def test_box_contains_tolerance(self):
        box = WeightBox(("d", "s"), 0, upper=2.0, lower=1.0)
        assert box.contains(1.0)
        assert box.contains(2.0)
        assert box.contains(1.5)
        assert not box.contains(0.5)
        assert not box.contains(2.5)


class TestGapNetworkStructure:
    def test_network_levels_and_capacities(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        net = gap.network
        # Every pair edge has doubled capacity 2; every source->reflector edge 2F.
        reflector_of_node = {}
        for (reflector, _demand_key), edge_id in gap.pair_edge.items():
            assert net.capacity[edge_id] == pytest.approx(2.0)
            reflector_of_node[net.tail[edge_id]] = reflector
        source_edges = [e for e in range(net.num_edges) if net.tail[e] == gap.source]
        assert sorted(net.head[e] for e in source_edges) == sorted(reflector_of_node)
        for edge_id in source_edges:
            reflector = reflector_of_node[net.head[edge_id]]
            assert net.capacity[edge_id] == pytest.approx(2.0 * tiny_problem.fanout(reflector))
        # Box -> T edges are exactly the recorded box edges, capacity 1.
        sink_edges = [e for e in range(net.num_edges) if net.head[e] == gap.sink]
        assert sink_edges == gap.box_edges
        assert all(net.capacity[e] == pytest.approx(1.0) for e in sink_edges)

    def test_total_demand_counts_boxes(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        assert gap.total_demand == len(gap.boxes)
        assert gap.total_demand >= tiny_problem.num_demands  # at least one box per served demand

    def test_pair_edges_connect_only_matching_boxes(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        demand_lookup = {d.key: d for d in tiny_problem.demands}
        box_of_node = {
            gap.network.tail[edge_id]: box for box, edge_id in zip(gap.boxes, gap.box_edges)
        }
        for key, edges in gap.pair_box_edges.items():
            reflector, demand_key = key
            weight = tiny_problem.edge_weight(demand_lookup[demand_key], reflector)
            for edge_id in edges:
                box = box_of_node[gap.network.head[edge_id]]
                assert box.demand_key == demand_key
                assert box.contains(weight)


class TestGapSolve:
    def test_flow_feasible_and_boxes_served(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        result = solve_gap(tiny_problem, gap)
        assert_feasible_flow(gap.network, gap.source, gap.sink)
        assert result.boxes_served <= result.boxes_total
        assert result.flow_value == pytest.approx(result.boxes_served, abs=1e-6)
        assert result.assignments, "expected at least one assignment"

    def test_assignments_subset_of_support(self, tiny_problem, rounded_tiny):
        result = gap_round(tiny_problem, rounded_tiny)
        assert set(result.assignments) <= set(rounded_tiny.x.keys())

    def test_weight_preserved_at_least_quarter(self, small_random_problem):
        """Section-5 guarantee: final weight >= 1/4 of the requirement (with paper c)."""
        formulation = build_sparse_formulation(small_random_problem)
        fractional = formulation.fractional_solution(formulation.solve()).support()
        rounded = round_solution(
            small_random_problem, fractional, RoundingParameters(c=64.0, seed=1)
        )
        result = gap_round(small_random_problem, rounded)
        served: dict = {}
        for reflector, demand_key in result.assignments:
            served.setdefault(demand_key, []).append(reflector)
        for demand in small_random_problem.demands:
            delivered = sum(
                small_random_problem.edge_weight(demand, r)
                for r in served.get(demand.key, [])
            )
            required = small_random_problem.demand_weight(demand)
            assert delivered >= required / 4.0 - 1e-9

    def test_fanout_violation_bounded_by_four(self, small_random_problem):
        formulation = build_sparse_formulation(small_random_problem)
        fractional = formulation.fractional_solution(formulation.solve()).support()
        rounded = round_solution(
            small_random_problem, fractional, RoundingParameters(c=64.0, seed=3)
        )
        result = gap_round(small_random_problem, rounded)
        load: dict = {}
        for reflector, _demand_key in result.assignments:
            load[reflector] = load.get(reflector, 0) + 1
        for reflector, used in load.items():
            assert used <= 4 * small_random_problem.fanout(reflector) + 1e-9

    def test_cost_accounts_delivery_edges(self, tiny_problem, rounded_tiny):
        result = gap_round(tiny_problem, rounded_tiny)
        expected = sum(
            tiny_problem.delivery_cost(reflector, sink, stream)
            for reflector, (sink, stream) in result.assignments
        )
        assert result.cost == pytest.approx(expected)

    def test_empty_rounding_gives_empty_result(self, tiny_problem, rounded_tiny):
        rounded_tiny.x = {}
        result = gap_round(tiny_problem, rounded_tiny)
        assert result.assignments == set()
        assert result.boxes_total == 0
