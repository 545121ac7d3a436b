"""Tests for the OverlaySolution container (repro.core.solution)."""

from __future__ import annotations

import pytest

from repro.core.solution import OverlaySolution


@pytest.fixture
def manual_solution(tiny_problem):
    return OverlaySolution.from_assignments(
        tiny_problem,
        {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1"]},
        metadata={"algorithm": "manual"},
    )


class TestConstruction:
    def test_from_mapping_infers_builds_and_deliveries(self, tiny_problem, manual_solution):
        assert manual_solution.built_reflectors == {"r1", "r2"}
        assert manual_solution.stream_deliveries == {("s", "r1"), ("s", "r2")}
        assert manual_solution.assignments[("d1", "s")] == ["r1", "r2"]

    def test_from_pairs_iterable(self, tiny_problem):
        solution = OverlaySolution.from_assignments(
            tiny_problem, [("r1", ("d1", "s")), ("r2", ("d1", "s")), ("r1", ("d1", "s"))]
        )
        assert solution.assignments[("d1", "s")] == ["r1", "r2"]

    def test_duplicate_reflectors_deduplicated(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1", "r1"]})
        assert solution.assignments[("d1", "s")] == ["r1"]


class TestCost:
    def test_total_cost_components(self, tiny_problem, manual_solution):
        expected_reflector = 10.0 + 6.0
        expected_delivery = 1.0 + 0.8  # stream edges to r1 and r2
        expected_assignment = 0.6 + 0.4 + 0.7  # r1-d1, r2-d1, r1-d2
        assert manual_solution.reflector_cost() == pytest.approx(expected_reflector)
        assert manual_solution.stream_delivery_cost() == pytest.approx(expected_delivery)
        assert manual_solution.assignment_cost() == pytest.approx(expected_assignment)
        assert manual_solution.total_cost() == pytest.approx(
            expected_reflector + expected_delivery + expected_assignment
        )

    def test_empty_solution_costs_nothing(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {})
        assert solution.total_cost() == 0.0


class TestReliability:
    def test_failure_probability_is_product_of_path_failures(
        self, tiny_problem, manual_solution
    ):
        demand = tiny_problem.demands[0]  # d1
        q1 = tiny_problem.path_failure(demand, "r1")
        q2 = tiny_problem.path_failure(demand, "r2")
        assert manual_solution.failure_probability(demand) == pytest.approx(q1 * q2)
        assert manual_solution.success_probability(demand) == pytest.approx(1 - q1 * q2)

    def test_unserved_demand_has_zero_success(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        demand_d2 = tiny_problem.demands[1]
        assert solution.success_probability(demand_d2) == 0.0
        assert [d.key for d in solution.unserved_demands()] == [("d2", "s")]

    def test_weight_satisfaction(self, tiny_problem, manual_solution):
        demand = tiny_problem.demands[0]
        delivered = sum(
            tiny_problem.edge_weight(demand, r) for r in ("r1", "r2")
        )
        assert manual_solution.delivered_weight(demand) == pytest.approx(delivered)
        assert manual_solution.weight_satisfaction(demand) == pytest.approx(
            delivered / tiny_problem.demand_weight(demand)
        )

    def test_weight_success_probability_monotone_in_paths(self, tiny_problem):
        single = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        double = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1", "r2"]})
        demand = tiny_problem.demands[0]
        assert double.weight_success_probability(demand) >= single.weight_success_probability(
            demand
        )

    def test_demands_below_threshold(self, tiny_problem):
        # One lossy reflector alone cannot reach 0.995 for d1.
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r3"]})
        below = solution.demands_below_threshold()
        assert ("d1", "s") in [d.key for d in below]


class TestFanoutAndColors:
    def test_fanout_accounting(self, tiny_problem, manual_solution):
        assert manual_solution.fanout_used("r1") == 2
        assert manual_solution.fanout_used("r2") == 1
        assert manual_solution.fanout_used("r3") == 0
        assert manual_solution.fanout_factor("r1") == pytest.approx(2 / 3)
        assert manual_solution.max_fanout_factor() == pytest.approx(2 / 3)

    def test_empty_solution_fanout_zero(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {})
        assert solution.max_fanout_factor() == 0.0

    def test_bandwidth_used(self, tiny_problem, manual_solution):
        assert manual_solution.bandwidth_used("r1") == pytest.approx(2.0)  # two demands x B=1

    def test_color_violations(self, colored_problem):
        demand = colored_problem.demands[0]
        candidates = colored_problem.candidate_reflectors(demand)
        # Find two candidates sharing a color to force a violation.
        by_color: dict = {}
        for reflector in candidates:
            by_color.setdefault(colored_problem.color(reflector), []).append(reflector)
        shared = next((rs for rs in by_color.values() if len(rs) >= 2), None)
        if shared is None:
            pytest.skip("instance has no same-color candidate pair for this demand")
        solution = OverlaySolution.from_assignments(
            colored_problem, {demand.key: shared[:2]}
        )
        violations = solution.color_violations()
        assert violations and violations[0][0].key == demand.key

    def test_summary_keys(self, tiny_problem, manual_solution):
        summary = manual_solution.summary()
        for key in (
            "total_cost",
            "reflectors_built",
            "assignments",
            "unserved_demands",
            "min_weight_satisfaction",
            "max_fanout_factor",
        ):
            assert key in summary
        assert summary["reflectors_built"] == 2
        assert summary["assignments"] == 3


def _summary_by_methods(solution: OverlaySolution) -> dict:
    """``summary()`` spelled out through the per-quantity methods."""
    demands = solution.problem.demands
    satisfactions = [solution.weight_satisfaction(d) for d in demands]
    successes = [solution.success_probability(d) for d in demands]
    return {
        "total_cost": solution.total_cost(),
        "reflectors_built": len(solution.built_reflectors),
        "assignments": sum(len(v) for v in solution.assignments.values()),
        "unserved_demands": len(solution.unserved_demands()),
        "min_weight_satisfaction": min(satisfactions) if satisfactions else 1.0,
        "mean_weight_satisfaction": (
            sum(satisfactions) / len(satisfactions) if satisfactions else 1.0
        ),
        "min_success_probability": min(successes) if successes else 1.0,
        "max_fanout_factor": solution.max_fanout_factor(),
        "demands_below_threshold": len(solution.demands_below_threshold()),
    }


class TestSummaryMatchesMethods:
    """``summary()`` is one pass, but bit-identical to the method definitions."""

    @pytest.mark.parametrize("strategy", ["spaa03", "greedy", "random"])
    @pytest.mark.parametrize("workload", ["random-mid", "akamai-small"])
    def test_designed_solutions(self, workload, strategy):
        from repro.api import DesignRequest, run_request
        from repro.core.algorithm import DesignParameters
        from test_golden_designs import GOLDEN_SEED, WORKLOADS

        problem = WORKLOADS[workload]()
        solution = run_request(
            DesignRequest(
                problem=problem,
                parameters=DesignParameters(seed=GOLDEN_SEED),
                strategy=strategy,
            )
        ).solution
        assert solution.summary() == _summary_by_methods(solution)

    def test_partial_and_empty_solutions(self, tiny_problem, manual_solution):
        # d1 served twice, d2 once, any further demand unserved.
        assert manual_solution.summary() == _summary_by_methods(manual_solution)
        empty = OverlaySolution(problem=tiny_problem)
        assert empty.summary() == _summary_by_methods(empty)
        assert empty.summary()["max_fanout_factor"] == 0.0
