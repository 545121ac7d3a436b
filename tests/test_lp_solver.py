"""Tests for the LP solver entry point (repro.lp.solver.solve_compiled)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import CompiledLP, LPStatus, Objective, Sense, SparseLPBuilder, solve_compiled


def dense_lp(
    costs,
    constraints=(),
    lower=0.0,
    upper=np.inf,
    objective: Objective = Objective.MINIMIZE,
) -> CompiledLP:
    """A small LP from dense rows; ``constraints`` holds ``(coefficients, sense, rhs)``."""
    builder = SparseLPBuilder(objective_sense=objective)
    x = builder.add_variables(len(costs), lower, upper, name="x")
    builder.add_objective_terms(x, costs)
    for i, (coefficients, sense, rhs) in enumerate(constraints):
        coefficients = np.asarray(coefficients, dtype=float)
        support = np.flatnonzero(coefficients)
        builder.add_block(
            f"row{i}",
            np.zeros(support.size, dtype=np.int64),
            x[support],
            coefficients[support],
            [rhs],
            sense,
        )
    return builder.build()[0]


class TestSolveBasics:
    def test_simple_minimization(self):
        # min 3x + y  s.t.  x + y >= 2: the cheapest way to 2 units is all y.
        solution = solve_compiled(dense_lp([3.0, 1.0], [([1, 1], Sense.GE, 2.0)]))
        assert solution.is_optimal
        assert solution.values[1] == pytest.approx(2.0, abs=1e-6)
        assert solution.values[0] == pytest.approx(0.0, abs=1e-6)
        assert solution.objective == pytest.approx(2.0, abs=1e-6)

    def test_simple_maximization(self):
        solution = solve_compiled(
            dense_lp(
                [1.0, 2.0],
                [([1, 1], Sense.LE, 5.0)],
                upper=np.array([4.0, 3.0]),
                objective=Objective.MAXIMIZE,
            )
        )
        assert solution.is_optimal
        assert solution.objective == pytest.approx(8.0, abs=1e-6)
        assert solution.values[1] == pytest.approx(3.0, abs=1e-6)

    def test_equality_constraints(self):
        solution = solve_compiled(dense_lp([1.0, 2.0], [([1, 1], Sense.EQ, 1.0)]))
        assert solution.is_optimal
        assert solution.values[0] == pytest.approx(1.0, abs=1e-6)

    def test_lower_bounds_respected(self):
        # min x + y with x >= 1.5 from its bound and y >= 0.5 from its bound.
        solution = solve_compiled(dense_lp([1.0, 1.0], lower=np.array([1.5, 0.5])))
        assert solution.is_optimal
        assert solution.values.tolist() == pytest.approx([1.5, 0.5], abs=1e-9)
        assert solution.objective == pytest.approx(2.0, abs=1e-9)

    def test_free_variable(self):
        # min x  s.t.  x - y == -3,  0 <= y <= 1,  x free: x = -3 at y = 0.
        solution = solve_compiled(
            dense_lp(
                [1.0, 0.0],
                [([1, -1], Sense.EQ, -3.0)],
                lower=np.array([-np.inf, 0.0]),
                upper=np.array([np.inf, 1.0]),
            )
        )
        assert solution.is_optimal
        assert solution.values[0] == pytest.approx(-3.0, abs=1e-9)
        assert solution.objective == pytest.approx(-3.0, abs=1e-9)

    def test_mixed_senses(self):
        # max 3x + 2y  s.t.  x + y <= 4,  x - y >= -1,  x + 3y == 6: x = 3, y = 1.
        solution = solve_compiled(
            dense_lp(
                [3.0, 2.0],
                [([1, 1], Sense.LE, 4.0), ([1, -1], Sense.GE, -1.0), ([1, 3], Sense.EQ, 6.0)],
                objective=Objective.MAXIMIZE,
            )
        )
        assert solution.is_optimal
        assert solution.values.tolist() == pytest.approx([3.0, 1.0], abs=1e-9)
        assert solution.objective == pytest.approx(11.0, abs=1e-9)

    @pytest.mark.parametrize("objective", list(Objective))
    def test_objective_is_cost_times_values(self, objective):
        costs = [2.0, -1.0, 0.5]
        solution = solve_compiled(
            dense_lp(costs, [([1, 1, 1], Sense.LE, 2.0)], upper=1.0, objective=objective)
        )
        assert solution.is_optimal
        assert solution.objective == pytest.approx(float(np.dot(costs, solution.values)))

    def test_empty_model(self):
        solution = solve_compiled(dense_lp([]))
        assert solution.is_optimal
        assert solution.objective == 0.0
        assert solution.values.size == 0


class TestSolveFailures:
    def test_infeasible(self):
        solution = solve_compiled(dense_lp([1.0], [([1], Sense.GE, 2.0)], upper=1.0))
        assert solution.status is LPStatus.INFEASIBLE
        assert not solution.is_optimal

    def test_unbounded(self):
        solution = solve_compiled(dense_lp([1.0], objective=Objective.MAXIMIZE))
        assert solution.status in (LPStatus.UNBOUNDED, LPStatus.INFEASIBLE)
        assert not solution.is_optimal


class TestAgainstKnownOptima:
    def test_transportation_problem(self):
        """2 plants x 3 markets transportation LP with a hand-checked optimum."""
        supply = {"p1": 20.0, "p2": 30.0}
        demand = {"m1": 10.0, "m2": 25.0, "m3": 15.0}
        cost = {
            ("p1", "m1"): 2.0,
            ("p1", "m2"): 4.0,
            ("p1", "m3"): 5.0,
            ("p2", "m1"): 3.0,
            ("p2", "m2"): 1.0,
            ("p2", "m3"): 7.0,
        }
        lanes = list(cost)
        rows = [
            ([float(lane[0] == plant) for lane in lanes], Sense.LE, cap)
            for plant, cap in supply.items()
        ] + [
            ([float(lane[1] == market) for lane in lanes], Sense.GE, need)
            for market, need in demand.items()
        ]
        solution = solve_compiled(dense_lp([cost[lane] for lane in lanes], rows))
        assert solution.is_optimal
        # Optimal plan: p1->m1 5, p1->m3 15, p2->m1 5, p2->m2 25 (cost 125);
        # keeping the expensive p2->m3 lane empty is what makes it optimal.
        expected = 5 * 2.0 + 15 * 5.0 + 5 * 3.0 + 25 * 1.0
        assert solution.objective == pytest.approx(expected, abs=1e-6)
