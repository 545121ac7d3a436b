"""Tests for the Section-2 LP formulation (repro.core.formulation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.formulation import (
    ExtensionOptions,
    SparseOverlayFormulation,
    build_sparse_formulation,
)
from repro.core.problem import OverlayDesignProblem
from repro.lp import Sense


def families(formulation: SparseOverlayFormulation) -> list[str]:
    """Paper labels of the emitted constraint families, e.g. ``["(1)", "(2)"]``."""
    return [block.name.split()[0] for block in formulation.stats.blocks]


def family_rows(formulation: SparseOverlayFormulation, label: str):
    """``(A, b, block)`` of one family in its own sense (``>=`` rows un-negated).

    The formulation has no equality blocks, so every block sits in ``A_ub``
    in emission order.
    """
    offset = 0
    for block in formulation.stats.blocks:
        if block.name.split()[0] == label:
            rows = slice(offset, offset + block.rows)
            flip = -1.0 if block.sense is Sense.GE else 1.0
            compiled = formulation.compiled
            return flip * compiled.A_ub[rows].toarray(), flip * compiled.b_ub[rows], block
        offset += block.rows
    raise KeyError(label)


class TestFormulationStructure:
    def test_variable_counts(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        # z per reflector, y per stream edge, x per (reflector, demand) pair.
        assert len(formulation.z_keys) == 3
        assert len(formulation.y_keys) == 3
        assert len(formulation.x_keys) == 6
        assert formulation.num_variables == 12
        assert formulation.compiled.bounds.tolist() == [[0.0, 1.0]] * 12

    def test_constraint_families_present(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        assert families(formulation) == ["(1)", "(2)", "(3)", "(4)", "(5)"]
        assert formulation.compiled.A_eq is None
        assert formulation.num_constraints == sum(block.rows for block in formulation.stats.blocks)

    def test_weight_constraints_are_ge(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        _A, rhs, block = family_rows(formulation, "(5)")
        assert block.rows == tiny_problem.num_demands
        assert block.sense is Sense.GE
        assert (rhs > 0).all()

    def test_cutting_plane_can_be_dropped(self, tiny_problem):
        base = build_sparse_formulation(tiny_problem)
        without = build_sparse_formulation(tiny_problem, ExtensionOptions(drop_cutting_plane=True))
        assert "(4)" in families(base)
        assert "(4)" not in families(without)
        assert without.num_constraints < base.num_constraints

    def test_weights_cached_consistently(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        for (reflector, demand_key), weight in formulation.weights.items():
            demand = next(d for d in tiny_problem.demands if d.key == demand_key)
            assert weight == pytest.approx(tiny_problem.edge_weight(demand, reflector))

    def test_assignment_key_queries(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        demand = tiny_problem.demands[0]
        keys = formulation.assignment_keys_for_demand(demand)
        assert len(keys) == 3
        assert all(key[1] == demand.key for key in keys)
        r1_keys = formulation.assignment_keys_for_reflector("r1")
        assert len(r1_keys) == 2

    def test_objective_vector_is_the_paper_costs(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        edges = {(e.stream, e.reflector): e.cost for e in tiny_problem.stream_edges()}
        expected = (
            [tiny_problem.reflector_cost(r) for r in formulation.z_keys]
            + [edges[key] for key in formulation.y_keys]
            + [
                tiny_problem.delivery_cost(reflector, sink, stream)
                for reflector, (sink, stream) in formulation.x_keys
            ]
        )
        assert formulation.compiled.c.tolist() == pytest.approx(expected)

    def test_y_le_z_rows(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        A, rhs, block = family_rows(formulation, "(1)")
        assert block.rows == len(formulation.y_keys) and block.sense is Sense.LE
        assert (rhs == 0.0).all()
        z_index = {key: i for i, key in enumerate(formulation.z_keys)}
        for row, (_stream, reflector) in enumerate(formulation.y_keys):
            y_index = len(formulation.z_keys) + row
            assert A[row, y_index] == 1.0
            assert A[row, z_index[reflector]] == -1.0
            assert np.count_nonzero(A[row]) == 2

    def test_x_le_y_rows(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        A, rhs, block = family_rows(formulation, "(2)")
        assert block.rows == len(formulation.x_keys) and block.sense is Sense.LE
        assert (rhs == 0.0).all()
        offset = len(formulation.z_keys)
        y_index = {key: offset + i for i, key in enumerate(formulation.y_keys)}
        x_columns = set()
        for row in range(block.rows):
            (x_column,) = np.flatnonzero(A[row] == 1.0)
            (y_column,) = np.flatnonzero(A[row] == -1.0)
            reflector, (_sink, stream) = formulation.x_keys[x_column - offset - len(y_index)]
            assert y_column == y_index[stream, reflector]
            x_columns.add(x_column)
        assert len(x_columns) == len(formulation.x_keys)

    def test_fanout_rows(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        A, rhs, block = family_rows(formulation, "(3)")
        assert block.sense is Sense.LE and (rhs == 0.0).all()
        first_x = len(formulation.z_keys) + len(formulation.y_keys)
        for row in range(block.rows):
            (z_column,) = np.flatnonzero(A[row, :first_x])
            reflector = formulation.z_keys[z_column]
            assert A[row, z_column] == -float(tiny_problem.fanout(reflector))
            served = {
                formulation.x_keys[column - first_x]
                for column in np.flatnonzero(A[row, first_x:]) + first_x
            }
            assert served == set(formulation.assignment_keys_for_reflector(reflector))

    def test_invalid_problem_rejected(self):
        with pytest.raises(ValueError):
            build_sparse_formulation(OverlayDesignProblem())


class TestFormulationSolution:
    def test_lp_solves_and_is_feasible(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        solution = formulation.solve()
        assert solution.is_optimal
        # Every constraint of the LP is (near) satisfied by the solution.
        compiled = formulation.compiled
        assert (compiled.A_ub @ solution.values <= compiled.b_ub + 1e-6).all()
        assert (solution.values >= -1e-9).all() and (solution.values <= 1.0 + 1e-9).all()

    def test_fractional_solution_extraction(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        fractional = formulation.fractional_solution(formulation.solve())
        assert fractional.objective > 0
        assert set(fractional.z) == set(tiny_problem.reflectors)
        assert all(0.0 - 1e-9 <= value <= 1.0 + 1e-9 for value in fractional.z.values())
        assert all(0.0 - 1e-9 <= value <= 1.0 + 1e-9 for value in fractional.x.values())

    def test_fractional_weight_constraints_met(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        fractional = formulation.fractional_solution(formulation.solve())
        for demand in tiny_problem.demands:
            delivered = sum(
                fractional.x.get((reflector, demand.key), 0.0)
                * tiny_problem.edge_weight(demand, reflector)
                for reflector in tiny_problem.candidate_reflectors(demand)
            )
            assert delivered + 1e-6 >= tiny_problem.demand_weight(demand)

    def test_fractional_cost_matches_objective(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        fractional = formulation.fractional_solution(formulation.solve())
        assert fractional.cost(tiny_problem) == pytest.approx(fractional.objective, rel=1e-6)

    def test_lower_bound_monotone_in_demands(self, tiny_problem):
        """Adding a demand can only increase the LP optimum."""
        base = build_sparse_formulation(tiny_problem).solve().objective

        harder = OverlayDesignProblem(name="harder")
        harder.add_stream("s")
        for name in ("r1", "r2", "r3"):
            info = tiny_problem.reflector_info(name)
            harder.add_reflector(name, cost=info.cost, fanout=info.fanout)
        for sink in ("d1", "d2", "d3"):
            harder.add_sink(sink)
        for edge in tiny_problem.stream_edges():
            harder.add_stream_edge(edge.stream, edge.reflector, edge.loss_probability, edge.cost)
        for reflector, sink in tiny_problem.delivery_links():
            harder.add_delivery_edge(
                reflector,
                sink,
                loss_probability=tiny_problem.delivery_loss(reflector, sink),
                cost=tiny_problem.delivery_cost(reflector, sink, "s"),
            )
        harder.add_delivery_edge("r1", "d3", loss_probability=0.05, cost=0.5)
        harder.add_delivery_edge("r2", "d3", loss_probability=0.06, cost=0.5)
        for demand in tiny_problem.demands:
            harder.add_demand(demand.sink, demand.stream, demand.success_threshold)
        harder.add_demand("d3", "s", success_threshold=0.99)
        harder_bound = build_sparse_formulation(harder).solve().objective
        assert harder_bound >= base - 1e-9

    def test_unsolved_extraction_raises_for_infeasible(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=1)
        problem.add_sink("d")
        problem.add_stream_edge("s", "r", 0.4, 1.0)
        problem.add_delivery_edge("r", "d", 0.4, 1.0)
        problem.add_demand("d", "s", success_threshold=0.9999)
        formulation = build_sparse_formulation(problem)
        lp_solution = formulation.solve()
        assert not lp_solution.is_optimal
        with pytest.raises(ValueError):
            formulation.fractional_solution(lp_solution)


class TestExtensionsInFormulation:
    def test_bandwidth_changes_fanout_constraints(self, tiny_problem):
        # With bandwidth 1.0 everywhere the constraints are unchanged; scale
        # one stream up by rebuilding the instance with a larger bandwidth.
        problem = OverlayDesignProblem()
        problem.add_stream("hd", bandwidth=4.0)
        problem.add_reflector("r", cost=1.0, fanout=4)
        problem.add_sink("d1")
        problem.add_sink("d2")
        problem.add_stream_edge("hd", "r", 0.01, 1.0)
        problem.add_delivery_edge("r", "d1", 0.02, 0.5)
        problem.add_delivery_edge("r", "d2", 0.02, 0.5)
        problem.add_demand("d1", "hd", 0.99)
        problem.add_demand("d2", "hd", 0.99)
        plain = build_sparse_formulation(problem)
        weighted = build_sparse_formulation(problem, ExtensionOptions(use_bandwidth=True))
        plain_fanout, _, _ = family_rows(plain, "(3)")
        weighted_fanout, _, _ = family_rows(weighted, "(3)")
        # Bandwidth 4 means each assignment consumes 4 units of fanout.
        assert weighted_fanout.max() == pytest.approx(4.0)
        assert plain_fanout.max() == pytest.approx(1.0)

    def test_reflector_capacity_constraint_added(self):
        problem = OverlayDesignProblem()
        problem.add_stream("a")
        problem.add_stream("b")
        problem.add_reflector("r", cost=1.0, fanout=4, capacity=1)
        problem.add_sink("d")
        problem.add_stream_edge("a", "r", 0.01, 1.0)
        problem.add_stream_edge("b", "r", 0.01, 1.0)
        problem.add_delivery_edge("r", "d", 0.02, 0.5)
        problem.add_demand("d", "a", 0.9)
        formulation = build_sparse_formulation(
            problem, ExtensionOptions(use_reflector_capacities=True)
        )
        loads, capacity, _ = family_rows(formulation, "(8)")
        # One row for r: y[a,r] + y[b,r] <= 1.
        assert capacity.tolist() == [1.0]
        assert np.count_nonzero(loads) == 2

    def test_arc_capacity_constraint_added(self):
        problem = OverlayDesignProblem()
        problem.add_stream("a")
        problem.add_reflector("r", cost=1.0, fanout=4)
        problem.add_sink("d")
        problem.add_stream_edge("a", "r", 0.01, 1.0)
        problem.add_delivery_edge("r", "d", 0.02, 0.5, capacity=1.0)
        problem.add_demand("d", "a", 0.9)
        formulation = build_sparse_formulation(problem, ExtensionOptions(use_arc_capacities=True))
        _, capacity, _ = family_rows(formulation, "(7')")
        assert capacity.tolist() == [1.0]

    def test_color_constraints_added_only_for_multi_member_groups(self, colored_problem):
        formulation = build_sparse_formulation(
            colored_problem, ExtensionOptions(use_color_constraints=True)
        )
        loads, rhs, block = family_rows(formulation, "(9)")
        assert block.rows, "expected color constraints on a colored instance"
        assert block.sense is Sense.LE
        assert rhs.tolist() == pytest.approx([1.0] * block.rows)
        assert (np.count_nonzero(loads, axis=1) >= 2).all()
