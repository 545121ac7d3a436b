"""Tests for the vectorized sparse LP path (repro.lp.sparse + sparse formulation).

The contract under test: the block builder validates its inputs and
compiles what it was given, and the Section-2/6 formulation built on it
describes *the same relaxation* as the test-only reference in
``lp_reference.py`` -- same columns in the same order, same weights, same
row count per constraint family, same optimal objective -- for every
Section-6 extension, the golden-corpus instances and random instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from lp_reference import reference_lp
from test_golden_designs import WORKLOADS

from repro.api import DesignPipeline
from repro.core.algorithm import DesignParameters, fractional_lower_bound
from repro.core.formulation import ExtensionOptions, build_sparse_formulation
from repro.core.problem import OverlayDesignProblem
from repro.lp import LPStatus, Objective, Sense, SparseLPBuilder, VariableArena, solve_compiled
from repro.workloads.random_instances import RandomInstanceConfig, random_problem
from repro.workloads.tiny import build_tiny_problem


class TestVariableArena:
    def test_blocks_hand_out_contiguous_indices(self):
        arena = VariableArena()
        a = arena.add_block(3, name="a")
        b = arena.add_block(2, lower=1.0, upper=np.inf, name="b")
        assert a.tolist() == [0, 1, 2]
        assert b.tolist() == [3, 4]
        assert arena.size == 5
        bounds = arena.bounds_array()
        assert bounds.shape == (5, 2)
        assert bounds[0].tolist() == [0.0, 1.0]
        assert bounds[3, 0] == 1.0 and np.isinf(bounds[3, 1])

    def test_bad_bounds_rejected(self):
        arena = VariableArena()
        with pytest.raises(ValueError):
            arena.add_block(2, lower=1.0, upper=0.0)
        with pytest.raises(ValueError):
            arena.add_block(-1)

    def test_nan_bounds_rejected(self):
        arena = VariableArena()
        with pytest.raises(ValueError, match="NaN"):
            arena.add_block(1, lower=np.nan)
        with pytest.raises(ValueError, match="NaN"):
            arena.add_block(2, upper=np.array([1.0, np.nan]))
        assert arena.size == 0

    def test_array_bounds_are_kept_per_variable(self):
        arena = VariableArena()
        arena.add_block(3, lower=np.array([0.0, -1.0, 2.0]), upper=np.array([1.0, 0.0, np.inf]))
        bounds = arena.bounds_array()
        assert bounds[:, 0].tolist() == [0.0, -1.0, 2.0]
        assert bounds[:2, 1].tolist() == [1.0, 0.0] and np.isinf(bounds[2, 1])

    def test_bound_array_of_wrong_length_rejected(self):
        arena = VariableArena()
        with pytest.raises(ValueError):
            arena.add_block(2, upper=np.array([1.0, 2.0, 3.0]))
        assert arena.size == 0

    def test_blocks_are_listed_with_default_names(self):
        arena = VariableArena()
        arena.add_block(2, name="z")
        arena.add_block(3)
        arena.add_block(0, name="empty")
        assert arena.blocks == [("z", 0, 2), ("block1", 2, 3), ("empty", 5, 0)]
        assert arena.size == 5

    def test_empty_arena_has_no_bounds(self):
        assert VariableArena().bounds_array().shape == (0, 2)


class TestSparseLPBuilder:
    def build_small(self):
        # min x0 + 2 x1  s.t.  x0 + x1 >= 1,  x1 <= 0.4
        builder = SparseLPBuilder(name="small")
        x = builder.add_variables(2, 0.0, 1.0, name="x")
        builder.add_objective_terms(x, np.array([1.0, 2.0]))
        builder.add_block("cover", [0, 0], x, [1.0, 1.0], [1.0], Sense.GE)
        builder.add_block("cap", [0], x[1:], [1.0], [0.4], Sense.LE)
        return builder

    def test_build_and_solve(self):
        compiled, stats = self.build_small().build()
        assert stats.num_variables == 2
        assert stats.num_inequality_rows == 2
        assert stats.num_equality_rows == 0
        assert stats.num_nonzeros == 3
        assert [b.name for b in stats.blocks] == ["cover", "cap"]
        assert stats.build_seconds >= stats.compile_seconds >= 0.0
        solution = solve_compiled(compiled)
        assert solution.status is LPStatus.OPTIMAL
        # Optimum puts all mass on the cheap variable: x = (1, 0).
        assert solution.objective == pytest.approx(1.0)
        assert solution.values.tolist() == pytest.approx([1.0, 0.0])

    def test_ge_blocks_are_negated_into_ub_form(self):
        compiled, _ = self.build_small().build()
        # Row 0 is the GE block: stored as -x0 - x1 <= -1.
        dense = compiled.A_ub.toarray()
        assert dense[0].tolist() == [-1.0, -1.0]
        assert compiled.b_ub[0] == -1.0

    def test_equality_blocks_go_to_a_eq(self):
        builder = SparseLPBuilder(name="eq")
        x = builder.add_variables(2, 0.0, np.inf)
        builder.add_objective_terms(x, np.array([1.0, 1.0]))
        builder.add_block("sum", [0, 0], x, [1.0, 1.0], [3.0], Sense.EQ)
        compiled, stats = builder.build()
        assert stats.num_equality_rows == 1 and stats.num_inequality_rows == 0
        solution = solve_compiled(compiled)
        assert solution.objective == pytest.approx(3.0)

    def test_maximization_sign_flip(self):
        builder = SparseLPBuilder(name="max", objective_sense=Objective.MAXIMIZE)
        x = builder.add_variables(1, 0.0, 2.0)
        builder.add_objective_terms(x, np.array([3.0]))
        compiled, _ = builder.build()
        solution = solve_compiled(compiled)
        assert solution.objective == pytest.approx(6.0)

    def test_duplicate_objective_terms_accumulate(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(1, 0.0, 1.0)
        builder.add_objective_terms(np.array([0, 0]), np.array([1.0, 2.0]))
        compiled, _ = builder.build()
        assert compiled.c.tolist() == [3.0]

    def test_mismatched_arrays_rejected(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(2)
        with pytest.raises(ValueError):
            builder.add_objective_terms(x, np.array([1.0]))
        with pytest.raises(ValueError):
            builder.add_block("bad", [0], x, [1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            builder.add_block("bad rows", [5], x[:1], [1.0], [1.0])
        with pytest.raises(ValueError):
            builder.add_block("bad cols", [0], [99], [1.0], [1.0])

    def test_out_of_range_objective_columns_rejected(self):
        builder = SparseLPBuilder()
        builder.add_variables(2)
        with pytest.raises(ValueError, match="column"):
            builder.add_objective_terms(np.array([-1]), [5.0])
        with pytest.raises(ValueError, match="column"):
            builder.add_objective_terms(np.array([2]), [5.0])
        compiled, _ = builder.build()
        assert compiled.c.tolist() == [0.0, 0.0]

    def test_entries_in_a_rowless_block_rejected(self):
        builder = SparseLPBuilder()
        builder.add_variables(1)
        with pytest.raises(ValueError, match="row indices"):
            builder.add_block("x", [0], [0], [1.0], [])

    def test_empty_block_is_ignored(self):
        builder = SparseLPBuilder()
        builder.add_variables(1)
        builder.add_block("empty", [], [], [], [])
        compiled, stats = builder.build()
        assert compiled.A_ub is None
        assert stats.num_constraints == 0

    def test_compile_shapes_and_signs(self):
        # min x + 2y  s.t.  x + y <= 4,  x - y >= -2,  x + 2y == 3,  x <= 1.
        builder = SparseLPBuilder()
        x, y = builder.add_variables(2, 0.0, np.array([1.0, np.inf]))
        builder.add_objective_terms(np.array([x, y]), [1.0, 2.0])
        builder.add_block("sum", [0, 0], [x, y], [1.0, 1.0], [4.0], Sense.LE)
        builder.add_block("diff", [0, 0], [x, y], [1.0, -1.0], [-2.0], Sense.GE)
        builder.add_block("eq", [0, 0], [x, y], [1.0, 2.0], [3.0], Sense.EQ)
        compiled, _ = builder.build()
        assert compiled.c.tolist() == [1.0, 2.0]
        assert compiled.A_ub.toarray().tolist() == [[1.0, 1.0], [-1.0, 1.0]]
        assert compiled.b_ub.tolist() == [4.0, 2.0]
        assert compiled.A_eq.toarray().tolist() == [[1.0, 2.0]]
        assert compiled.b_eq.tolist() == [3.0]
        assert compiled.bounds[0].tolist() == [0.0, 1.0]
        assert compiled.bounds[1, 0] == 0.0 and np.isinf(compiled.bounds[1, 1])
        assert compiled.objective_sign == 1.0

    def test_maximization_negates_objective_vector(self):
        builder = SparseLPBuilder(objective_sense=Objective.MAXIMIZE)
        x = builder.add_variables(1, 0.0, 1.0)
        builder.add_objective_terms(x, [3.0])
        compiled, _ = builder.build()
        assert compiled.c.tolist() == [-3.0]
        assert compiled.objective_sign == -1.0

    def test_compile_no_constraints(self):
        builder = SparseLPBuilder()
        builder.add_variables(2, 0.0, 1.0)
        compiled, stats = builder.build()
        assert compiled.A_ub is None and compiled.b_ub is None
        assert compiled.A_eq is None and compiled.b_eq is None
        assert compiled.bounds.shape == (2, 2)
        assert stats.num_nonzeros == 0 and stats.blocks == []

    def test_compile_sparse_pattern(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(50)
        builder.add_block("first three", [0, 0, 0], x[:3], [1.0, 1.0, 1.0], [1.0])
        compiled, _ = builder.build()
        assert compiled.A_ub.shape == (1, 50)
        assert compiled.A_ub.nnz == 3
        assert np.count_nonzero(compiled.c) == 0

    def test_duplicate_block_entries_accumulate(self):
        # x + x + 2x <= 8 is the row 4x <= 8.
        builder = SparseLPBuilder()
        x = builder.add_variables(1, 0.0, np.inf)
        builder.add_block("dup", [0, 0, 0], [x[0]] * 3, [1.0, 1.0, 2.0], [8.0])
        compiled, _ = builder.build()
        assert compiled.A_ub.toarray().tolist() == [[4.0]]

    def test_blocks_get_global_row_offsets(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(3)
        builder.add_block("a", [0, 1], x[:2], [1.0, 1.0], [1.0, 2.0], Sense.LE)
        builder.add_block("e", [0], x[2:], [1.0], [0.5], Sense.EQ)
        builder.add_block("b", [0, 1, 1], x, [1.0, 2.0, 3.0], [3.0, 4.0], Sense.GE)
        compiled, stats = builder.build()
        assert compiled.A_ub.toarray().tolist() == [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, -2.0, -3.0],
        ]
        assert compiled.b_ub.tolist() == [1.0, 2.0, -3.0, -4.0]
        assert compiled.A_eq.toarray().tolist() == [[0.0, 0.0, 1.0]]
        assert [(b.name, b.rows, b.nonzeros, b.sense) for b in stats.blocks] == [
            ("a", 2, 2, Sense.LE),
            ("e", 1, 1, Sense.EQ),
            ("b", 2, 3, Sense.GE),
        ]

    def test_rows_without_entries_are_kept(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(1)
        builder.add_block("gap", [1], x, [1.0], [5.0, 0.5])
        compiled, stats = builder.build()
        assert compiled.A_ub.toarray().tolist() == [[0.0], [1.0]]
        assert compiled.b_ub.tolist() == [5.0, 0.5]
        assert stats.num_inequality_rows == 2

    def test_build_is_repeatable_and_leaves_inputs_alone(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(2)
        values, rhs = np.array([1.0, 1.0]), np.array([1.0])
        builder.add_block("cover", [0, 0], x, values, rhs, Sense.GE)
        first, _ = builder.build()
        second, _ = builder.build()
        assert (first.A_ub != second.A_ub).nnz == 0
        assert first.b_ub.tolist() == second.b_ub.tolist() == [-1.0]
        assert values.tolist() == [1.0, 1.0] and rhs.tolist() == [1.0]

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        num_vars=st.integers(1, 5),
        senses=st.lists(st.sampled_from(list(Sense)), min_size=0, max_size=5),
    )
    def test_matches_dense_oracle(self, data, num_vars, senses):
        """Compiled matrices equal the dense rows they were built from, and
        the optimum equals ``linprog`` on those dense rows."""
        coefficient = st.integers(-3, 3).map(float)
        costs = np.array(data.draw(st.lists(coefficient, min_size=num_vars, max_size=num_vars)))
        dense = np.array(
            [data.draw(st.lists(coefficient, min_size=num_vars, max_size=num_vars)) for _ in senses]
        ).reshape(len(senses), num_vars)
        rhs = np.array([data.draw(coefficient) for _ in senses])
        builder = SparseLPBuilder()
        x = builder.add_variables(num_vars, 0.0, 2.0)
        builder.add_objective_terms(x, costs)
        for i, sense in enumerate(senses):
            support = np.flatnonzero(dense[i])
            rows = np.zeros(support.size, dtype=np.int64)
            builder.add_block(f"r{i}", rows, x[support], dense[i, support], [rhs[i]], sense)
        compiled, _ = builder.build()

        sign = np.array([-1.0 if s is Sense.GE else 1.0 for s in senses])
        is_eq = np.array([s is Sense.EQ for s in senses], dtype=bool)
        ub_rows = (dense * sign[:, None])[~is_eq]
        assert compiled.c.tolist() == costs.tolist()
        if ub_rows.size:
            assert compiled.A_ub.toarray().tolist() == ub_rows.tolist()
            assert compiled.b_ub.tolist() == (rhs * sign)[~is_eq].tolist()
        if is_eq.any():
            assert compiled.A_eq.toarray().tolist() == dense[is_eq].tolist()
            assert compiled.b_eq.tolist() == rhs[is_eq].tolist()

        expected = linprog(
            costs,
            A_ub=ub_rows if ub_rows.size else None,
            b_ub=(rhs * sign)[~is_eq] if ub_rows.size else None,
            A_eq=dense[is_eq] if is_eq.any() else None,
            b_eq=rhs[is_eq] if is_eq.any() else None,
            bounds=(0.0, 2.0),
            method="highs",
        )
        solution = solve_compiled(compiled)
        assert solution.is_optimal == (expected.status == 0)
        if solution.is_optimal:
            assert solution.objective == pytest.approx(expected.fun, abs=1e-9)


EXTENSION_CASES = [
    ExtensionOptions(drop_cutting_plane=True),
    ExtensionOptions(use_bandwidth=True),
    ExtensionOptions(use_reflector_capacities=True),
    ExtensionOptions(use_arc_capacities=True),
    ExtensionOptions(use_color_constraints=True),
    ExtensionOptions(
        use_bandwidth=True,
        use_reflector_capacities=True,
        use_arc_capacities=True,
        use_color_constraints=True,
    ),
]
EXTENSION_IDS = ["no-cut", "bandwidth", "refl-cap", "arc-cap", "colors", "all"]


def assert_matches_reference(
    problem: OverlayDesignProblem, options: ExtensionOptions | None = None
) -> float | None:
    """Check the sparse formulation against the reference; return the objective."""
    reference = reference_lp(problem, options)
    built = build_sparse_formulation(problem, options)
    assert built.z_keys == reference.z_keys
    assert built.y_keys == reference.y_keys
    assert built.x_keys == reference.x_keys
    for key, weight in reference.weights.items():
        assert built.weights[key] == pytest.approx(weight, abs=1e-12)
    for key, weight in reference.demand_weights.items():
        assert built.demand_weights[key] == pytest.approx(weight, abs=1e-12)
    assert built.compiled.c.tolist() == pytest.approx(reference.cost, abs=1e-12)
    sizes = {block.name.split()[0]: (block.rows, block.nonzeros) for block in built.stats.blocks}
    assert sizes == reference.family_sizes()
    # Row by row, up to the order of rows within a family.
    theirs = {family: [] for family in sizes}
    for family, coeffs, rhs in reference.rows:
        theirs[family].append({**coeffs, "rhs": rhs})
    for family, rows in _rows_by_family(built).items():
        for mine, expected in zip(_canonical(rows), _canonical(theirs[family])):
            assert mine.keys() == expected.keys(), family
            for column, value in expected.items():
                assert mine[column] == pytest.approx(value, rel=1e-12, abs=1e-12), family

    expected = reference.solve()
    solution = built.solve()
    if expected.status != 0:
        assert not solution.is_optimal
        return None
    assert solution.is_optimal
    assert solution.objective == pytest.approx(expected.fun, abs=1e-9)
    return solution.objective


def _rows_by_family(built) -> dict[str, list[dict]]:
    """``{column: coefficient, "rhs": b}`` per row of ``A_ub``, grouped by family.

    ``>=`` rows stay negated into ``<=`` form, as in the reference; the
    formulation emits no equality blocks.
    """
    a_ub, b_ub = built.compiled.A_ub.tocsr(), built.compiled.b_ub
    grouped, offset = {}, 0
    for block in built.stats.blocks:
        rows = grouped.setdefault(block.name.split()[0], [])
        for row in range(offset, offset + block.rows):
            start, end = a_ub.indptr[row], a_ub.indptr[row + 1]
            coeffs = dict(zip(a_ub.indices[start:end].tolist(), a_ub.data[start:end]))
            rows.append({**coeffs, "rhs": b_ub[row]})
        offset += block.rows
    return grouped


def _canonical(rows: list[dict]) -> list[dict]:
    """Rows sorted by column pattern, then by rounded coefficients."""

    def key(row):
        columns = sorted(c for c in row if c != "rhs")
        return columns, [round(float(row[c]), 9) for c in columns], round(float(row["rhs"]), 9)

    return sorted(rows, key=key)


class TestFormulationParity:
    """The sparse builder and the test-only reference describe the same LP."""

    @pytest.fixture
    def tiny(self):
        return build_tiny_problem()

    def test_same_shape_and_support(self, tiny):
        reference = reference_lp(tiny)
        built = build_sparse_formulation(tiny)
        assert built.num_variables == len(reference.cost)
        assert built.num_constraints == len(reference.rows)
        assert built.z_keys == reference.z_keys
        assert built.y_keys == reference.y_keys
        assert built.x_keys == reference.x_keys

    def test_same_weights_and_demand_weights(self, tiny):
        reference = reference_lp(tiny)
        built = build_sparse_formulation(tiny)
        assert built.weights.keys() == reference.weights.keys()
        for key, weight in reference.weights.items():
            assert built.weights[key] == pytest.approx(weight, abs=1e-12)
        assert built.demand_weights.keys() == reference.demand_weights.keys()
        for key, weight in reference.demand_weights.items():
            assert built.demand_weights[key] == pytest.approx(weight, abs=1e-12)

    def test_same_objective_on_tiny(self, tiny):
        assert assert_matches_reference(tiny) is not None

    @pytest.mark.parametrize("options", EXTENSION_CASES, ids=EXTENSION_IDS)
    def test_fractional_solution_is_optimal_for_reference(self, small_random_problem, options):
        """The extracted ``(z, y, x)``, laid out in the reference's columns,
        satisfies every reference row and attains the reference optimum."""
        reference = reference_lp(small_random_problem, options)
        built = build_sparse_formulation(small_random_problem, options)
        fractional = built.fractional_solution(built.solve())
        values = np.array(
            [fractional.z[key] for key in reference.z_keys]
            + [fractional.y[key] for key in reference.y_keys]
            + [fractional.x[key] for key in reference.x_keys]
        )
        assert ((values >= -1e-9) & (values <= 1.0 + 1e-9)).all()
        for family, coeffs, rhs in reference.rows:
            lhs = sum(value * values[column] for column, value in coeffs.items())
            assert lhs <= rhs + 1e-7, family
        expected = reference.solve().fun
        assert float(np.dot(reference.cost, values)) == pytest.approx(expected, abs=1e-7)
        assert fractional.objective == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("options", EXTENSION_CASES, ids=EXTENSION_IDS)
    def test_extension_parity_on_random_instance(self, small_random_problem, options):
        assert_matches_reference(small_random_problem, options)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("options", [None, EXTENSION_CASES[-1]], ids=["paper", "all-ext"])
    def test_golden_corpus_instances(self, workload, options):
        assert_matches_reference(WORKLOADS[workload](), options)

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        streams=st.integers(1, 3),
        reflectors=st.integers(3, 7),
        sinks=st.integers(1, 6),
        colors=st.integers(0, 3),
        flags=st.tuples(*[st.booleans()] * 5),
    )
    def test_random_small_problems(self, seed, streams, reflectors, sinks, colors, flags):
        problem = random_problem(
            RandomInstanceConfig(
                num_streams=streams,
                num_reflectors=reflectors,
                num_sinks=sinks,
                demands_per_sink=streams,
                num_colors=colors,
            ),
            rng=seed,
        )
        assert_matches_reference(problem, ExtensionOptions(*flags))

    def test_capacity_constraints_parity_on_capacitated_instance(self):
        problem = OverlayDesignProblem(name="capacitated")
        problem.add_stream("a")
        problem.add_stream("b")
        problem.add_reflector("r1", cost=2.0, fanout=5, capacity=1)
        problem.add_reflector("r2", cost=3.0, fanout=5)
        problem.add_sink("d")
        for stream in ("a", "b"):
            problem.add_stream_edge(stream, "r1", 0.01, 1.0)
            problem.add_stream_edge(stream, "r2", 0.01, 1.2)
        problem.add_delivery_edge("r1", "d", 0.02, 0.5, capacity=1.0)
        problem.add_delivery_edge("r2", "d", 0.02, 0.6, stream_costs={"b": 0.9})
        problem.add_demand("d", "a", 0.99)
        problem.add_demand("d", "b", 0.99)
        options = ExtensionOptions(use_reflector_capacities=True, use_arc_capacities=True)
        assert assert_matches_reference(problem, options) is not None
        families = [b.name for b in build_sparse_formulation(problem, options).stats.blocks]
        assert "(8) reflector capacity" in families
        assert "(7') arc capacity" in families

    def test_stream_cost_overrides_in_objective(self):
        problem = OverlayDesignProblem()
        problem.add_stream("hd")
        problem.add_stream("sd")
        problem.add_reflector("r", cost=1.0, fanout=4)
        problem.add_sink("d")
        problem.add_stream_edge("hd", "r", 0.01, 1.0)
        problem.add_stream_edge("sd", "r", 0.01, 1.0)
        problem.add_delivery_edge("r", "d", 0.05, cost=1.0, stream_costs={"hd": 3.0})
        problem.add_demand("d", "hd", 0.9)
        problem.add_demand("d", "sd", 0.9)
        sparse = build_sparse_formulation(problem)
        hd_index = len(sparse.z_keys) + len(sparse.y_keys) + sparse.x_keys.index(
            ("r", ("d", "hd"))
        )
        sd_index = len(sparse.z_keys) + len(sparse.y_keys) + sparse.x_keys.index(
            ("r", ("d", "sd"))
        )
        assert sparse.compiled.c[hd_index] == pytest.approx(3.0)
        assert sparse.compiled.c[sd_index] == pytest.approx(1.0)

    def test_invalid_problem_rejected(self):
        with pytest.raises(ValueError):
            build_sparse_formulation(OverlayDesignProblem())

    def test_infeasible_extraction_raises(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=1)
        problem.add_sink("d")
        problem.add_stream_edge("s", "r", 0.4, 1.0)
        problem.add_delivery_edge("r", "d", 0.4, 1.0)
        problem.add_demand("d", "s", success_threshold=0.9999)
        assert assert_matches_reference(problem) is None
        sparse = build_sparse_formulation(problem)
        lp_solution = sparse.solve()
        assert not lp_solution.is_optimal
        with pytest.raises(ValueError):
            sparse.fractional_solution(lp_solution)


class TestPipelineIntegration:
    def test_design_lower_bound_matches_reference(self, small_random_problem):
        context = DesignPipeline.standard().run(small_random_problem, DesignParameters(seed=3))
        report = context.report()
        expected = reference_lp(small_random_problem).solve().fun
        assert report.lp_lower_bound == pytest.approx(expected, abs=1e-9)

    def test_report_carries_build_stats(self, tiny_problem):
        report = DesignPipeline.standard().run(tiny_problem, DesignParameters(seed=0)).report()
        assert report.lp_build_stats.num_variables == report.formulation_size[0]
        assert report.lp_build_stats.num_constraints == report.formulation_size[1]
        assert report.lp_build_stats.num_nonzeros > 0

    def test_fractional_lower_bound_matches_reference(self, tiny_problem):
        expected = reference_lp(tiny_problem).solve().fun
        assert fractional_lower_bound(tiny_problem) == pytest.approx(expected, abs=1e-9)

    def test_report_build_stats_match_formulation(self, small_random_problem):
        report = (
            DesignPipeline.standard()
            .run(small_random_problem, DesignParameters(seed=3))
            .report()
        )
        built = build_sparse_formulation(small_random_problem)
        assert [
            (b.name, b.rows, b.nonzeros, b.sense) for b in report.lp_build_stats.blocks
        ] == [(b.name, b.rows, b.nonzeros, b.sense) for b in built.stats.blocks]
        assert report.lp_build_stats.num_nonzeros == built.stats.num_nonzeros
