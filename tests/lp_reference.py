"""Test-only reference for the Section-2/6 LP relaxation.

Builds every row of the paper's LP straight from its definitions, one
``{column: coefficient}`` dict per row, using only the accessors of
:class:`~repro.core.problem.OverlayDesignProblem`, and solves it with
:func:`scipy.optimize.linprog`.  It shares no code with :mod:`repro.lp` or
:func:`repro.core.formulation.build_sparse_formulation`, so the parity tests
compare the vectorized builder against an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from scipy import sparse
from scipy.optimize import linprog

from repro.core.formulation import ExtensionOptions
from repro.core.problem import OverlayDesignProblem


@dataclass
class ReferenceLP:
    z_keys: list = field(default_factory=list)
    y_keys: list = field(default_factory=list)
    x_keys: list = field(default_factory=list)
    weights: dict = field(default_factory=dict)
    demand_weights: dict = field(default_factory=dict)
    cost: list[float] = field(default_factory=list)
    #: ``(family, {column: coefficient}, rhs)`` per ``<=`` row; ``>=`` rows are negated.
    rows: list[tuple[str, dict[int, float], float]] = field(default_factory=list)

    def family_sizes(self) -> dict[str, tuple[int, int]]:
        """``family -> (rows, nonzeros)``."""
        sizes: dict[str, tuple[int, int]] = {}
        for family, coeffs, _rhs in self.rows:
            rows, nonzeros = sizes.get(family, (0, 0))
            sizes[family] = (rows + 1, nonzeros + len(coeffs))
        return sizes

    def solve(self):
        """``linprog`` result over ``0 <= column <= 1``."""
        a_ub = sparse.lil_matrix((len(self.rows), len(self.cost)))
        for row, (_family, coeffs, _rhs) in enumerate(self.rows):
            for column, value in coeffs.items():
                a_ub[row, column] = value
        return linprog(
            self.cost,
            A_ub=a_ub.tocsr() if self.rows else None,
            b_ub=[rhs for _f, _c, rhs in self.rows] if self.rows else None,
            bounds=(0.0, 1.0),
            method="highs",
        )


def reference_lp(
    problem: OverlayDesignProblem, options: ExtensionOptions | None = None
) -> ReferenceLP:
    """Columns ``z``, then ``y`` per stream edge, then ``x`` per (demand, candidate)."""
    options = options or ExtensionOptions()
    lp = ReferenceLP()
    z, y, x = {}, {}, {}
    for reflector in problem.reflectors:
        z[reflector] = len(lp.cost)
        lp.z_keys.append(reflector)
        lp.cost.append(problem.reflector_cost(reflector))
    for edge in problem.stream_edges():
        y[edge.stream, edge.reflector] = len(lp.cost)
        lp.y_keys.append((edge.stream, edge.reflector))
        lp.cost.append(edge.cost)
    for demand in problem.demands:
        lp.demand_weights[demand.key] = problem.demand_weight(demand)
        for reflector in problem.candidate_reflectors(demand):
            key = (reflector, demand.key)
            x[key] = len(lp.cost)
            lp.x_keys.append(key)
            lp.weights[key] = problem.edge_weight(demand, reflector)
            lp.cost.append(problem.delivery_cost(reflector, demand.sink, demand.stream))

    def bandwidth(stream):
        return problem.stream_bandwidth(stream) if options.use_bandwidth else 1.0

    for (stream, reflector), column in y.items():  # (1) y <= z
        lp.rows.append(("(1)", {column: 1.0, z[reflector]: -1.0}, 0.0))
    for (reflector, (_sink, stream)), column in x.items():  # (2) x <= y
        lp.rows.append(("(2)", {column: 1.0, y[stream, reflector]: -1.0}, 0.0))
    for reflector in problem.reflectors:  # (3) and (4): fanout
        keys = [key for key in x if key[0] == reflector]
        if not keys:
            continue
        fanout = float(problem.fanout(reflector))
        row = {x[key]: bandwidth(key[1][1]) for key in keys}
        lp.rows.append(("(3)", {**row, z[reflector]: -fanout}, 0.0))
        if options.drop_cutting_plane:
            continue
        for stream in dict.fromkeys(key[1][1] for key in keys):
            row = {x[key]: bandwidth(stream) for key in keys if key[1][1] == stream}
            lp.rows.append(("(4)", {**row, y[stream, reflector]: -fanout}, 0.0))
    for demand in problem.demands:  # (5) weight coverage, negated into <=
        row = {x[key]: -lp.weights[key] for key in x if key[1] == demand.key}
        lp.rows.append(("(5)", row, -lp.demand_weights[demand.key]))
    if options.use_reflector_capacities:  # (8) sum_k y^k_i <= u_i
        for reflector in problem.reflectors:
            capacity = problem.reflector_capacity(reflector)
            row = {column: 1.0 for key, column in y.items() if key[1] == reflector}
            if capacity is not None and row:
                lp.rows.append(("(8)", row, float(capacity)))
    if options.use_arc_capacities:  # (7') sum_k x^k_ij <= u_ij
        for reflector, sink in problem.delivery_links():
            capacity = problem.arc_capacity(reflector, sink)
            row = {c: 1.0 for key, c in x.items() if key[0] == reflector and key[1][0] == sink}
            if capacity is not None and row:
                lp.rows.append(("(7')", row, float(capacity)))
    if options.use_color_constraints:  # (9) one copy per color class
        for demand in problem.demands:
            for members in problem.colors().values():
                row = {x[r, demand.key]: 1.0 for r in members if (r, demand.key) in x}
                if len(row) >= 2:
                    lp.rows.append(("(9)", row, 1.0))
    return lp
