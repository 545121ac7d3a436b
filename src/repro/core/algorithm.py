"""The end-to-end overlay design pipeline: LP -> rounding -> GAP -> solution.

:func:`design_overlay` is the library's main entry point.  It follows the
paper exactly:

1. build the Section-2 LP relaxation (:mod:`repro.core.formulation`) --
   optionally with the Section-6 extensions -- and solve it;
2. apply the Section-3 randomized rounding (:mod:`repro.core.rounding`),
   optionally redrawing until the weight / fanout audit accepts the draw;
3. apply the Section-5 modified-GAP rounding (:mod:`repro.core.gap`) to turn
   the remaining fractional assignment variables into a 0/1 solution;
4. assemble an :class:`repro.core.solution.OverlaySolution` and, optionally,
   run a greedy *repair* pass that tops up demands left short of their
   requirement using spare fanout ("heuristics based on the algorithm",
   Section 7).

The returned :class:`DesignReport` records the LP bound, the rounding
multiplier and every stage's wall-clock time, which is what the benchmark
harness consumes; the intermediate results themselves stay on the pipeline
context.

Since the :mod:`repro.api` redesign the stages themselves live in
:mod:`repro.api.pipeline` as swappable stage objects; :func:`design_overlay`
is a thin compatibility wrapper over ``DesignPipeline.standard()`` (the
``"spaa03"`` entry of the strategy registry) and produces bit-identical
results for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.audit import SolutionAudit

from repro.core.formulation import (
    ExtensionOptions,
    OverlayFormulation,
    SparseOverlayFormulation,
    build_formulation,
    build_sparse_formulation,
)
from repro.core.problem import OverlayDesignProblem
from repro.core.rounding import RoundingParameters
from repro.core.solution import OverlaySolution
from repro.lp import LPBuildStats


@dataclass
class DesignParameters:
    """Knobs of the full pipeline.

    Attributes
    ----------
    rounding:
        Parameters of the Section-3 randomized rounding (multiplier ``c``,
        target slack ``delta``, seed).
    extensions:
        Which Section-6 constraints to include in the LP.
    retry_rounding:
        Redraw the rounding until the audit accepts it (Monte Carlo -> Las
        Vegas); ``max_rounding_attempts`` bounds the redraws.
    max_rounding_attempts:
        Upper bound on redraws when ``retry_rounding`` is set.
    keep_degenerate_box:
        See :mod:`repro.core.gap`; keeping it True avoids leaving demands with
        less than one unit of fractional mass completely unserved.
    repair_shortfall:
        After the GAP stage, greedily add assignments (respecting a fanout
        slack of ``repair_fanout_slack``) for demands still below their
        required weight.  Off by default so that the measured guarantees are
        those of the paper's algorithm; examples enable it because a deployed
        system would.
    repair_fanout_slack:
        Fanout multiple the repair pass is allowed to use (4.0 matches the
        paper's final guarantee).
    lp_backend:
        How the Section-2 LP is assembled: ``"sparse"`` (default) uses the
        vectorized block builder of :mod:`repro.lp.sparse`; ``"expr"`` uses
        the expression-tree modeling layer.  Both produce the same relaxation
        and objective; sparse is ~an order of magnitude faster to build on
        large instances.
    solver_backend:
        Which registered solver backend (:mod:`repro.lp.backends`) solves the
        LP relaxation: ``"highs"`` (default), ``"highs-mip"``, or
        ``"gurobi"``.  Validated against the backend registry; unknown names
        raise ``ValueError`` listing the installed backends.
    seed:
        Convenience override for ``rounding.seed``.
    """

    rounding: RoundingParameters = field(default_factory=RoundingParameters)
    extensions: ExtensionOptions = field(default_factory=ExtensionOptions)
    retry_rounding: bool = True
    max_rounding_attempts: int = 20
    keep_degenerate_box: bool = True
    repair_shortfall: bool = False
    repair_fanout_slack: float = 4.0
    lp_backend: str = "sparse"
    solver_backend: str = "highs"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.lp_backend not in ("sparse", "expr"):
            raise ValueError(
                f"lp_backend must be 'sparse' or 'expr', got {self.lp_backend!r}"
            )
        from repro.lp.backends import backend_names

        if self.solver_backend not in backend_names():
            raise ValueError(
                f"solver_backend must be one of {backend_names()}, "
                f"got {self.solver_backend!r}"
            )
        if self.seed is not None:
            self.rounding = RoundingParameters(
                c=self.rounding.c, delta=self.rounding.delta, seed=self.seed
            )


@dataclass
class DesignReport:
    """Everything produced along the pipeline, for inspection and benchmarking.

    Attributes
    ----------
    solution:
        The final integral overlay design.
    lp_lower_bound:
        Objective of the optimal LP solution (the lower bound used for
        approximation-ratio measurements).
    multiplier:
        The Section-3 rounding's inflation factor ``max(c log n, 1)``; the
        paper bounds the cost ratio by ``2 * multiplier``.
    formulation_size:
        (num variables, num constraints) of the LP.
    stage_seconds:
        Wall-clock time per stage ("formulate", "solve_lp", "rounding", "gap",
        "repair", and -- since the pipeline gained its audit stage -- "audit").
    rounding_attempts:
        Number of rounding draws used.
    lp_build_stats:
        Matrix-assembly report (:class:`repro.lp.LPBuildStats`) when the
        sparse LP backend built the formulation; ``None`` on the
        expression-tree path.
    solution_audit:
        Constraint-violation audit of the final solution, produced by the
        pipeline's audit stage (:class:`repro.analysis.audit.SolutionAudit`).
        Consumers should reuse it instead of re-running ``audit_solution``.

    The report holds no pipeline intermediates (fractional solution, rounding
    draw, GAP result), so keeping many reports alive stays cheap; they remain
    on the :class:`repro.api.PipelineContext` that ``DesignPipeline.run``
    returns.
    """

    solution: OverlaySolution
    lp_lower_bound: float
    multiplier: float
    formulation_size: tuple[int, int]
    stage_seconds: dict[str, float]
    rounding_attempts: int
    lp_build_stats: "LPBuildStats | None" = None
    solution_audit: "SolutionAudit | None" = None

    @property
    def cost_ratio(self) -> float:
        """Final cost divided by the LP lower bound (>= 1; paper bound: c log n)."""
        lower = self.lp_lower_bound
        if lower <= 0:
            return float("inf") if self.solution.total_cost() > 0 else 1.0
        return self.solution.total_cost() / lower

    def summary(self) -> dict:
        info = self.solution.summary()
        info.update(
            {
                "lp_lower_bound": self.lp_lower_bound,
                "cost_ratio": self.cost_ratio,
                "lp_variables": self.formulation_size[0],
                "lp_constraints": self.formulation_size[1],
                "rounding_attempts": self.rounding_attempts,
                "stage_seconds": dict(self.stage_seconds),
            }
        )
        return info


def design_overlay(
    problem: OverlayDesignProblem,
    parameters: DesignParameters | None = None,
    rng: np.random.Generator | None = None,
) -> DesignReport:
    """Design an overlay multicast network for ``problem``.

    This is the full approximation algorithm of the paper; see
    :class:`DesignParameters` for the available knobs.  Raises ``ValueError``
    if the instance is structurally invalid or its LP relaxation is infeasible
    (e.g. some demand cannot reach enough reflectors -- use
    :meth:`OverlayDesignProblem.feasibility_report` for diagnostics).

    .. note::
       This is a compatibility wrapper over the unified strategy API: it runs
       :meth:`repro.api.DesignPipeline.standard` (the registered ``"spaa03"``
       designer) and produces bit-identical results for a fixed seed.  New
       code should prefer ``repro.api.get_designer("spaa03").design(request)``
       or :class:`repro.api.DesignPipeline` directly -- see ``docs/api.md``.
    """
    # Compatibility wrapper: the staged pipeline is the implementation now.
    import warnings

    from repro.api.pipeline import DesignPipeline

    warnings.warn(
        "design_overlay is deprecated; submit a DesignRequest("
        "strategy='spaa03') through repro.api.run_request instead (see the "
        "migration table in docs/api.md)",
        DeprecationWarning,
        stacklevel=2,
    )
    return DesignPipeline.standard().run(problem, parameters, rng).report()


def repair_weight_shortfalls(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    fanout_slack: float = 4.0,
) -> OverlaySolution:
    """Greedy post-processing: top up demands that fall short of their weight.

    For every demand whose delivered weight is below its requirement, add the
    cheapest-per-weight unused candidate reflectors until the requirement is
    met or no reflector has spare (slackened) fanout.  This is the kind of
    practical heuristic layered on top of the approximation algorithm that the
    paper's Section 7 anticipates; the approximation guarantee is unaffected
    because assignments are only ever added within the already-allowed fanout
    slack.
    """
    assignments = {key: list(reflectors) for key, reflectors in solution.assignments.items()}
    load: dict[str, int] = {}
    for reflectors in assignments.values():
        for reflector in reflectors:
            load[reflector] = load.get(reflector, 0) + 1

    def capacity_left(reflector: str) -> float:
        return fanout_slack * problem.fanout(reflector) - load.get(reflector, 0)

    for demand in problem.demands:
        key = demand.key
        required = problem.demand_weight(demand)
        current = set(assignments.get(key, []))
        delivered = sum(problem.edge_weight(demand, r) for r in current)
        if delivered >= required - 1e-12:
            continue
        candidates = [
            reflector
            for reflector in problem.candidate_reflectors(demand)
            if reflector not in current and capacity_left(reflector) >= 1.0
        ]
        # Cheapest additional cost per unit of weight first.
        candidates.sort(
            key=lambda r: (
                problem.assignment_cost(demand, r)
                / max(problem.edge_weight(demand, r), 1e-12)
            )
        )
        for reflector in candidates:
            if delivered >= required - 1e-12:
                break
            assignments.setdefault(key, []).append(reflector)
            current.add(reflector)
            load[reflector] = load.get(reflector, 0) + 1
            delivered += problem.edge_weight(demand, reflector)

    repaired = OverlaySolution.from_assignments(problem, assignments, metadata=dict(solution.metadata))
    repaired.metadata["repaired"] = True
    return repaired


def fractional_lower_bound(
    problem: OverlayDesignProblem,
    extensions: ExtensionOptions | None = None,
    lp_backend: str = "sparse",
    solver_backend: str = "highs",
) -> float:
    """Solve only the LP relaxation and return its objective (the OPT lower bound)."""
    if lp_backend not in ("sparse", "expr"):
        raise ValueError(f"lp_backend must be 'sparse' or 'expr', got {lp_backend!r}")
    if lp_backend == "sparse":
        formulation: OverlayFormulation | SparseOverlayFormulation = build_sparse_formulation(
            problem, extensions
        )
    else:
        formulation = build_formulation(problem, extensions)
    lp_solution = formulation.solve(solver_backend)
    return formulation.fractional_solution(lp_solution).objective


__all__ = [
    "DesignParameters",
    "DesignReport",
    "design_overlay",
    "fractional_lower_bound",
    "repair_weight_shortfalls",
]
