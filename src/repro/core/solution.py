"""The final overlay design produced by the algorithm (or by a baseline).

An :class:`OverlaySolution` is a 0/1 choice of

* which reflectors to *build* (pay ``r_i``),
* which streams to *deliver to* which reflectors (pay ``c^k_ki``),
* which (reflector -> sink) assignments carry each demand (pay ``c^k_ij``),

together with evaluation helpers: total cost, per-demand delivered weight and
success probability, fanout usage, and violation factors relative to the
instance's requirements.  Both the core algorithm and every baseline in
:mod:`repro.baselines` produce this type, which is what makes the comparative
benchmarks (C1) and the packet-level simulation uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.problem import Demand, OverlayDesignProblem
from repro.core.weights import (
    MAX_WEIGHT,
    combined_failure_probability,
    failure_to_weight,
    success_from_weight,
)


@dataclass
class OverlaySolution:
    """A concrete overlay multicast design for a given problem instance.

    Attributes
    ----------
    problem:
        The instance this solution belongs to.
    built_reflectors:
        Reflectors that are paid for (``z_i = 1``).
    stream_deliveries:
        (stream, reflector) pairs that are paid for (``y^k_i = 1``).
    assignments:
        Mapping from demand key (sink, stream) to the list of reflectors
        serving it (``x^k_ij = 1``).
    metadata:
        Free-form information recorded by the producing algorithm (stage
        timings, attempt counts, ...), surfaced in reports.
    """

    problem: OverlayDesignProblem
    built_reflectors: set[str] = field(default_factory=set)
    stream_deliveries: set[tuple[str, str]] = field(default_factory=set)
    assignments: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_assignments(
        cls,
        problem: OverlayDesignProblem,
        assignments: Mapping[tuple[str, str], Iterable[str]] | Iterable[tuple[str, tuple[str, str]]],
        metadata: dict | None = None,
    ) -> "OverlaySolution":
        """Build a solution from assignments alone, inferring ``y`` and ``z``.

        ``assignments`` may be either a mapping ``demand key -> reflectors`` or
        an iterable of ``(reflector, demand key)`` pairs (the form produced by
        the GAP stage).  Reflector builds and stream deliveries are the minimal
        sets needed to support the assignments.
        """
        normalized: dict[tuple[str, str], list[str]] = {}
        if isinstance(assignments, Mapping):
            for demand_key, reflectors in assignments.items():
                normalized[demand_key] = sorted(set(reflectors))
        else:
            for reflector, demand_key in assignments:
                normalized.setdefault(demand_key, [])
                if reflector not in normalized[demand_key]:
                    normalized[demand_key].append(reflector)
            for demand_key in normalized:
                normalized[demand_key] = sorted(normalized[demand_key])

        built: set[str] = set()
        deliveries: set[tuple[str, str]] = set()
        for (sink, stream), reflectors in normalized.items():
            for reflector in reflectors:
                built.add(reflector)
                deliveries.add((stream, reflector))
        return cls(
            problem=problem,
            built_reflectors=built,
            stream_deliveries=deliveries,
            assignments=normalized,
            metadata=metadata or {},
        )

    # ------------------------------------------------------------------- cost
    def reflector_cost(self) -> float:
        # All three cost sums iterate in sorted order so the totals are a pure
        # function of the solution's *content*: a solution rehydrated from its
        # JSON document reproduces the original floats bit-for-bit even though
        # its containers were populated in a different order.
        return sum(self.problem.reflector_cost(r) for r in sorted(self.built_reflectors))

    def stream_delivery_cost(self) -> float:
        return sum(
            self.problem.stream_edge(stream, reflector).cost
            for stream, reflector in sorted(self.stream_deliveries)
        )

    def assignment_cost(self) -> float:
        total = 0.0
        for (sink, stream), reflectors in sorted(self.assignments.items()):
            for reflector in reflectors:
                total += self.problem.delivery_cost(reflector, sink, stream)
        return total

    def total_cost(self) -> float:
        """The objective of Section 2 evaluated on this integral solution."""
        return self.reflector_cost() + self.stream_delivery_cost() + self.assignment_cost()

    # ------------------------------------------------------------ reliability
    def reflectors_serving(self, demand: Demand) -> list[str]:
        return list(self.assignments.get(demand.key, []))

    def delivered_weight(self, demand: Demand) -> float:
        """LHS of constraint (5): total (capped) weight delivered to the demand."""
        return sum(
            self.problem.edge_weight(demand, reflector)
            for reflector in self.reflectors_serving(demand)
        )

    def failure_probability(self, demand: Demand) -> float:
        """Exact probability that a packet reaches the sink along *no* path.

        Uses the true (uncapped) per-path failure probabilities, i.e. the
        quantity the weights are a proxy for.
        """
        failures = [
            self.problem.path_failure(demand, reflector)
            for reflector in self.reflectors_serving(demand)
        ]
        return combined_failure_probability(failures) if failures else 1.0

    def success_probability(self, demand: Demand) -> float:
        return 1.0 - self.failure_probability(demand)

    def weight_satisfaction(self, demand: Demand) -> float:
        """Delivered weight / required weight (>= 1 means the demand is met)."""
        required = self.problem.demand_weight(demand)
        if required <= 0:
            return 1.0
        return self.delivered_weight(demand) / required

    def weight_success_probability(self, demand: Demand) -> float:
        """Success probability implied by the *capped* delivered weight.

        This is the conservative quantity the approximation guarantee speaks
        about (a factor-4 weight shortfall corresponds to the fourth root of
        the failure target).
        """
        return success_from_weight(self.delivered_weight(demand))

    # ----------------------------------------------------------------- fanout
    def fanout_used(self, reflector: str) -> int:
        """Number of assignments routed through ``reflector``."""
        return sum(
            1
            for reflectors in self.assignments.values()
            for r in reflectors
            if r == reflector
        )

    def fanout_factor(self, reflector: str) -> float:
        """Fanout used / fanout bound (> 1 means the bound is violated)."""
        return self.fanout_used(reflector) / self.problem.fanout(reflector)

    def max_fanout_factor(self) -> float:
        used = {r for reflectors in self.assignments.values() for r in reflectors}
        if not used:
            return 0.0
        return max(self.fanout_factor(reflector) for reflector in used)

    def bandwidth_used(self, reflector: str) -> float:
        """Bandwidth-weighted load (Section 6.1) routed through ``reflector``."""
        total = 0.0
        for (sink, stream), reflectors in self.assignments.items():
            if reflector in reflectors:
                total += self.problem.stream_bandwidth(stream)
        return total

    # ------------------------------------------------------------- diagnostics
    def unserved_demands(self) -> list[Demand]:
        """Demands that receive no copy of their stream at all."""
        return [d for d in self.problem.demands if not self.reflectors_serving(d)]

    def demands_below_threshold(self) -> list[Demand]:
        """Demands whose exact success probability is below their requirement."""
        return [
            demand
            for demand in self.problem.demands
            if self.success_probability(demand) + 1e-12 < demand.success_threshold
        ]

    def color_violations(self) -> list[tuple[Demand, object, int]]:
        """Section 6.4 check: demands served more than once from a single color.

        Returns (demand, color, copies) triples for every violation.
        """
        violations: list[tuple[Demand, object, int]] = []
        for demand in self.problem.demands:
            per_color: dict[object, int] = {}
            for reflector in self.reflectors_serving(demand):
                color = self.problem.color(reflector)
                if color is None:
                    continue
                per_color[color] = per_color.get(color, 0) + 1
            for color, copies in per_color.items():
                if copies > 1:
                    violations.append((demand, color, copies))
        return violations

    def summary(self) -> dict:
        """Compact dictionary summary used by reports, examples and benchmarks.

        One pass over the demands and one over the assignments.  Each value
        is bit-identical to what the per-quantity methods
        (``weight_satisfaction``, ``success_probability``,
        ``demands_below_threshold``, ``max_fanout_factor``, ...) give, summed
        in the same order.
        """
        problem = self.problem
        satisfactions = []
        successes = []
        unserved = below = 0
        for demand in problem.demands:
            # Each path's failure probability feeds both its capped weight
            # (weight_satisfaction) and the product (success_probability).
            required = problem.demand_weight(demand)
            cap = min(MAX_WEIGHT, required)
            failures = [
                problem.path_failure(demand, reflector)
                for reflector in self.assignments.get(demand.key, ())
            ]
            delivered = sum(failure_to_weight(failure, cap=cap) for failure in failures)
            satisfactions.append(delivered / required if required > 0 else 1.0)
            success = 1.0 - (combined_failure_probability(failures) if failures else 1.0)
            successes.append(success)
            unserved += not failures
            below += success + 1e-12 < demand.success_threshold
        used: dict[str, int] = {}
        for reflectors in self.assignments.values():
            for reflector in reflectors:
                used[reflector] = used.get(reflector, 0) + 1
        return {
            "total_cost": self.total_cost(),
            "reflectors_built": len(self.built_reflectors),
            "assignments": sum(used.values()),
            "unserved_demands": unserved,
            "min_weight_satisfaction": min(satisfactions) if satisfactions else 1.0,
            "mean_weight_satisfaction": (
                sum(satisfactions) / len(satisfactions) if satisfactions else 1.0
            ),
            "min_success_probability": min(successes) if successes else 1.0,
            "max_fanout_factor": max(
                (count / problem.fanout(reflector) for reflector, count in used.items()),
                default=0.0,
            ),
            "demands_below_threshold": below,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"OverlaySolution(reflectors={len(self.built_reflectors)}, "
            f"assignments={sum(len(v) for v in self.assignments.values())}, "
            f"cost={self.total_cost():.3f})"
        )
