"""Tests for JSON (de)serialization (repro.core.serialization)."""

from __future__ import annotations

import json

import pytest

from repro.core.serialization import (
    FORMAT_VERSION,
    dump_problem,
    dump_solution,
    load_problem,
    load_solution,
    problem_from_dict,
    problem_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from repro.core.solution import OverlaySolution
from repro.workloads import RandomInstanceConfig, random_problem


class TestProblemRoundtrip:
    def test_roundtrip_preserves_structure(self, tiny_problem):
        data = problem_to_dict(tiny_problem)
        restored = problem_from_dict(data)
        assert restored.streams == tiny_problem.streams
        assert restored.reflectors == tiny_problem.reflectors
        assert restored.sinks == tiny_problem.sinks
        assert restored.demands == tiny_problem.demands
        for edge in tiny_problem.stream_edges():
            other = restored.stream_edge(edge.stream, edge.reflector)
            assert other.loss_probability == pytest.approx(edge.loss_probability)
            assert other.cost == pytest.approx(edge.cost)
        for reflector, sink in tiny_problem.delivery_links():
            assert restored.delivery_loss(reflector, sink) == pytest.approx(
                tiny_problem.delivery_loss(reflector, sink)
            )
            assert restored.delivery_cost(reflector, sink, "s") == pytest.approx(
                tiny_problem.delivery_cost(reflector, sink, "s")
            )

    def test_roundtrip_preserves_colors_capacities_bandwidth(self, colored_problem):
        restored = problem_from_dict(problem_to_dict(colored_problem))
        for reflector in colored_problem.reflectors:
            assert restored.color(reflector) == colored_problem.color(reflector)
        for stream in colored_problem.streams:
            assert restored.stream_bandwidth(stream) == pytest.approx(
                colored_problem.stream_bandwidth(stream)
            )

    def test_document_is_json_serializable(self, small_random_problem):
        text = json.dumps(problem_to_dict(small_random_problem))
        restored = problem_from_dict(json.loads(text))
        assert restored.num_demands == small_random_problem.num_demands

    def test_file_roundtrip(self, tmp_path, tiny_problem):
        path = tmp_path / "problem.json"
        dump_problem(tiny_problem, str(path))
        restored = load_problem(str(path))
        assert restored.num_demands == tiny_problem.num_demands

    def test_rejects_wrong_kind_and_version(self, tiny_problem):
        data = problem_to_dict(tiny_problem)
        with pytest.raises(ValueError):
            problem_from_dict({**data, "kind": "something-else"})
        with pytest.raises(ValueError):
            problem_from_dict({**data, "format_version": FORMAT_VERSION + 1})
        with pytest.raises(ValueError):
            problem_from_dict("not a dict")  # type: ignore[arg-type]

    def test_designing_restored_problem_gives_same_lp_bound(self):
        from repro.core.algorithm import fractional_lower_bound

        problem = random_problem(RandomInstanceConfig(num_reflectors=5, num_sinks=6), rng=0)
        restored = problem_from_dict(problem_to_dict(problem))
        assert fractional_lower_bound(restored) == pytest.approx(
            fractional_lower_bound(problem), rel=1e-6
        )


def _delivery_edges_by_lookup(problem) -> list[dict]:
    """The document's delivery edges, looked up link by link and stream by stream."""
    first = problem.streams[0] if problem.streams else None
    rows = []
    for reflector, sink in problem.delivery_links():
        cost = problem.delivery_cost(reflector, sink, first) if first is not None else 0.0
        rows.append(
            {
                "reflector": reflector,
                "sink": sink,
                "loss_probability": problem.delivery_loss(reflector, sink),
                "cost": cost,
                "stream_costs": {
                    stream: problem.delivery_cost(reflector, sink, stream)
                    for stream in problem.streams
                    if problem.delivery_cost(reflector, sink, stream) != cost
                },
                "capacity": problem.arc_capacity(reflector, sink),
            }
        )
    return rows


def _problem_with_overrides():
    problem = random_problem(
        RandomInstanceConfig(num_streams=3, num_reflectors=4, num_sinks=5), rng=3
    )
    document = problem_to_dict(problem)
    edges = document["delivery_edges"]
    # On streams[0] "s0", so every other stream differs from the link's cost.
    edges[0].update(stream_costs={"s0": 9.5}, capacity=2.0)
    edges[1].update(stream_costs={"s1": 0.25, "s2": 7.0})
    # Equal to the base cost: no stream differs.
    edges[2].update(stream_costs={"s1": edges[2]["cost"]}, capacity=3.0)
    return problem_from_dict(document)


class TestDeliveryEdgeDocument:
    """Each link's per-stream costs are computed once; the document is unchanged."""

    @pytest.mark.parametrize("workload", ["tiny", "random-mid", "akamai-small"])
    def test_golden_workloads(self, workload):
        from test_golden_designs import WORKLOADS

        problem = WORKLOADS[workload]()
        document = problem_to_dict(problem)
        assert json.dumps(document["delivery_edges"]) == json.dumps(
            _delivery_edges_by_lookup(problem)
        )

    def test_per_stream_overrides(self):
        problem = _problem_with_overrides()
        assert problem.delivery_stream_cost_overrides()
        edges = problem_to_dict(problem)["delivery_edges"]
        assert edges[0]["stream_costs"]
        assert json.dumps(edges, sort_keys=True) == json.dumps(
            _delivery_edges_by_lookup(problem), sort_keys=True
        )
        assert json.dumps(edges) == json.dumps(_delivery_edges_by_lookup(problem))


class TestSolutionRoundtrip:
    def test_roundtrip(self, tiny_problem, tmp_path):
        solution = OverlaySolution.from_assignments(
            tiny_problem,
            {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r3"]},
            metadata={"algorithm": "manual", "multiplier": 3.5},
        )
        data = solution_to_dict(solution)
        restored = solution_from_dict(data, tiny_problem)
        assert restored.assignments == solution.assignments
        assert restored.built_reflectors == solution.built_reflectors
        assert restored.total_cost() == pytest.approx(solution.total_cost())
        assert restored.metadata["algorithm"] == "manual"

        path = tmp_path / "solution.json"
        dump_solution(solution, str(path))
        from_file = load_solution(str(path), tiny_problem)
        assert from_file.assignments == solution.assignments

    def test_summary_embedded(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        data = solution_to_dict(solution)
        assert data["summary"]["assignments"] == 1

    def test_rejects_wrong_kind(self, tiny_problem):
        with pytest.raises(ValueError):
            solution_from_dict({"kind": "overlay-design-problem", "format_version": 1}, tiny_problem)
