"""JSON (de)serialization of problems and solutions.

A deployable overlay designer needs its inputs (measured loss rates, costs,
fanouts, demand sets) and outputs (which reflectors serve which edgeservers)
to cross process boundaries: the measurement pipeline produces the instance,
the designer runs periodically ("our algorithm is reasonably fast so it can be
rerun as often as needed", Section 1.3), and the resulting design is pushed to
the entrypoints and reflectors.  This module provides a stable, versioned JSON
encoding for :class:`OverlayDesignProblem` and :class:`OverlaySolution` and is
what the CLI (:mod:`repro.cli`) reads and writes.
"""

from __future__ import annotations

import hashlib
import json
from operator import itemgetter
from typing import Any

import numpy as np

from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution

#: Format version written into every document; bump on breaking changes.
FORMAT_VERSION = 1


def problem_to_dict(problem: OverlayDesignProblem) -> dict[str, Any]:
    """Encode a problem as a JSON-compatible dictionary."""
    streams = problem.streams
    overrides = problem.delivery_stream_cost_overrides()
    capacities = problem.arc_capacities()
    return {
        "format_version": FORMAT_VERSION,
        "kind": "overlay-design-problem",
        "name": problem.name,
        "streams": [
            {"name": stream, "bandwidth": problem.stream_bandwidth(stream)}
            for stream in streams
        ],
        "reflectors": [
            {
                "name": reflector,
                "cost": info.cost,
                "fanout": info.fanout,
                "color": info.color,
                "capacity": info.capacity,
            }
            for reflector in problem.reflectors
            for info in [problem.reflector_info(reflector)]
        ],
        "sinks": list(problem.sinks),
        "stream_edges": [
            {
                "stream": edge.stream,
                "reflector": edge.reflector,
                "loss_probability": edge.loss_probability,
                "cost": edge.cost,
            }
            for edge in problem.stream_edges()
        ],
        "delivery_edges": [
            {
                "reflector": reflector,
                "sink": sink,
                "loss_probability": loss,
                "cost": cost,
                "stream_costs": stream_costs,
                "capacity": capacities.get((reflector, sink)),
            }
            for reflector, sink, loss, base in problem.delivery_link_data()
            for cost, stream_costs in [
                _effective_costs(base, overrides.get((reflector, sink)), streams)
            ]
        ],
        "demands": [
            {
                "sink": demand.sink,
                "stream": demand.stream,
                "success_threshold": demand.success_threshold,
            }
            for demand in problem.demands
        ],
    }


def _effective_costs(
    base: float, overrides: dict[str, float] | None, streams: list[str]
) -> tuple[float, dict[str, float]]:
    """A link's cost for ``streams[0]`` and the stream costs that differ from it.

    This is the link's per-stream cost function in the document's form: the
    ``cost`` field plus the ``stream_costs`` exceptions.  With no streams the
    cost is 0.0 (nothing can be carried).
    """
    if not streams:
        return 0.0, {}
    if not overrides:
        return base, {}
    costs = [overrides.get(stream, base) for stream in streams]
    return costs[0], {
        stream: cost for stream, cost in zip(streams, costs) if cost != costs[0]
    }


def problem_from_dict(data: dict[str, Any]) -> OverlayDesignProblem:
    """Decode a problem from a dictionary produced by :func:`problem_to_dict`."""
    _check_document(data, "overlay-design-problem")
    problem = OverlayDesignProblem(name=data.get("name", "overlay-design"))
    for stream in data.get("streams", []):
        problem.add_stream(stream["name"], bandwidth=stream.get("bandwidth", 1.0))
    for reflector in data.get("reflectors", []):
        problem.add_reflector(
            reflector["name"],
            cost=reflector["cost"],
            fanout=reflector["fanout"],
            color=reflector.get("color"),
            capacity=reflector.get("capacity"),
        )
    for sink in data.get("sinks", []):
        problem.add_sink(sink)
    for edge in data.get("stream_edges", []):
        problem.add_stream_edge(
            edge["stream"],
            edge["reflector"],
            loss_probability=edge["loss_probability"],
            cost=edge["cost"],
        )
    for edge in data.get("delivery_edges", []):
        problem.add_delivery_edge(
            edge["reflector"],
            edge["sink"],
            loss_probability=edge["loss_probability"],
            cost=edge["cost"],
            stream_costs=edge.get("stream_costs") or None,
            capacity=edge.get("capacity"),
        )
    for demand in data.get("demands", []):
        problem.add_demand(
            demand["sink"], demand["stream"], success_threshold=demand["success_threshold"]
        )
    return problem


def solution_to_dict(solution: OverlaySolution) -> dict[str, Any]:
    """Encode a solution (without its problem) as a JSON-compatible dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "overlay-solution",
        "problem_name": solution.problem.name,
        "built_reflectors": sorted(solution.built_reflectors),
        "stream_deliveries": sorted(list(pair) for pair in solution.stream_deliveries),
        "assignments": [
            {"sink": sink, "stream": stream, "reflectors": list(reflectors)}
            for (sink, stream), reflectors in sorted(solution.assignments.items())
        ],
        "metadata": {
            key: value
            for key, value in solution.metadata.items()
            if isinstance(value, (str, int, float, bool, type(None)))
        },
        "summary": solution.summary(),
    }


def solution_from_dict(
    data: dict[str, Any], problem: OverlayDesignProblem
) -> OverlaySolution:
    """Decode a solution against its problem instance."""
    _check_document(data, "overlay-solution")
    assignments = {
        (entry["sink"], entry["stream"]): list(entry["reflectors"])
        for entry in data.get("assignments", [])
    }
    solution = OverlaySolution.from_assignments(
        problem, assignments, metadata=dict(data.get("metadata", {}))
    )
    return solution


def dump_problem(problem: OverlayDesignProblem, path: str) -> None:
    """Write a problem to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(problem_to_dict(problem), handle, indent=2, sort_keys=True)


def load_problem(path: str) -> OverlayDesignProblem:
    """Read a problem from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return problem_from_dict(json.load(handle))


def dump_solution(solution: OverlaySolution, path: str) -> None:
    """Write a solution to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(solution_to_dict(solution), handle, indent=2, sort_keys=True)


def load_solution(path: str, problem: OverlayDesignProblem) -> OverlaySolution:
    """Read a solution from a JSON file (needs the matching problem)."""
    with open(path, "r", encoding="utf-8") as handle:
        return solution_from_dict(json.load(handle), problem)


def canonical_digest(document: Any, *, places: int = 9, length: int = 16) -> str:
    """Stable short digest of a JSON-compatible document.

    Floats are rounded to ``places`` decimal places and dictionary keys are
    sorted before hashing, so the digest is insensitive to insertion order
    and to sub-ULP float noise -- the same convention the golden regression
    corpus uses.  Two documents with equal digests are, for regression
    purposes, the same document.
    """

    def canonical(obj: Any) -> Any:
        if isinstance(obj, float):
            return round(float(obj), places)
        if isinstance(obj, dict):
            return {str(k): canonical(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [canonical(v) for v in obj]
        return obj

    payload = json.dumps(canonical(document), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:length]


def problem_digest(problem: OverlayDesignProblem) -> str:
    """Canonical content digest of a problem (name excluded).

    Ignores the instance's ``name`` and the order entities were added in:
    two problems describing the same network (same streams, reflectors,
    sinks, edges, demands) digest identically even if they were built in
    different orders -- which is what makes the digest useful for checking
    delta round-trips (``apply(apply(P, d), invert(d)) == P``).

    Each entity family is sorted once by its unique key and hashed as
    columns: its names (and colours) as one JSON array, its numbers as one
    float64 array rounded to 9 places.  A missing capacity is hashed as -1,
    which no valid capacity (> 0) can be.  A link's per-stream costs enter
    in the document's form -- the cost for one stream plus the stream costs
    that differ from it -- but anchored at the name-smallest stream, so the
    order streams were added in does not matter either.
    """
    streams = sorted(problem.streams)
    overrides = problem.delivery_stream_cost_overrides()
    capacities = problem.arc_capacities()

    reflectors, sinks, losses, costs = _sorted_columns(problem.delivery_link_data(), 2, 4)
    if not streams:
        costs = [0.0] * len(costs)
    elif overrides:
        costs = [
            overrides[key].get(streams[0], cost) if key in overrides else cost
            for key, cost in zip(zip(reflectors, sinks), costs)
        ]
    limits = [-1.0] * len(costs)
    if capacities:
        limits = [capacities.get(key, -1.0) for key in zip(reflectors, sinks)]
    # The stream costs that differ from the link's cost for streams[0],
    # compared after rounding so a sub-1e-9 override changes nothing.
    shared = list(overrides) if streams else []
    effective = np.round(
        np.array(
            [[problem.delivery_cost(*key, stream) for stream in streams] for key in shared],
            dtype=float,
        ).reshape(len(shared), len(streams)),
        9,
    )
    exceptions = _sorted_columns(
        [
            (*shared[row], streams[column], effective[row, column])
            for row, column in zip(*np.nonzero(effective != effective[:, :1]))
        ],
        3,
        4,
    )
    info = sorted(
        (problem.reflector_info(name) for name in problem.reflectors),
        key=lambda reflector: reflector.name,
    )
    stream_edges = _sorted_columns(
        [
            (edge.stream, edge.reflector, edge.loss_probability, edge.cost)
            for edge in problem.stream_edges()
        ],
        2,
        4,
    )
    demands = _sorted_columns(
        [(demand.sink, demand.stream, demand.success_threshold) for demand in problem.demands],
        2,
        3,
    )

    digest = hashlib.sha256()
    _hash_columns(digest, b"sinks", [sorted(problem.sinks)], [])
    _hash_columns(
        digest, b"streams", [streams], [[problem.stream_bandwidth(k) for k in streams]]
    )
    _hash_columns(
        digest,
        b"reflectors",
        [[r.name for r in info], [r.color for r in info]],
        [
            [r.cost for r in info],
            [r.fanout for r in info],
            [-1.0 if r.capacity is None else r.capacity for r in info],
        ],
    )
    _hash_columns(digest, b"stream_edges", stream_edges[:2], stream_edges[2:])
    _hash_columns(digest, b"delivery_edges", [reflectors, sinks], [losses, costs, limits])
    _hash_columns(digest, b"stream_costs", exceptions[:3], exceptions[3:])
    _hash_columns(digest, b"demands", demands[:2], demands[2:])
    return digest.hexdigest()[:16]


def _sorted_columns(rows: list[tuple], keys: int, width: int) -> list[tuple]:
    """The ``width`` columns of ``rows`` in the order of their first ``keys`` entries.

    Those entries form a unique key, so this is plain tuple order.  One
    stable sort per key column, last first, compares single strings
    instead of tuples and takes about half as long.
    """
    for index in reversed(range(keys)):
        rows.sort(key=itemgetter(index))
    return list(zip(*rows)) or [()] * width


def _hash_columns(digest: Any, tag: bytes, labels: list, numbers: list) -> None:
    """Feed one key-sorted entity family to ``digest``.

    ``labels`` go in as one JSON array, so no separator inside a name can
    make two families collide; ``numbers`` as one float64 array rounded to 9
    places (``+ 0.0`` folds a rounded ``-0.0`` into ``0.0``).  Each part is
    tagged and prefixed with its length.
    """
    values = np.round(np.array(numbers, dtype="<f8"), 9) + 0.0
    for payload in (json.dumps(labels).encode(), values.tobytes()):
        digest.update(tag + len(payload).to_bytes(8, "little") + payload)


def solution_digest(solution: OverlaySolution) -> str:
    """Canonical digest of a solution's observable outcome.

    Covers the assignments, builds, deliveries, and cost summary -- not the
    free-form metadata (which records provenance such as timings or the
    algorithm label, and legitimately differs between equivalent runs).
    """
    document = solution_to_dict(solution)
    document.pop("metadata", None)
    document.pop("problem_name", None)
    return canonical_digest(document)


def check_document(
    data: dict[str, Any],
    expected_kind: str,
    *,
    version: int = FORMAT_VERSION,
    version_key: str = "format_version",
    accept_versions: tuple[int, ...] | None = None,
) -> int:
    """Validate a document's ``kind`` discriminator and version field.

    Shared by this module's problem/solution documents (``format_version``)
    and the :mod:`repro.api` request/result documents (``schema_version``).
    ``accept_versions`` lists every readable version when a schema bump keeps
    older documents loadable (defaults to just ``version``); the version
    actually found is returned so decoders can branch on it.
    """
    if not isinstance(data, dict):
        raise ValueError("document must be a JSON object")
    kind = data.get("kind")
    if kind != expected_kind:
        raise ValueError(f"expected a {expected_kind!r} document, got {kind!r}")
    accepted = accept_versions if accept_versions is not None else (version,)
    found = data.get(version_key)
    if found not in accepted:
        readable = "/".join(str(v) for v in accepted)
        raise ValueError(
            f"unsupported {version_key} {found!r} (this build reads {readable})"
        )
    return found


def _check_document(data: dict[str, Any], expected_kind: str) -> None:
    check_document(data, expected_kind)
