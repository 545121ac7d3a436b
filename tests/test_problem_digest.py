"""The problem-digest contract (see ``docs/serving.md``).

``problem_digest`` keys the serving caches, so it must name a problem's
*content*: it ignores the instance name and the order entities were added
in, survives the JSON document and pickle round trips, counts floats to 9
places, and changes under every single-field edit that a design could see.

Problems are drawn as plain specs (lists of rows) and built in a drawn
insertion order.  Numbers are drawn on a 1/1000 grid: a value at most 1e-10
from a 9-place rounding boundary would move the digest under a sub-1e-10
edit by the rounding contract itself, and a grid value is 5e-10 away from
every boundary.
"""

from __future__ import annotations

import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import OverlayDesignProblem
from repro.core.serialization import problem_digest, problem_from_dict, problem_to_dict

TINY = 1e-11

#: Each example builds and digests a dozen small problems; 50 keep the
#: module near five seconds.
examples = settings(max_examples=50)


def grid(low: int, high: int):
    return st.integers(low, high).map(lambda k: k / 1000)


@st.composite
def specs(draw, min_streams: int = 1):
    """A small problem as plain rows, with every family non-empty.

    With two or more streams the first delivery link overrides some streams
    but not all, so both its base cost and an override are visible and can
    be edited.
    """
    streams = [f"k{i}" for i in range(draw(st.integers(min_streams, 3)))]
    reflectors = [f"r{i}" for i in range(draw(st.integers(1, 4)))]
    sinks = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    spec = {
        "streams": [[k, draw(grid(500, 3000))] for k in streams],
        "reflectors": [
            [
                r,
                draw(grid(0, 20_000)),
                draw(st.integers(1, 9)),
                draw(st.sampled_from([None, "isp0", "isp1", 7])),
                draw(st.one_of(st.none(), grid(1000, 5000))),
            ]
            for r in reflectors
        ],
        "sinks": list(sinks),
        "stream_edges": [],
        "delivery_edges": [],
        "demands": [],
    }
    pairs = [(k, r) for k in streams for r in reflectors]
    for k, r in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        spec["stream_edges"].append([k, r, draw(grid(0, 400)), draw(grid(0, 5000))])
    links = [(r, s) for r in reflectors for s in sinks]
    for index, (r, s) in enumerate(
        draw(st.lists(st.sampled_from(links), min_size=1, unique=True))
    ):
        first = index == 0 and len(streams) > 1
        chosen = draw(
            st.lists(
                st.sampled_from(streams),
                min_size=int(first),
                max_size=len(streams) - 1 if index == 0 else len(streams),
                unique=True,
            )
        )
        overrides = {k: draw(grid(0, 5000)) for k in chosen}
        spec["delivery_edges"].append(
            [
                r,
                s,
                draw(grid(0, 400)),
                draw(grid(0, 5000)),
                overrides,
                draw(st.one_of(st.none(), grid(1000, 5000))),
            ]
        )
    demands = [(s, k) for s in sinks for k in streams]
    for s, k in draw(st.lists(st.sampled_from(demands), min_size=1, unique=True)):
        spec["demands"].append([s, k, draw(grid(100, 900))])
    return spec


def build(spec: dict, order: int | None = None, name: str = "p") -> OverlayDesignProblem:
    """Build ``spec``; ``order`` seeds a shuffle of every family's rows."""
    rng = random.Random(order)

    def rows(family):
        rows = list(spec[family])
        if order is not None:
            rng.shuffle(rows)
        return rows

    problem = OverlayDesignProblem(name=name)
    for stream, bandwidth in rows("streams"):
        problem.add_stream(stream, bandwidth=bandwidth)
    for reflector, cost, fanout, color, capacity in rows("reflectors"):
        problem.add_reflector(reflector, cost, fanout, color=color, capacity=capacity)
    for sink in rows("sinks"):
        problem.add_sink(sink)
    for stream, reflector, loss, cost in rows("stream_edges"):
        problem.add_stream_edge(stream, reflector, loss, cost)
    for reflector, sink, loss, cost, overrides, capacity in rows("delivery_edges"):
        items = list(overrides.items())
        if order is not None:
            rng.shuffle(items)
        problem.add_delivery_edge(
            reflector, sink, loss, cost, stream_costs=dict(items) or None, capacity=capacity
        )
    for sink, stream, threshold in rows("demands"):
        problem.add_demand(sink, stream, threshold)
    return problem


def _bump_override(spec, step):
    overrides = spec["delivery_edges"][0][4]
    overrides[next(iter(overrides))] += step


def _set_capacity(row, index, step):
    row[index] = (row[index] if row[index] is not None else 1.0) + step


#: One single-field edit per hashed field: ``edit(spec, step)`` moves the
#: field by ``step`` (a rounding-visible 1e-3, or a sub-1e-10 ``TINY``).
EDITS = {
    "stream bandwidth": lambda spec, step: spec["streams"][0].__setitem__(
        1, spec["streams"][0][1] + step
    ),
    "reflector cost": lambda spec, step: spec["reflectors"][0].__setitem__(
        1, spec["reflectors"][0][1] + step
    ),
    "reflector capacity": lambda spec, step: _set_capacity(spec["reflectors"][0], 4, step),
    "stream-edge loss": lambda spec, step: spec["stream_edges"][0].__setitem__(
        2, spec["stream_edges"][0][2] + step
    ),
    "stream-edge cost": lambda spec, step: spec["stream_edges"][0].__setitem__(
        3, spec["stream_edges"][0][3] + step
    ),
    "delivery loss": lambda spec, step: spec["delivery_edges"][0].__setitem__(
        2, spec["delivery_edges"][0][2] + step
    ),
    "delivery base cost": lambda spec, step: spec["delivery_edges"][0].__setitem__(
        3, spec["delivery_edges"][0][3] + step
    ),
    "per-stream override": _bump_override,
    "arc capacity": lambda spec, step: _set_capacity(spec["delivery_edges"][0], 5, step),
    "demand threshold": lambda spec, step: spec["demands"][0].__setitem__(
        2, spec["demands"][0][2] + step
    ),
}


#: Edits of fields that are not rounded floats (checked for sensitivity only).
#: The colour cycle ends at int 7 -> str "7", which JSON tells apart.
STRUCTURAL_EDITS = {
    "reflector fanout": lambda spec: spec["reflectors"][0].__setitem__(
        2, spec["reflectors"][0][2] + 1
    ),
    "reflector colour": lambda spec: spec["reflectors"][0].__setitem__(
        3, {None: "isp0", "isp0": "isp1", "isp1": 7, 7: "7"}[spec["reflectors"][0][3]]
    ),
    "isolated sink": lambda spec: spec["sinks"].append("isolated"),
}


def _costs(problem):
    """Every link's effective per-stream cost: what an edit must move."""
    return {
        (reflector, sink, stream): problem.delivery_cost(reflector, sink, stream)
        for reflector, sink in problem.delivery_links()
        for stream in problem.streams
    }


class TestInvariance:
    @examples
    @given(specs(), st.integers(0, 10_000))
    def test_insertion_order_and_name_do_not_matter(self, spec, order):
        assert problem_digest(build(spec, order, name="other")) == problem_digest(build(spec))

    @examples
    @given(specs())
    def test_document_round_trip(self, spec):
        problem = build(spec)
        document = json.loads(json.dumps(problem_to_dict(problem)))
        assert problem_digest(problem_from_dict(document)) == problem_digest(problem)

    @examples
    @given(specs())
    def test_round_trip_with_an_override_on_the_first_stream(self, spec):
        # The document re-anchors the link at streams[0]'s cost and lists the
        # base cost as a per-stream exception; the network is the same.
        spec["delivery_edges"][0][4][spec["streams"][0][0]] = 123.456
        problem = build(spec)
        rebuilt = problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
        assert _costs(rebuilt) == _costs(problem)
        assert problem_digest(rebuilt) == problem_digest(problem)

    @examples
    @given(specs())
    def test_pickle_round_trip(self, spec):
        problem = build(spec)
        assert problem_digest(pickle.loads(pickle.dumps(problem))) == problem_digest(problem)

    @examples
    @given(specs())
    def test_override_equal_to_base_is_no_override(self, spec):
        edge = spec["delivery_edges"][0]
        plain = build(spec)
        for stream, _bandwidth in spec["streams"]:
            if stream not in edge[4]:
                edge[4][stream] = edge[3]
        assert problem_digest(build(spec)) == problem_digest(plain)


class TestSensitivity:
    @examples
    @given(specs(min_streams=2))
    def test_single_field_edit_changes_digest(self, spec):
        before = problem_digest(build(spec))
        for field, edit in EDITS.items():
            edited = copy.deepcopy(spec)
            edit(edited, 1e-3)
            assert problem_digest(build(edited)) != before, field
        for field, edit in STRUCTURAL_EDITS.items():
            edited = copy.deepcopy(spec)
            edit(edited)
            assert problem_digest(build(edited)) != before, field

    @examples
    @given(specs(min_streams=2))
    def test_sub_1e10_edit_keeps_digest(self, spec):
        before = problem_digest(build(spec))
        unset = {
            "reflector capacity": spec["reflectors"][0][4] is None,
            "arc capacity": spec["delivery_edges"][0][5] is None,
        }
        for field, edit in EDITS.items():
            if unset.get(field):
                continue  # None -> a number is not a small edit
            edited = copy.deepcopy(spec)
            edit(edited, TINY)
            assert problem_digest(build(edited)) == before, field


def test_separator_in_a_name_does_not_collide():
    def problem(sinks):
        problem = OverlayDesignProblem()
        for sink in sinks:
            problem.add_sink(sink)
        return problem

    assert problem_digest(problem(["a,b"])) != problem_digest(problem(["a", "b"]))
    assert problem_digest(problem(['a", "b'])) != problem_digest(problem(["a", "b"]))


def test_entities_do_not_move_between_families():
    """A reflector and a sink of the same name are different problems."""
    with_reflector = OverlayDesignProblem()
    with_reflector.add_reflector("x", cost=1.0, fanout=1)
    with_sink = OverlayDesignProblem()
    with_sink.add_sink("x")
    assert problem_digest(with_reflector) != problem_digest(with_sink)
