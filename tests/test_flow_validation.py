"""Tests for flow validation helpers (repro.flow.validation)."""

from __future__ import annotations

import pytest

from repro.flow import (
    FlowNetwork,
    assert_feasible_flow,
    flow_conservation_violations,
    is_feasible_flow,
    min_cost_max_flow,
)


def _path_network() -> tuple[FlowNetwork, int, int, int, int]:
    net = FlowNetwork()
    s, a, t = net.add_node(), net.add_node(), net.add_node()
    e1 = net.add_edge(s, a, capacity=2.0)
    net.add_edge(a, t, capacity=2.0)
    return net, s, a, t, e1


class TestValidation:
    def test_zero_flow_is_feasible(self):
        net, s, _a, t, _e1 = _path_network()
        assert is_feasible_flow(net, s, t)
        assert flow_conservation_violations(net, s, t) == {}

    def test_solved_flow_is_feasible(self):
        net, s, _a, t, _e1 = _path_network()
        min_cost_max_flow(net, s, t)
        assert is_feasible_flow(net, s, t)
        assert_feasible_flow(net, s, t)

    def test_conservation_violation_detected(self):
        net, s, a, t, e1 = _path_network()
        net.flow[e1] = 1.5  # flow into 'a' without flow out
        violations = flow_conservation_violations(net, s, t)
        assert a in violations
        assert violations[a] == pytest.approx(1.5)
        assert not is_feasible_flow(net, s, t)
        with pytest.raises(AssertionError):
            assert_feasible_flow(net, s, t)

    def test_capacity_violation_detected(self):
        net = FlowNetwork()
        s, t = net.add_node(), net.add_node()
        edge = net.add_edge(s, t, capacity=1.0)
        net.flow[edge] = 1.5
        assert not is_feasible_flow(net, s, t)
        with pytest.raises(AssertionError):
            assert_feasible_flow(net, s, t)

    def test_terminals_excluded_from_conservation(self):
        net, s, _a, t, _e1 = _path_network()
        min_cost_max_flow(net, s, t)
        # Source/sink imbalance is expected and must not be flagged.
        assert s not in flow_conservation_violations(net, s, t)
        assert t not in flow_conservation_violations(net, s, t)
