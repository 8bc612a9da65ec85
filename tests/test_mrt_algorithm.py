"""Tests for the FS-MRT solver (Theorem 3 end to end)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.flow import Flow
from repro.core.greedy import greedy_earliest_fit
from repro.core.instance import Instance
from repro.core.metrics import max_response_time
from repro.core.schedule import validate_schedule
from repro.core.switch import Switch
from repro.lp.bounds import LPBoundOracle, mrt_lower_bound
from repro.mrt.algorithm import schedule_time_constrained, solve_mrt
from repro.mrt.exact import exact_min_max_response
from repro.mrt.time_constrained import from_deadlines
from tests.conftest import capacitated_instances, unit_instances


def _assert_rounds_unless_greedy_meets_rho(inst, res):
    """The greedy schedule comes back unrounded exactly when it meets
    rho*; every other solve runs the rounding loop."""
    greedy = greedy_earliest_fit(inst)
    if res.rho == max_response_time(greedy):
        np.testing.assert_array_equal(
            res.schedule.assignment, greedy.assignment
        )
        assert res.rounding_iterations == 0
        assert res.max_violation == 0
    else:
        assert res.rounding_iterations >= 1


def _incast():
    """Four flows into output 0: rho* = 4 = the greedy cap."""
    return Instance.create(Switch.create(4), [Flow(i, 0) for i in range(4)])


class TestSolveMRT:
    def test_empty_instance(self):
        res = solve_mrt(Instance.create(Switch.create(1), []))
        assert res.rho == 0

    def test_empty_instance_checks_rho_upper(self):
        empty = Instance.create(Switch.create(1), [])
        with pytest.raises(TypeError, match="rho_upper must be an integer"):
            solve_mrt(empty, rho_upper=2.5)
        assert solve_mrt(empty, rho_upper=2).rho == 0

    def test_parallel_flows_rho_one(self):
        inst = Instance.create(
            Switch.create(3), [Flow(0, 0), Flow(1, 1), Flow(2, 2)]
        )
        res = solve_mrt(inst)
        assert res.rho == 1
        assert res.max_violation == 0

    def test_conflicting_flows_rho_two(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 0), Flow(0, 1)])
        res = solve_mrt(inst)
        assert res.rho == 2

    def test_incast_rho_equals_fan_in(self):
        inst = Instance.create(
            Switch.create(4), [Flow(i, 0) for i in range(4)]
        )
        res = solve_mrt(inst)
        assert res.rho == 4

    def test_invalid_rho_upper_detected(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 0), Flow(0, 1)])
        with pytest.raises(ValueError, match="rho_upper"):
            solve_mrt(inst, rho_upper=1)

    @given(unit_instances(max_flows=7))
    @settings(max_examples=30, deadline=None)
    def test_rho_is_exactly_optimal_for_unit_demands(self, inst):
        """For unit demands the LP bound matches the exact optimum on
        these small instances, and the schedule meets it with <= 1 extra
        capacity (Remark 4.4: the tight case)."""
        if inst.num_flows == 0:
            return
        res = solve_mrt(inst)
        opt = exact_min_max_response(inst)
        assert res.rho <= opt
        assert max_response_time(res.schedule) <= res.rho
        assert res.max_violation <= 1  # 2*1 - 1
        _assert_rounds_unless_greedy_meets_rho(inst, res)

    @given(capacitated_instances(max_flows=6))
    @settings(max_examples=30, deadline=None)
    def test_general_demand_guarantees(self, inst):
        if inst.num_flows == 0:
            return
        res = solve_mrt(inst)
        greedy = greedy_earliest_fit(inst)
        assert res.rho <= max_response_time(greedy)
        assert max_response_time(res.schedule) <= res.rho
        assert res.max_violation <= 2 * inst.max_demand - 1
        validate_schedule(
            res.schedule,
            inst.switch.augmented(additive=max(res.max_violation, 0)),
        )
        _assert_rounds_unless_greedy_meets_rho(inst, res)


class TestGreedyShortcut:
    """rho* equal to the greedy cap: the greedy schedule is an integral
    optimal vertex of LP (19)-(21) at rho*, returned with no LP after
    the search."""

    def test_incast_returns_greedy_schedule(self):
        inst = _incast()
        res = solve_mrt(inst)
        assert res.rho == 4
        np.testing.assert_array_equal(
            res.schedule.assignment, greedy_earliest_fit(inst).assignment
        )
        assert res.lp_solves == 0
        assert res.rounding_iterations == 0
        assert res.max_violation == 0
        assert res.fallback_drops == 0

    def test_oracle_keeps_its_greedy_schedule(self):
        inst = _incast()
        oracle = LPBoundOracle(inst)
        np.testing.assert_array_equal(
            oracle.greedy.assignment, greedy_earliest_fit(inst).assignment
        )
        assert max_response_time(oracle.greedy) == oracle.rho_cap
        # A caller's cap certifies no schedule, so the solve rounds.
        assert LPBoundOracle(inst, rho_cap=4).greedy is None
        empty = Instance.create(Switch.create(1), [])
        assert LPBoundOracle(empty).greedy is None
        capped = solve_mrt(inst, rho_upper=4)
        assert capped.rho == 4
        assert capped.rounding_iterations >= 1


class TestLowerBoundAndDeadlines:
    def test_fractional_bound_matches_solver(self):
        inst = Instance.create(
            Switch.create(3), [Flow(0, 0), Flow(1, 0), Flow(2, 0)]
        )
        assert mrt_lower_bound(inst) == solve_mrt(inst).rho

    def test_fractional_bound_empty(self):
        assert mrt_lower_bound(
            Instance.create(Switch.create(1), [])
        ) == 0

    def test_deadline_model(self):
        inst = Instance.create(
            Switch.create(2), [Flow(0, 0, 1, 0), Flow(0, 1, 1, 0)]
        )
        ok = schedule_time_constrained(from_deadlines(inst, [1, 1]))
        assert ok.feasible
        bad = schedule_time_constrained(from_deadlines(inst, [0, 0]))
        assert not bad.feasible  # both need input 0 in round 0
