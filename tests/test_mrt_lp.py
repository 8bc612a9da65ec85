"""Tests for LP (19)-(21), the Time-Constrained relaxation."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from repro.mrt.exact import exact_time_constrained_schedule
from repro.mrt.lp_relaxation import (
    build_time_constrained_lp,
    is_fractionally_feasible,
    solve_fractional,
)
from repro.mrt.time_constrained import (
    TimeConstrainedInstance,
    from_response_bound,
)
from tests.conftest import capacitated_instances


class TestLPConstruction:
    def test_variable_per_active_round(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 0), Flow(1, 1)])
        tci = TimeConstrainedInstance(inst, ((0, 2), (1,)))
        lp = build_time_constrained_lp(tci)
        assert lp.num_vars == 3
        assert lp.flow.tolist() == [0, 0, 1]
        assert lp.round.tolist() == [0, 2, 1]

    def test_capacity_rows_only_where_touched(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 0)])
        tci = TimeConstrainedInstance(inst, ((0, 1),))
        lp = build_time_constrained_lp(tci)
        # (in,0,0),(in,0,1),(out,0,0),(out,0,1) and nothing for port 1,
        # then the flow's assignment row.
        assert lp.num_rows == 4 + 1
        assert np.isinf(lp.row_lower[:4]).all()
        assert lp.row_lower[4] == lp.row_upper[4] == 1.0

    def test_demand_coefficients(self):
        sw = Switch.create(1, 1, 3)
        inst = Instance.create(sw, [Flow(0, 0, demand=2)])
        tci = TimeConstrainedInstance(inst, ((0,),))
        lp = build_time_constrained_lp(tci)
        # Capacity rows (in, out) carry d_e = 2, the assignment row 1.
        assert lp.dense_matrix()[:, 0].tolist() == [2.0, 2.0, 1.0]
        assert lp.row_upper[:2].tolist() == [3.0, 3.0]


class TestFeasibility:
    def test_single_round_conflict_infeasible(self):
        inst = Instance.create(
            Switch.create(2), [Flow(0, 0), Flow(0, 1)]
        )  # same input twice
        assert not is_fractionally_feasible(from_response_bound(inst, 1))
        assert is_fractionally_feasible(from_response_bound(inst, 2))

    def test_fractional_split_feasible_where_integral_not(self):
        # Three unit flows on one port with 2 rounds: LP can split
        # 1.5 per round only if capacity allows; with cap 1 it cannot.
        inst = Instance.create(
            Switch.create(1, 3), [Flow(0, 0), Flow(0, 1), Flow(0, 2)]
        )
        assert not is_fractionally_feasible(from_response_bound(inst, 2))
        assert is_fractionally_feasible(from_response_bound(inst, 3))

    def test_solve_fractional_returns_solution(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 0), Flow(1, 1)])
        res = solve_fractional(from_response_bound(inst, 1))
        assert res.is_optimal
        assert res.x is not None

    @given(capacitated_instances(max_flows=5))
    @settings(max_examples=40, deadline=None)
    def test_lp_is_relaxation_of_integral(self, inst):
        """Integral schedulability implies LP feasibility for every rho."""
        if inst.num_flows == 0:
            return
        for rho in (1, 2, 4):
            tci = from_response_bound(inst, rho)
            if exact_time_constrained_schedule(tci) is not None:
                assert is_fractionally_feasible(tci)

    @given(capacitated_instances(max_flows=5))
    @settings(max_examples=30, deadline=None)
    def test_feasibility_monotone_in_rho(self, inst):
        if inst.num_flows == 0:
            return
        feasible_seen = False
        for rho in (1, 2, 3, 5, 8):
            ok = is_fractionally_feasible(from_response_bound(inst, rho))
            if feasible_seen:
                assert ok  # once feasible, always feasible
            feasible_seen = feasible_seen or ok
