"""Tests for the end-to-end FS-ART solver (Theorem 1)."""

import pytest
from hypothesis import given, settings

from repro.art.algorithm import solve_art
from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.metrics import total_response_time
from repro.core.schedule import validate_schedule
from repro.core.switch import Switch
from repro.mrt.exact import exact_min_total_response
from tests.conftest import unit_instances


class TestSolveART:
    def test_rejects_bad_c(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 0)])
        with pytest.raises(ValueError):
            solve_art(inst, c=0)

    def test_single_flow(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 1)])
        res = solve_art(inst, c=1)
        assert res.total_response >= 1
        assert res.lower_bound <= res.total_response

    def test_horizon_too_short_is_value_error(self):
        # Five flows through one unit port need five rounds; horizon 3
        # leaves LP (5)-(8) (4 per block) infeasible.
        inst = Instance.create(Switch.create(1), [Flow(0, 0)] * 5)
        with pytest.raises(
            ValueError,
            match=r"horizon 3 is too short: LP \(5\)-\(8\) is infeasible",
        ):
            solve_art(inst, horizon=3)
        res = solve_art(inst, horizon=5)
        assert 0 < res.lower_bound <= res.total_response

    def test_lower_bound_skippable(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 1)])
        res = solve_art(inst, c=1, compute_lower_bound=False)
        assert res.lower_bound is None
        assert res.approximation_ratio is None

    def test_approximation_ratio(self):
        inst = Instance.create(
            Switch.create(2), [Flow(0, 0), Flow(1, 1), Flow(0, 1, 1, 1)]
        )
        res = solve_art(inst, c=2)
        assert res.approximation_ratio == pytest.approx(
            res.total_response / res.lower_bound
        )

    @given(unit_instances(max_ports=3, max_flows=6))
    @settings(max_examples=15, deadline=None)
    def test_schedule_valid_under_blowup(self, inst):
        if inst.num_flows == 0:
            return
        res = solve_art(inst, c=1)
        validate_schedule(
            res.schedule,
            inst.switch.augmented(factor=res.conversion.capacity_factor),
        )
        assert res.total_response == total_response_time(res.schedule)
        assert res.lower_bound <= res.total_response + 1e-6

    @given(unit_instances(max_ports=3, max_flows=5))
    @settings(max_examples=10, deadline=None)
    def test_lower_bound_below_exact_optimum(self, inst):
        if inst.num_flows == 0:
            return
        res = solve_art(inst, c=1)
        assert res.lower_bound <= exact_min_total_response(inst) + 1e-6

    def test_larger_c_reduces_window(self):
        inst = Instance.create(
            Switch.create(4),
            [Flow(i % 4, (i + 1) % 4, 1, i % 3) for i in range(12)],
        )
        res1 = solve_art(inst, c=1, compute_lower_bound=False)
        res4 = solve_art(inst, c=4, compute_lower_bound=False)
        assert res4.conversion.window <= res1.conversion.window
