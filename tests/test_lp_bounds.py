"""Tests for the warm LP-bound oracle subsystem (repro.lp.bounds)."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import get_solver
from repro.core.flow import Flow
from repro.core.greedy import greedy_earliest_fit
from repro.core.instance import Instance
from repro.core.metrics import max_response_time
from repro.core.switch import Switch
from repro.lp import bounds as bounds_module
from repro.lp.bounds import (
    LPBoundOracle,
    art_lower_bound,
    counting_lower_bound,
    mrt_lower_bound,
)
from repro.lp.result import LPResult, LPStatus
from repro.mrt import lp_relaxation as mrt_lp_module
from repro.mrt import rounding as rounding_module
from repro.mrt.algorithm import solve_mrt
from repro.mrt.exact import exact_min_max_response
from repro.mrt.lp_relaxation import is_fractionally_feasible
from repro.mrt.time_constrained import from_response_bound
from repro.utils.timing import Timer
from repro.workloads.synthetic import poisson_uniform_workload
from tests.conftest import capacitated_instances, unit_instances


@pytest.fixture(scope="module")
def instance():
    # The counting floor (4) meets the greedy cap (4): rho* = 4 needs no LP.
    return poisson_uniform_workload(6, 5.0, 4, seed=3)


@pytest.fixture(scope="module")
def open_instance():
    # The counting floor (3) is below the greedy cap (5): the search solves.
    return poisson_uniform_workload(4, 3.0, 3, seed=4)


@pytest.fixture(scope="module")
def gap_instance():
    """The counting floor (2) is below rho* (3).

    Under rho = 2 the three demand-2 flows fill output 1 in rounds 0
    and 1, so the round-1 flow into output 1 moves to round 2, and
    input 0 (capacity 1) must then carry three flows in rounds 2 and 3.
    """
    switch = Switch.create(2, 2, [1, 3], [1, 3])
    flows = [Flow(1, 1, 2, 0)] * 3 + [
        Flow(0, 0, 1, 2), Flow(0, 1, 1, 2), Flow(0, 1, 1, 1),
    ]
    return Instance.create(switch, flows)


def rho_star_from_one(inst):
    """rho* by a linear scan from 1 over cold LP (19)-(21) builds."""
    rho = 1
    while not is_fractionally_feasible(from_response_bound(inst, rho)):
        rho += 1
    return rho


def literal_floor(inst):
    """The counting bound over every (port, a, b), written as a loop."""
    sw = inst.switch
    best = 1
    for side, caps in (("src", sw.input_capacities),
                       ("dst", sw.output_capacities)):
        for p, cap in enumerate(caps.tolist()):
            for a in range(inst.max_release + 1):
                for b in range(a, inst.max_release + 1):
                    demand = sum(
                        f.demand for f in inst.flows
                        if getattr(f, side) == p and a <= f.release <= b
                    )
                    best = max(best, -(-demand // cap) - (b - a))
    return best


class TestLPBoundOracle:
    def test_single_build_many_queries(self, instance):
        rho_upper = max_response_time(greedy_earliest_fit(instance))
        oracle = LPBoundOracle(instance, rho_cap=rho_upper)
        for rho in range(1, rho_upper + 1):
            oracle.is_feasible(rho)
        assert oracle.builds == 1
        assert oracle.solves == rho_upper

    def test_feasibility_matches_cold_build(self, instance):
        rho_upper = max_response_time(greedy_earliest_fit(instance))
        oracle = LPBoundOracle(instance, rho_cap=rho_upper)
        for rho in range(1, rho_upper + 1):
            assert oracle.is_feasible(rho) == is_fractionally_feasible(
                from_response_bound(instance, rho)
            )

    def test_queries_are_memoised(self, instance):
        oracle = LPBoundOracle(instance)
        first = oracle.is_feasible(2)
        solves = oracle.solves
        assert oracle.is_feasible(2) == first
        assert oracle.solves == solves

    def test_greedy_cap_is_premarked_feasible(self, instance):
        oracle = LPBoundOracle(instance)
        assert oracle.is_feasible(oracle.rho_cap)
        assert oracle.solves == 0  # certified by the greedy schedule

    def test_lower_bound_matches_legacy_search(self, instance):
        assert LPBoundOracle(instance).lower_bound() == (
            rho_star_from_one(instance)
        )

    def test_out_of_range_rho_rejected(self, instance):
        oracle = LPBoundOracle(instance, rho_cap=3)
        with pytest.raises(ValueError, match="exceeds"):
            oracle.is_feasible(4)
        with pytest.raises(ValueError, match="rho must be >= 1, got 0"):
            oracle.is_feasible(0)

    @pytest.mark.parametrize(
        "rho, kind", [(3.9, "float"), ("3", "str"), (True, "bool")]
    )
    def test_non_integer_rho_rejected(self, open_instance, rho, kind):
        # Truncating 3.9, or coercing "3" or True, would answer for rho 3.
        oracle = LPBoundOracle(open_instance)
        with pytest.raises(
            TypeError, match=f"rho must be an integer, got {kind}"
        ):
            oracle.is_feasible(rho)
        assert oracle.solves == 0

    def test_empty_instance(self):
        empty = Instance.create(Switch.create(2), [])
        oracle = LPBoundOracle(empty)
        assert oracle.lower_bound() == 0
        assert oracle.is_feasible(1)
        assert oracle.builds == 0

    def test_timer_counts_build_and_solves(self, instance):
        timer = Timer()
        oracle = LPBoundOracle(instance)
        with timer.recording():
            oracle.lower_bound()
        assert timer.counts.get("lp_bound_build", 0) == oracle.builds
        assert timer.counts.get("lp_bound_solve", 0) == oracle.solves

    def test_timer_counts_open_search(self, open_instance):
        timer = Timer()
        oracle = LPBoundOracle(open_instance)
        with timer.recording():
            oracle.lower_bound()
        assert timer.counts["lp_bound_build"] == oracle.builds == 1
        assert timer.counts["lp_bound_solve"] == oracle.solves > 0

    # The autouse cache-reset fixture is function-scoped; the oracle under
    # test is constructed fresh per example, so per-example reset is moot.
    @given(unit_instances(max_ports=3, max_flows=6))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_matches_fresh_builds(self, inst):
        if inst.num_flows == 0:
            assert LPBoundOracle(inst).lower_bound() == 0
            return
        rho_upper = max_response_time(greedy_earliest_fit(inst))
        oracle = LPBoundOracle(inst, rho_cap=rho_upper)
        for rho in range(1, rho_upper + 1):
            assert oracle.is_feasible(rho) == is_fractionally_feasible(
                from_response_bound(inst, rho)
            )
        assert oracle.builds == 1

    @given(capacitated_instances(max_ports=3, max_flows=5))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_lower_bound_equals_legacy(self, inst):
        assert LPBoundOracle(inst).lower_bound() == (
            rho_star_from_one(inst) if inst.num_flows else 0
        )


class TestCountingBound:
    def test_hand_computed_floors(self):
        sw = Switch.create(2)
        burst = Instance.create(sw, [Flow(0, 0), Flow(0, 1), Flow(0, 0)])
        assert counting_lower_bound(burst) == 3
        spread = Instance.create(
            sw, [Flow(0, 0, 1, 0), Flow(0, 1, 1, 1), Flow(0, 0, 1, 2)]
        )
        assert counting_lower_bound(spread) == 1
        # Demand 5 on a capacity-2 output within one round: ceil(5/2).
        wide = Switch.create(2, 1, [3, 3], [2])
        assert counting_lower_bound(
            Instance.create(wide, [Flow(0, 0, 2), Flow(1, 0, 2), Flow(0, 0, 1)])
        ) == 3
        assert counting_lower_bound(Instance.create(sw, [])) == 0

    @given(unit_instances(max_ports=3, max_flows=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_literal_loop_unit(self, inst):
        if inst.num_flows:
            assert counting_lower_bound(inst) == literal_floor(inst)

    @given(capacitated_instances(max_ports=3, max_flows=8, max_capacity=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_literal_loop_capacitated(self, inst):
        if inst.num_flows:
            assert counting_lower_bound(inst) == literal_floor(inst)

    @given(unit_instances(max_ports=3, max_flows=6))
    @settings(max_examples=25, deadline=None)
    def test_property_floor_below_rho_star_unit(self, inst):
        if inst.num_flows == 0:
            return
        rho_star = rho_star_from_one(inst)
        assert counting_lower_bound(inst) <= rho_star
        assert rho_star <= exact_min_max_response(inst)

    @given(capacitated_instances(max_ports=3, max_flows=6, max_capacity=4))
    @settings(max_examples=25, deadline=None)
    def test_property_floor_below_rho_star_capacitated(self, inst):
        if inst.num_flows:
            assert counting_lower_bound(inst) <= rho_star_from_one(inst)

    def test_floor_can_be_below_rho_star(self, gap_instance):
        assert counting_lower_bound(gap_instance) == 2
        assert rho_star_from_one(gap_instance) == 3
        assert LPBoundOracle(gap_instance).lower_bound() == 3

    def test_closed_search_does_no_lp_work(self, instance):
        oracle = LPBoundOracle(instance)
        assert counting_lower_bound(instance) == oracle.rho_cap
        assert oracle.lower_bound() == rho_star_from_one(instance)
        assert (oracle.builds, oracle.solves) == (0, 0)

    def test_open_search_builds_once(self, open_instance):
        oracle = LPBoundOracle(open_instance)
        assert counting_lower_bound(open_instance) < oracle.rho_cap
        assert oracle.lower_bound() == rho_star_from_one(open_instance)
        assert oracle.builds == 1
        assert oracle.solves >= 1


class TestCallerCap:
    """A caller's rho_upper is checked, never trusted as feasible."""

    def test_cap_below_floor_rejected(self, instance):
        with pytest.raises(ValueError, match="rho_upper 1 .* bound 4"):
            mrt_lower_bound(instance, rho_upper=1)
        with pytest.raises(ValueError, match="rho_upper 2 .* bound 4"):
            LPBoundOracle(instance, rho_cap=2).lower_bound()

    def test_infeasible_cap_above_floor_rejected(self, gap_instance):
        oracle = LPBoundOracle(gap_instance, rho_cap=2)
        with pytest.raises(ValueError, match="infeasible at rho_upper 2"):
            oracle.lower_bound()
        assert oracle.solves == 1

    def test_feasible_cap_is_solved_once(self, instance):
        # Floor 4 meets the caller's cap 4; only the cap's LP is solved.
        oracle = LPBoundOracle(instance, rho_cap=4)
        assert oracle.lower_bound() == 4
        assert (oracle.builds, oracle.solves) == (1, 1)

    def test_loose_cap_gives_rho_star(self, gap_instance):
        assert mrt_lower_bound(gap_instance, rho_upper=9) == 3
        assert mrt_lower_bound(gap_instance, rho_upper=3) == 3


class TestDigestMemo:
    """The memoised instance digest (the result store's key), and the
    bounds of an empty instance."""

    def test_empty_instance_bounds(self):
        empty = Instance.create(Switch.create(2), [])
        assert mrt_lower_bound(empty) == 0
        assert art_lower_bound(empty) == 0.0

    def test_digest_distinguishes_instances(self):
        a = poisson_uniform_workload(4, 3.0, 3, seed=1)
        b = poisson_uniform_workload(4, 3.0, 3, seed=2)
        assert a.digest() != b.digest()
        # Same content => same digest, regardless of construction path.
        clone = Instance.from_dict(a.to_dict())
        assert clone.digest() == a.digest()


class TestStatelessBounds:
    """The bounds keep nothing between calls and check every call."""

    # A float or bool equals its integer as a dict key, so a bound that
    # remembered the integer call's answer would return it for 50.0.
    def test_float_cap_rejected_after_equal_int(self):
        inst = poisson_uniform_workload(4, 3.0, 3, seed=0)
        assert mrt_lower_bound(inst, rho_upper=50) == 4
        with pytest.raises(TypeError, match="rho_upper must be an integer"):
            mrt_lower_bound(inst, rho_upper=50.0)

    def test_float_horizon_rejected_after_equal_int(self):
        inst = poisson_uniform_workload(4, 3.0, 3, seed=0)
        assert art_lower_bound(inst, horizon=10) == 11.5
        with pytest.raises(TypeError, match="horizon must be an integer"):
            art_lower_bound(inst, horizon=10.0)

    def test_empty_instance_checks_parameters(self):
        empty = Instance.create(Switch.create(2), [])
        with pytest.raises(TypeError, match="rho_upper must be an integer"):
            mrt_lower_bound(empty, rho_upper=2.5)
        with pytest.raises(ValueError, match="rho_upper must be >= 1"):
            mrt_lower_bound(empty, rho_upper=0)
        with pytest.raises(TypeError, match="horizon must be an integer"):
            art_lower_bound(empty, horizon=2.5)
        assert mrt_lower_bound(empty, rho_upper=3) == 0
        assert art_lower_bound(empty, horizon=3) == 0.0

    def test_each_call_does_its_lp_work(self, open_instance):
        first, second = Timer(), Timer()
        for timer in (first, second):
            with timer.recording():
                mrt_lower_bound(open_instance)
                art_lower_bound(open_instance)
        assert first.counts["lp_bound_build"] == 2
        assert second.counts == first.counts


#: rho* and the LP (1)-(4) optimum (compact horizon) of fig-lp-shaped
#: instances: ``poisson_uniform_workload(12, 12 * load, 6, seed)`` for
#: seeds 0-11, as (seed, flows, rho*, LP value).  Recorded with LP (1)-(4)
#: on every round of the horizon and rho* searched from 1.
GOLDEN = {
    1 / 3: [
        (0, 20, 3, 15.0),
        (1, 25, 3, 21.5),
        (2, 24, 3, 19.0),
        (3, 22, 2, 16.0),
        (4, 34, 3, 39.0),
        (5, 24, 2, 17.0),
        (6, 23, 2, 16.5),
        (7, 27, 2, 22.5),
        (8, 23, 3, 21.5),
        (9, 30, 4, 36.0),
        (10, 30, 3, 34.0),
        (11, 24, 2, 16.0),
    ],
    1.0: [
        (0, 75, 7, 151.5),
        (1, 73, 7, 138.5),
        (2, 68, 8, 149.0),
        (3, 65, 7, 114.5),
        (4, 105, 9, 273.5),
        (5, 67, 6, 111.5),
        (6, 71, 7, 158.5),
        (7, 71, 7, 136.5),
        (8, 62, 6, 106.0),
        (9, 72, 7, 165.0),
        (10, 85, 6, 182.5),
        (11, 70, 8, 148.0),
    ],
    2.0: [
        (0, 149, 14, 638.5000000000003),
        (1, 145, 13, 618.4999999999998),
        (2, 138, 14, 576.0),
        (3, 135, 11, 514.5),
        (4, 192, 19, 1185.9999999999995),
        (5, 139, 11, 541.5),
        (6, 142, 13, 629.9999999999997),
        (7, 143, 13, 627.4999999999997),
        (8, 130, 13, 530.9999999999997),
        (9, 142, 14, 641.0000000000003),
        (10, 166, 15, 894.0000000000007),
        (11, 140, 13, 566.9999999999993),
    ],
}


@pytest.mark.parametrize("load", sorted(GOLDEN))
def test_golden_values(load):
    for seed, flows, rho_star, lp_value in GOLDEN[load]:
        inst = poisson_uniform_workload(12, 12 * load, 6, seed=seed)
        assert inst.num_flows == flows
        assert mrt_lower_bound(inst) == rho_star
        value = art_lower_bound(inst, horizon=inst.compact_horizon_bound())
        assert value == pytest.approx(lp_value, rel=1e-9)


@pytest.fixture(scope="module")
def undecided_instance():
    # rho* = 7 on the port-load floor, below the greedy cap of 8, so the
    # oracle solves LP (19)-(21) once to certify it.
    return poisson_uniform_workload(8, 8.0, 6, seed=2)


def _solve_ending(status):
    def solve(lp, need_vertex=False):
        return LPResult(status, backend="highs")

    return solve


UNDECIDED = [LPStatus.ERROR, LPStatus.UNBOUNDED]


class TestUndecidedSolves:
    """Only INFEASIBLE proves infeasibility; any other non-optimal solve
    (an error, a limit, "unbounded or infeasible") raises instead."""

    def test_instance_needs_a_solve(self, undecided_instance):
        oracle = LPBoundOracle(undecided_instance)
        assert (oracle.lower_bound(), oracle.rho_cap) == (7, 8)
        assert oracle.solves == 1

    @pytest.mark.parametrize("status", UNDECIDED)
    def test_oracle_raises(self, undecided_instance, monkeypatch, status):
        monkeypatch.setattr(bounds_module, "solve_lp", _solve_ending(status))
        oracle = LPBoundOracle(undecided_instance)
        with pytest.raises(RuntimeError, match=status.name):
            oracle.lower_bound()
        assert not oracle._feasible.get(7)
        with pytest.raises(RuntimeError, match=status.name):
            solve_mrt(undecided_instance)

    @pytest.mark.parametrize("status", UNDECIDED)
    def test_fractional_feasibility_raises(
        self, undecided_instance, monkeypatch, status
    ):
        monkeypatch.setattr(mrt_lp_module, "solve_lp", _solve_ending(status))
        with pytest.raises(RuntimeError, match=status.name):
            tci = from_response_bound(undecided_instance, 7)
            is_fractionally_feasible(tci)

    @pytest.mark.parametrize("status", UNDECIDED)
    def test_time_constrained_raises(
        self, undecided_instance, monkeypatch, status
    ):
        monkeypatch.setattr(rounding_module, "solve_lp", _solve_ending(status))
        with pytest.raises(RuntimeError, match=status.name):
            get_solver("TimeConstrained").solve(undecided_instance, rho=7)

    def test_infeasible_still_means_infeasible(self, undecided_instance):
        tci = from_response_bound(undecided_instance, 6)
        assert not is_fractionally_feasible(tci)
        assert not get_solver("TimeConstrained").solve(
            undecided_instance, rho=6
        ).feasible
