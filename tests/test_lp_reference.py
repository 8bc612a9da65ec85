"""The array LP pipeline against the ``linprog`` reference, bit for bit.

``tests/lp_reference.py`` keeps the tuple-keyed builders and rounding
loops next to a ``scipy.optimize.linprog`` solve.  Here every array
builder must export the reference's arrays exactly, :func:`solve_lp` must
return ``linprog``'s status, point and objective exactly, and both
rounding loops must make the same decisions.
"""

import importlib
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art.iterative_rounding import _build_lp_ell, iterative_rounding
from repro.art.lp_relaxation import (
    BLOCK,
    build_fractional_art_lp,
    build_interval_lp0,
)
from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from repro.lp import solver as solver_module
from repro.lp.bounds import LPBoundOracle
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.lp.solver import solve_lp
from repro.mrt import rounding as rounding_module
from repro.mrt.lp_relaxation import build_time_constrained_lp
from repro.mrt.rounding import round_time_constrained
from repro.mrt.time_constrained import from_deadlines, from_response_bound
from repro.workloads.synthetic import poisson_uniform_workload
from tests import lp_reference as ref
from tests.conftest import capacitated_instances, unit_instances

#: solve_lp's two HiGHS methods, by the need_vertex flag that picks each.
HIGHS = {"highs": False, "highs-ds": True}

# repro.art re-exports the function under the module's name.
ir_module = importlib.import_module("repro.art.iterative_rounding")


def assert_same_model(lp: LinearProgram, named: ref.NamedLP):
    """Equal arrays and offset, and each column's (flow, round) is its
    name's."""
    for ours, theirs in zip(ref.model_arrays(lp), ref.export(named)):
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)
    assert lp.offset == named.offset
    columns = list(zip(lp.flow.tolist(), lp.round.tolist()))
    assert columns == [name[1:] for name in named.names]


def assert_same_solve(
    lp: LinearProgram, named: ref.NamedLP, need_vertex: bool
):
    ours = solve_lp(lp, need_vertex=need_vertex)
    theirs = ref.linprog_solve(named, need_vertex=need_vertex)
    assert ours.status is theirs.status
    if ours.is_optimal:
        assert ours.x.tobytes() == theirs.x.tobytes()
        assert ours.objective.hex() == theirs.objective.hex()


def assert_same_rounding(a, b):
    assert a.feasible == b.feasible
    assert a.iterations == b.iterations
    assert a.fallback_drops == b.fallback_drops
    assert a.max_violation == b.max_violation
    if a.schedule is None or b.schedule is None:
        assert a.schedule is b.schedule is None
    else:
        assert np.array_equal(a.schedule.assignment, b.schedule.assignment)


def assert_same_pseudo(a, b):
    assert np.array_equal(a.assignment, b.assignment)
    assert (a.iterations, a.fallback_fixes) == (b.iterations, b.fallback_fixes)
    assert a.lp0_optimum == b.lp0_optimum
    assert a.lp_cost == b.lp_cost


instances = st.one_of(
    unit_instances(max_ports=4, max_flows=8),
    capacitated_instances(max_ports=3, max_flows=7),
)


@st.composite
def instances_with_horizon(draw):
    """An instance, and ``None`` or a horizon override past its releases."""
    inst = draw(instances)
    horizon = draw(
        st.one_of(
            st.none(),
            st.integers(inst.max_release + 1, inst.horizon_bound() + 3),
        )
    )
    return inst, horizon


@st.composite
def time_constrained(draw):
    """A response-bound (ρ in 1..4) or a deadline instance."""
    inst = draw(instances)
    if draw(st.booleans()):
        return from_response_bound(inst, draw(st.integers(1, 4)))
    slack = [draw(st.integers(0, 3)) for _ in inst.flows]
    deadlines = [f.release + s for f, s in zip(inst.flows, slack)]
    return from_deadlines(inst, deadlines)


@st.composite
def supports(draw):
    """A unit instance and an LP(ell) support over some of its flows."""
    inst = draw(unit_instances(max_ports=4, max_flows=8))
    support = {}
    for flow in inst.flows:
        if not draw(st.booleans()):
            continue
        rounds = draw(
            st.sets(
                st.integers(flow.release, flow.release + 9),
                min_size=1,
                max_size=4,
            )
        )
        support[flow.fid] = {
            t: draw(st.floats(1e-6, 1.0)) for t in sorted(rounds)
        }
    return inst, support


def support_arrays(support):
    """The support's columns as arrays, deliberately out of order."""
    triples = [(f, t, v) for f, e in support.items() for t, v in e.items()]
    triples.reverse()
    flow, rounds, value = (np.array(x) for x in zip(*triples))
    return flow.astype(np.int64), rounds.astype(np.int64), value


class TestBuildersMatchReference:
    @given(instances_with_horizon())
    @settings(max_examples=40, deadline=None)
    def test_fractional_art_lp(self, case):
        inst, horizon = case
        if inst.num_flows == 0:
            return
        lp = build_fractional_art_lp(inst, horizon)
        named = ref.build_fractional_art_lp(inst, horizon)
        assert_same_model(lp, named)
        for need_vertex in HIGHS.values():
            assert_same_solve(lp, named, need_vertex)

    @given(instances_with_horizon())
    @settings(max_examples=40, deadline=None)
    def test_interval_lp0(self, case):
        inst, horizon = case
        if inst.num_flows == 0:
            return
        lp = build_interval_lp0(inst, horizon)
        named = ref.build_interval_lp0(inst, horizon)
        assert_same_model(lp, named)
        for need_vertex in HIGHS.values():
            assert_same_solve(lp, named, need_vertex)

    @given(time_constrained())
    @settings(max_examples=40, deadline=None)
    def test_time_constrained_lp(self, tci):
        if tci.instance.num_flows == 0:
            return
        lp = build_time_constrained_lp(tci)
        named = ref.build_time_constrained_lp(tci)
        assert_same_model(lp, named)
        for need_vertex in HIGHS.values():
            assert_same_solve(lp, named, need_vertex)

    @given(supports())
    @settings(max_examples=60, deadline=None)
    def test_lp_ell(self, case):
        inst, support = case
        if not support:
            return
        lp = _build_lp_ell(inst, *support_arrays(support))
        named = ref.build_lp_ell(inst, support)
        assert_same_model(lp, named)
        for need_vertex in HIGHS.values():
            assert_same_solve(lp, named, need_vertex)

    def test_lp_ell_cuts_groups_at_block_capacity(self):
        # Ten half-unit columns at each port: a group closes once its
        # mass reaches BLOCK * c_p = 4, and the last two form a group of
        # mass 1.
        inst = Instance.create(Switch.create(1, 2), [Flow(0, 0)] * 5)
        support = {fid: {0: 0.5, 1: 0.5} for fid in range(5)}
        lp = _build_lp_ell(inst, *support_arrays(support))
        named = ref.build_lp_ell(inst, support)
        assert_same_model(lp, named)
        # 5 covering rows, then input port 0's groups, then output's.
        assert lp.row_upper[5:].tolist() == [4.0, 1.0, 4.0, 1.0]


class TestSolveMatchesLinprog:
    def _named(self, rows, upper=None, cost=(0.0,)):
        lp = ref.NamedLP()
        for j, c in enumerate(cost):
            bound = np.inf if upper is None else upper[j]
            lp.add_variable(("x", j, 0), c, bound)
        for i, (coeffs, sense, rhs) in enumerate(rows):
            named = {("x", j, 0): v for j, v in coeffs.items()}
            lp.add_constraint(i, named, sense, rhs)
        return lp

    @pytest.mark.parametrize("need_vertex", HIGHS.values(), ids=HIGHS)
    def test_infeasible(self, need_vertex):
        named = self._named(
            [({0: 1.0}, ref.Sense.LE, 1.0), ({0: 1.0}, ref.Sense.GE, 2.0)]
        )
        assert_same_solve(ref.to_model(named), named, need_vertex)
        res = solve_lp(ref.to_model(named), need_vertex)
        assert res.status is LPStatus.INFEASIBLE

    @pytest.mark.parametrize("need_vertex", HIGHS.values(), ids=HIGHS)
    def test_unbounded(self, need_vertex):
        named = self._named([({0: 1.0}, ref.Sense.GE, 1.0)], cost=(-1.0,))
        assert_same_solve(ref.to_model(named), named, need_vertex)
        res = solve_lp(ref.to_model(named), need_vertex)
        assert res.status is LPStatus.UNBOUNDED

    @pytest.mark.parametrize("need_vertex", HIGHS.values(), ids=HIGHS)
    def test_finite_upper_bounds(self, need_vertex):
        named = self._named(
            [({0: 1.0, 1: 1.0}, ref.Sense.GE, 3.0)],
            upper=[1.5, 2.5],
            cost=(1.0, 2.0),
        )
        assert_same_solve(ref.to_model(named), named, need_vertex)
        res = solve_lp(ref.to_model(named), need_vertex)
        assert res.objective == pytest.approx(4.5)

    @given(
        st.lists(
            st.tuples(
                st.dictionaries(
                    st.integers(0, 3), st.integers(-2, 3), min_size=1
                ),
                st.sampled_from(list(ref.Sense)),
                st.integers(0, 6),
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_models(self, rows, cost):
        named = self._named(rows, cost=[float(c) for c in cost])
        for need_vertex in HIGHS.values():
            assert_same_solve(ref.to_model(named), named, need_vertex)

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_oracle_rho_masks(self, inst):
        """Each ρ probe solves LP (19)-(21) at the cap with out-of-window
        columns bounded to 0: the reference model with those bounds."""
        if inst.num_flows == 0:
            return
        oracle = LPBoundOracle(inst)
        named = ref.build_time_constrained_lp(
            from_response_bound(inst, oracle.rho_cap)
        )
        releases = inst.releases()
        for rho in range(1, oracle.rho_cap + 1):
            named.upper = [
                np.inf if t - releases[fid] < rho else 0.0
                for (_x, fid, t) in named.names
            ]
            oracle._feasible.pop(rho, None)
            feasible = oracle.is_feasible(rho)
            assert_same_model(oracle._lp, named)
            assert_same_solve(oracle._lp, named, False)
            theirs = ref.linprog_solve(named)
            assert feasible == theirs.is_optimal


class _FakeHighs:
    """A HiGHS stand-in returning a fixed status and point."""

    def __init__(self, status, x, rows, objective=0.0):
        self.status, self.x, self.rows = status, x, rows
        self.objective = objective

    def __call__(self):
        return self

    def passOptions(self, options):
        pass

    def passModel(self, model):
        return solver_module._highs.HighsStatus.kOk

    def run(self):
        pass

    def getModelStatus(self):
        return self.status

    def getSolution(self):
        return SimpleNamespace(col_value=self.x, row_value=self.rows)

    def getInfo(self):
        return SimpleNamespace(objective_function_value=self.objective)


class TestPostSolveCheck:
    """linprog's check of an OPTIMAL point, kept by the direct solve."""

    def _lp(self):
        # 0 <= x <= 2 and x + y <= 1.
        lp = LinearProgram.from_columns(
            [1.0, 1.0], [[0], [0]], [[1.0], [1.0]], [-np.inf], [1.0]
        )
        lp.col_upper[0] = 2.0
        return lp

    def _solve(self, monkeypatch, status, x, rows, objective=0.0):
        fake = _FakeHighs(status, np.asarray(x), np.asarray(rows), objective)
        monkeypatch.setattr(solver_module._highs, "_Highs", fake)
        return solve_lp(self._lp(), need_vertex=True)

    def test_consistent_point_is_optimal(self, monkeypatch):
        ok = solver_module._highs.HighsModelStatus.kOptimal
        res = self._solve(monkeypatch, ok, [0.5, 0.5], [1.0 + 1e-5])
        assert res.is_optimal

    @pytest.mark.parametrize(
        "x, rows",
        [
            ([0.5, 0.5], [1.0 + 1e-3]),  # row activity above its bound
            ([2.0 + 1e-3, 0.0], [0.5]),  # column above its upper bound
            ([-1e-3, 0.0], [0.5]),  # column below its lower bound
            ([np.nan, 0.0], [0.5]),  # NaN
        ],
    )
    def test_broken_point_is_error(self, monkeypatch, x, rows):
        ok = solver_module._highs.HighsModelStatus.kOptimal
        assert self._solve(monkeypatch, ok, x, rows).status is LPStatus.ERROR

    def test_row_below_lower_bound_is_error(self, monkeypatch):
        ok = solver_module._highs.HighsModelStatus.kOptimal
        lp = LinearProgram.from_columns([0.0], [[0]], [[1.0]], [1.0], [1.0])
        fake = _FakeHighs(ok, np.array([1.0]), np.array([1.0 - 1e-3]))
        monkeypatch.setattr(solver_module._highs, "_Highs", fake)
        assert solve_lp(lp, need_vertex=False).status is LPStatus.ERROR

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("kInfeasible", LPStatus.INFEASIBLE),
            ("kModelError", LPStatus.INFEASIBLE),
            ("kUnbounded", LPStatus.UNBOUNDED),
            ("kUnboundedOrInfeasible", LPStatus.ERROR),
            ("kIterationLimit", LPStatus.ERROR),
            ("kTimeLimit", LPStatus.ERROR),
            ("kSolveError", LPStatus.ERROR),
        ],
    )
    def test_status_mapping(self, monkeypatch, name, expected):
        status = getattr(solver_module._highs.HighsModelStatus, name)
        res = self._solve(monkeypatch, status, [], [])
        assert res.status is expected
        assert res.x is None


def delegating(real, stubbed=0, point=None):
    """A solve that records every model it gets, answers the first
    ``stubbed`` calls with the point ``point(lp)`` and hands the rest to
    ``real``."""
    models = []

    def solve(lp, need_vertex=False):
        models.append(lp)
        if len(models) <= stubbed:
            return LPResult(LPStatus.OPTIMAL, 1.0, point(lp), True, "highs-ds")
        return real(lp, need_vertex=need_vertex)

    solve.models = models
    return solve


def assert_same_residual_lps(ours, theirs):
    """The array loop solved exactly the reference loop's LPs."""
    assert len(ours) == len(theirs)
    for lp, named in zip(ours, theirs):
        for a, b in zip(ref.model_arrays(lp), ref.export(named)):
            assert a.shape == b.shape and np.array_equal(a, b)


def compare_rounding(tci, stubbed=0, point=None):
    ours_solve = delegating(solve_lp, stubbed, point)
    theirs_solve = delegating(ref.linprog_solve, stubbed, point)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rounding_module, "solve_lp", ours_solve)
        ours = round_time_constrained(tci)
    theirs = ref.round_time_constrained(tci, solve=theirs_solve)
    assert_same_rounding(ours, theirs)
    assert_same_residual_lps(ours_solve.models, theirs_solve.models)
    return ours


def spread_point(lp):
    """Each flow's first two columns at 1/2 (or its only column at 1)."""
    names = getattr(lp, "names", None)
    flows = lp.flow if names is None else np.array([n[1] for n in names])
    x = np.zeros(lp.num_vars)
    for fid in np.unique(flows):
        own = np.flatnonzero(flows == fid)[:2]
        x[own] = 1.0 / own.size
    return x


def two_blocks(inst):
    """A horizon at which every flow's rounds meet two blocks, so LP(0)
    gives each flow two columns and :func:`spread_point` is fractional."""
    return inst.horizon_bound() + BLOCK


def compare_iterative_rounding(inst, horizon=None, stubbed=0):
    ours_solve = delegating(solve_lp, stubbed, spread_point)
    theirs_solve = delegating(ref.linprog_solve, stubbed, spread_point)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ir_module, "solve_lp", ours_solve)
        ours = iterative_rounding(inst, horizon=horizon)
    theirs = ref.iterative_rounding(inst, horizon=horizon, solve=theirs_solve)
    assert_same_pseudo(ours, theirs)
    assert_same_residual_lps(ours_solve.models, theirs_solve.models)
    return ours


class TestRoundingMatchesReference:
    @given(time_constrained())
    @settings(max_examples=60, deadline=None)
    def test_time_constrained_rounding(self, tci):
        compare_rounding(tci)

    @given(instances, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_response_bound_rounding(self, inst, rho):
        compare_rounding(from_response_bound(inst, rho))

    def test_rounding_at_rho_star(self):
        """At rho* and just above, the first vertex is fractional: the
        loops fix, debit and drop rows before a second LP."""
        iterations = []
        for seed in range(6):
            cap = 1 + seed % 3
            inst = poisson_uniform_workload(
                8, 8.0 * cap, 6, seed=seed, capacity=cap, demand=1 + seed % cap
            )
            rho = LPBoundOracle(inst).lower_bound()
            for r in (rho, rho + 1):
                tci = from_response_bound(inst, r)
                iterations.append(compare_rounding(tci).iterations)
        assert max(iterations) >= 2

    def test_fallback_drops_the_same_row(self):
        """An all-fractional point leaves nothing to fix, remove or drop,
        so both loops fall back and must drop the same row."""
        # rho = 4 and every flow released at 0: each capacity row holds
        # all its port's flows at 1/4, three or four per row, so no row
        # is droppable and the rows' gaps differ.
        pairs = [(0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 1), (1, 1)]
        flows = [Flow(s, d) for s, d in pairs]
        inst = Instance.create(Switch.create(2), flows)
        ours = compare_rounding(
            from_response_bound(inst, 4),
            stubbed=1,
            point=lambda lp: np.full(lp.num_vars, 0.25),
        )
        assert ours.fallback_drops == 1

    @given(unit_instances(max_ports=4, max_flows=8), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_iterative_rounding(self, inst, compact):
        horizon = inst.compact_horizon_bound() if compact else None
        compare_iterative_rounding(inst, horizon)

    @given(unit_instances(max_ports=3, max_flows=8))
    @settings(max_examples=40, deadline=None)
    def test_iterative_rounding_through_lp_ell(self, inst):
        """A fractional LP(0) point sends both loops through LP(ell)."""
        if inst.num_flows:
            pseudo = compare_iterative_rounding(
                inst, two_blocks(inst), stubbed=1
            )
            assert pseudo.iterations >= 2

    @given(unit_instances(max_ports=3, max_flows=8))
    @settings(max_examples=30, deadline=None)
    def test_iterative_rounding_fallback(self, inst):
        """LP(ell) returning LP(0)'s fractional point makes no progress,
        so both loops force the same flow to the same round."""
        if inst.num_flows:
            pseudo = compare_iterative_rounding(
                inst, two_blocks(inst), stubbed=2
            )
            assert pseudo.fallback_fixes >= 1


class TestNoLinprog:
    """Nothing outside the tests calls ``linprog``."""

    @pytest.fixture(autouse=True)
    def no_linprog(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(scipy.optimize, "linprog", refuse)
        monkeypatch.setattr(scipy.optimize._linprog, "linprog", refuse)
        monkeypatch.setattr(
            scipy.optimize._linprog_highs, "_highs_wrapper", refuse
        )

    def test_fig6_quick_with_lp_bounds(self, capsys):
        from repro.__main__ import main

        assert main(["fig6", "--quick"]) in (0, None)
        assert "LP" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "solver, params",
        [
            ("FS-MRT", {}),
            ("FS-ART", {}),
            ("TimeConstrained", {"rho": 3}),
            ("AMRT", {}),
        ],
    )
    def test_solvers(self, solver, params):
        from repro.api import get_solver
        from repro.workloads.synthetic import poisson_uniform_workload

        inst = poisson_uniform_workload(6, 2.0, 4, seed=3)
        report = get_solver(solver).solve(inst, **params)
        assert report.feasible
