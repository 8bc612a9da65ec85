"""Tests for the LP solve (repro.lp.solver)."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.lp.model import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.solver import _solve_simplex, solve_lp

#: The dense simplex reference and the two HiGHS methods solve_lp picks.
SOLVES = {
    "simplex": _solve_simplex,
    "highs": lambda lp: solve_lp(lp, need_vertex=False),
    "highs-ds": lambda lp: solve_lp(lp, need_vertex=True),
}


def _transport_lp():
    """min x + 3y  s.t.  x + y >= 2,  y <= 1 — optimum 2 at (2, 0)."""
    return LinearProgram.from_columns(
        [1.0, 3.0],
        [[0, -1], [0, 1]],
        [[-1.0, 0.0], [-1.0, 1.0]],
        [-np.inf, -np.inf],
        [-2.0, 1.0],
    )


def _no_rows(cost):
    empty = np.zeros((len(cost), 0))
    return LinearProgram.from_columns(cost, empty, empty, [], [])


def _column_free(row_lower, row_upper):
    return LinearProgram.from_columns(
        [], np.zeros((0, 1)), np.zeros((0, 1)), row_lower, row_upper
    )


class TestBackends:
    @pytest.mark.parametrize("backend", list(SOLVES))
    def test_all_backends_agree(self, backend):
        res = SOLVES[backend](_transport_lp())
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)
        assert res.backend == backend

    def test_auto_prefers_highs(self):
        res = solve_lp(_transport_lp())
        assert res.backend == "highs"

    def test_auto_with_vertex_uses_highs_ds(self):
        res = solve_lp(_transport_lp(), need_vertex=True)
        assert res.backend == "highs-ds"
        assert res.is_vertex

    @pytest.mark.parametrize("backend", list(SOLVES))
    def test_offset_adds_to_objective(self, backend):
        lp = dataclasses.replace(_transport_lp(), offset=-0.5)
        res = SOLVES[backend](lp)
        assert res.objective == pytest.approx(1.5)
        assert res.x.tolist() == pytest.approx([2.0, 0.0])
        column_free = dataclasses.replace(_column_free([], []), offset=4.0)
        assert SOLVES[backend](column_free).objective == 4.0

    def test_simplex_always_vertex(self):
        res = _solve_simplex(_transport_lp())
        assert res.is_vertex

    def test_empty_model(self):
        res = solve_lp(_column_free([], []))
        assert res.is_optimal
        assert res.objective == 0.0

    def test_infeasible_model(self):
        # x <= 1 and x >= 2 (stored -x <= -2).
        lp = LinearProgram.from_columns(
            [0.0], [[0, 1]], [[1.0, -1.0]], [-np.inf, -np.inf], [1.0, -2.0]
        )
        for solve in SOLVES.values():
            assert solve(lp).status is LPStatus.INFEASIBLE

    def test_unbounded_model(self):
        lp = _no_rows([-1.0])
        assert solve_lp(lp, need_vertex=False).status is LPStatus.UNBOUNDED

    def test_variable_upper_bounds_respected(self):
        lp = _no_rows([-1.0])
        lp.col_upper[0] = 2.5
        for solve in (_solve_simplex, SOLVES["highs"]):
            res = solve(lp)
            assert res.objective == pytest.approx(-2.5)


class TestColumnFreeModels:
    """A model without columns still has to satisfy its rows at x = ().

    solve_lp decides these itself, before it picks a HiGHS method; the
    dense simplex reference runs on them and must agree.
    """

    @pytest.mark.parametrize("backend", list(SOLVES))
    def test_row_excluding_zero_is_infeasible(self, backend):
        # 0 >= 1: infeasible, as the same row is with an unused column.
        lp = _column_free([1.0], [np.inf])
        assert SOLVES[backend](lp).status is LPStatus.INFEASIBLE
        with_column = LinearProgram.from_columns(
            [0.0], np.zeros((1, 0)), np.zeros((1, 0)), [1.0], [np.inf]
        )
        res = SOLVES[backend](with_column)
        assert res.status is LPStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", list(SOLVES))
    def test_rows_admitting_zero_are_optimal(self, backend):
        lp = _column_free([-np.inf, 0.0, -1.0], [0.0, 0.0, 2.0])
        res = SOLVES[backend](lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == 0.0
        assert res.x.size == 0

    @pytest.mark.parametrize("backend", list(SOLVES))
    def test_equality_row_away_from_zero_is_infeasible(self, backend):
        lp = _column_free([1.0], [1.0])
        assert SOLVES[backend](lp).status is LPStatus.INFEASIBLE


@st.composite
def random_models(draw):
    nv = draw(st.integers(1, 5))
    nr = draw(st.integers(1, 5))
    cost = [float(draw(st.integers(-3, 3))) for _ in range(nv)]
    values = np.array(
        [[draw(st.integers(-2, 3)) for _ in range(nr)] for _ in range(nv)],
        dtype=np.float64,
    )
    lower, upper = [], []
    for _ in range(nr):
        rhs = float(draw(st.integers(0, 6)))
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        lower.append(-np.inf if sense == "<=" else rhs)
        upper.append(np.inf if sense == ">=" else rhs)
    rows = np.tile(np.arange(nr), (nv, 1))
    return LinearProgram.from_columns(cost, rows, values, lower, upper)


class TestBackendAgreementProperty:
    @given(random_models())
    @settings(max_examples=80, deadline=None)
    def test_simplex_agrees_with_highs(self, lp):
        ours = _solve_simplex(lp)
        ref = solve_lp(lp, need_vertex=False)
        if LPStatus.OPTIMAL in (ours.status, ref.status):
            assert ours.status == ref.status
            assert ours.objective == pytest.approx(
                ref.objective, abs=1e-6, rel=1e-6
            )


#: The callables that took a ``backend`` argument before solve_lp alone
#: picked the LP method.
FORMER_BACKEND_TAKERS = {
    "repro.lp.solver:solve_lp",
    "repro.art.iterative_rounding:iterative_rounding",
    "repro.art.algorithm:solve_art",
    "repro.mrt.lp_relaxation:solve_fractional",
    "repro.mrt.lp_relaxation:is_fractionally_feasible",
    "repro.mrt.rounding:round_time_constrained",
    "repro.mrt.algorithm:solve_mrt",
    "repro.mrt.algorithm:schedule_time_constrained",
    "repro.lp.bounds:LPBoundOracle.__init__",
    "repro.lp.bounds:mrt_lower_bound",
    "repro.lp.bounds:art_lower_bound",
    "repro.online.amrt:run_amrt",
    "repro.online.amrt:run_amrt_stream",
    "repro.online.amrt:_schedule_batch_instance",
    "repro.online.amrt:_try_schedule_batch",
    "repro.api.adapters:ARTSolver._solve",
    "repro.api.adapters:MRTSolver._solve",
    "repro.api.adapters:TimeConstrainedSolver._solve",
    "repro.api.adapters:AMRTSolver._solve",
}


def _defined_functions(module_name):
    """``{"module:qualname": function}`` for the functions a module
    defines, at top level or in its classes."""
    module = importlib.import_module(module_name)
    found = {}
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module_name:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for member in members:
            if inspect.isfunction(member):
                found[f"{module_name}:{member.__qualname__}"] = member
    return found


class TestNoBackendParameter:
    """solve_lp alone picks the LP method; nothing in repro takes one."""

    def test_no_callable_takes_a_backend(self):
        found = {}
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            found.update(_defined_functions(info.name))
        assert FORMER_BACKEND_TAKERS <= set(found)
        takers = [
            name
            for name, obj in found.items()
            # LPResult records which method answered; it sets nothing.
            if name != "repro.lp.result:LPResult.__init__"
            and "backend" in inspect.signature(obj).parameters
        ]
        assert takers == []
