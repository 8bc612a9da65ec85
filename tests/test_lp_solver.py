"""Tests for the LP backend dispatch (repro.lp.solver)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.model import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.solver import solve_lp

BACKENDS = ["simplex", "highs", "highs-ds", "auto"]


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
    @pytest.mark.parametrize("backend", ["simplex", "highs", "highs-ds"])
    def test_all_backends_agree(self, backend):
        res = solve_lp(_transport_lp(), backend=backend)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)
        assert res.backend == backend

    def test_auto_prefers_highs(self):
        res = solve_lp(_transport_lp(), backend="auto")
        assert res.backend == "highs"

    def test_auto_with_vertex_uses_highs_ds(self):
        res = solve_lp(_transport_lp(), backend="auto", need_vertex=True)
        assert res.backend == "highs-ds"
        assert res.is_vertex

    def test_simplex_always_vertex(self):
        res = solve_lp(_transport_lp(), backend="simplex")
        assert res.is_vertex

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            solve_lp(_transport_lp(), backend="gurobi")

    def test_empty_model(self):
        res = solve_lp(_column_free([], []))
        assert res.is_optimal
        assert res.objective == 0.0

    def test_infeasible_model(self):
        # x <= 1 and x >= 2 (stored -x <= -2).
        lp = LinearProgram.from_columns(
            [0.0], [[0, 1]], [[1.0, -1.0]], [-np.inf, -np.inf], [1.0, -2.0]
        )
        for backend in ("simplex", "highs", "highs-ds"):
            assert solve_lp(lp, backend=backend).status is LPStatus.INFEASIBLE

    def test_unbounded_model(self):
        lp = _no_rows([-1.0])
        assert solve_lp(lp, backend="highs").status is LPStatus.UNBOUNDED

    def test_variable_upper_bounds_respected(self):
        lp = _no_rows([-1.0])
        lp.col_upper[0] = 2.5
        for backend in ("simplex", "highs"):
            res = solve_lp(lp, backend=backend)
            assert res.objective == pytest.approx(-2.5)


class TestColumnFreeModels:
    """A model without columns still has to satisfy its rows at x = ()."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_row_excluding_zero_is_infeasible(self, backend):
        # 0 >= 1: infeasible, as the same row is with an unused column.
        lp = _column_free([1.0], [np.inf])
        assert solve_lp(lp, backend=backend).status is LPStatus.INFEASIBLE
        with_column = LinearProgram.from_columns(
            [0.0], np.zeros((1, 0)), np.zeros((1, 0)), [1.0], [np.inf]
        )
        res = solve_lp(with_column, backend=backend)
        assert res.status is LPStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rows_admitting_zero_are_optimal(self, backend):
        lp = _column_free([-np.inf, 0.0, -1.0], [0.0, 0.0, 2.0])
        res = solve_lp(lp, backend=backend)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == 0.0
        assert res.x.size == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equality_row_away_from_zero_is_infeasible(self, backend):
        lp = _column_free([1.0], [1.0])
        assert solve_lp(lp, backend=backend).status is LPStatus.INFEASIBLE


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
        ours = solve_lp(lp, backend="simplex")
        ref = solve_lp(lp, backend="highs")
        if LPStatus.OPTIMAL in (ours.status, ref.status):
            assert ours.status == ref.status
            assert ours.objective == pytest.approx(
                ref.objective, abs=1e-6, rel=1e-6
            )
