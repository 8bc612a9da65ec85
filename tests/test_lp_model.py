"""Unit tests for the array LP model."""

import numpy as np
import pytest
from scipy import sparse

from repro.lp.model import LinearProgram, port_rows
from repro.lp.solver import _dense_standard_form, solve_lp


def _no_rows(cost):
    """A model with the given costs and no rows."""
    empty = np.zeros((len(cost), 0))
    return LinearProgram.from_columns(cost, empty, empty, [], [])


def _model():
    """min x + 2y  s.t.  x + y <= 5,  2x >= 1 (stored -2x <= -1),  y == 2."""
    return LinearProgram.from_columns(
        [1.0, 2.0],
        [[0, 1], [2, 0]],
        [[1.0, -2.0], [1.0, 1.0]],
        [-np.inf, -np.inf, 2.0],
        [5.0, -1.0, 2.0],
    )


class TestVariables:
    def test_add_and_lookup(self):
        """A column is found by the flow and round it was built with."""
        lp = LinearProgram.from_columns(
            [0.0, 0.0, 0.0],
            [[0], [0], [1]],
            [[1.0], [1.0], [1.0]],
            [1.0, 1.0],
            [1.0, 1.0],
            flow=np.array([0, 0, 1]),
            round=np.array([3, 4, 3]),
        )
        assert lp.num_vars == 3 and lp.num_rows == 2
        (j,) = np.flatnonzero((lp.flow == 0) & (lp.round == 4))
        assert j == 1

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            LinearProgram.from_columns(
                [0.0], [[0, 0]], [[1.0, 2.0]], [0.0], [1.0]
            )

    def test_bounds_default(self):
        lp = _model()
        assert lp.col_lower.tolist() == [0.0, 0.0]
        assert lp.col_upper.tolist() == [np.inf, np.inf]


class TestConstraintsAndExport:
    def test_zero_coefficients_dropped(self):
        lp = LinearProgram.from_columns(
            [0.0], [[0, 1]], [[0.0, 3.0]], [0.0, 0.0], [1.0, 1.0]
        )
        assert lp.indices.tolist() == [1]
        assert lp.data.tolist() == [3.0]

    def test_scipy_arrays(self):
        """The matrix is in SciPy's CSC layout, rows ascending per column."""
        lp = _model()
        assert lp.indptr.tolist() == [0, 2, 4]
        assert lp.indices.tolist() == [0, 1, 0, 2]
        A = sparse.csc_array((lp.data, lp.indices, lp.indptr), shape=(3, 2))
        # The >= row is stored negated, in <= form.
        assert A.toarray().tolist() == [[1.0, 1.0], [-2.0, 0.0], [0.0, 1.0]]
        assert np.array_equal(A.toarray(), lp.dense_matrix())

    def test_dense_standard_form_slacks(self):
        A, b, c = _dense_standard_form(_model())
        # 3 rows, 2 structural + 2 slack columns (the two <= rows).
        assert A.shape == (3, 4)
        assert A[0, 2] == 1.0 and A[1, 3] == 1.0
        assert b.tolist() == [5.0, -1.0, 2.0]
        assert c.tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_dense_standard_form_upper_bounds_become_rows(self):
        lp = _no_rows([1.0])
        lp.col_upper[0] = 3.0
        A, b, c = _dense_standard_form(lp)
        assert A.shape == (1, 2)
        assert b.tolist() == [3.0]

    def test_dense_standard_form_rejects_nonzero_lower(self):
        lp = _no_rows([1.0])
        lp.col_lower[0] = 1.0
        with pytest.raises(ValueError, match="lower bounds"):
            _dense_standard_form(lp)

    def test_dense_standard_form_range_rows(self):
        """A row with two finite sides becomes a slack and a surplus row."""
        lp = LinearProgram.from_columns([1.0], [[0]], [[1.0]], [1.0], [4.0])
        A, b, _ = _dense_standard_form(lp)
        assert A.tolist() == [[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]]
        assert b.tolist() == [4.0, 1.0]


class TestBoundMutation:
    def test_set_upper_bounds_vectorized(self):
        """Replacing ``col_upper`` restricts the next solve (the oracle's
        mask), and a zero upper bound removes a column."""
        lp = LinearProgram.from_columns(
            [-1.0, -2.0], [[0], [0]], [[1.0], [1.0]], [-np.inf], [4.0]
        )
        assert solve_lp(lp).objective == pytest.approx(-8.0)
        lp.col_upper = np.array([np.inf, 0.0])
        assert solve_lp(lp).objective == pytest.approx(-4.0)


class TestPortRows:
    def test_rows_sorted_by_port_then_key(self):
        row, port = port_rows(np.array([1, 0, 1, 0]), np.array([2, 5, 0, 5]))
        # Distinct pairs sorted: (0, 5), (1, 0), (1, 2).
        assert port.tolist() == [0, 1, 1]
        assert row.tolist() == [2, 0, 1, 0]
