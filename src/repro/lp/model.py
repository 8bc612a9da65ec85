"""Array-native LP model: the arrays HiGHS reads.

The scheduling LPs (paper equations (1)–(12) and (19)–(21)) have one
column per (flow, round) pair, or per (flow class, round) in LP (1)–(4),
and rows indexed by flows or classes and by (port, interval) pairs.
Their builders fill a :class:`LinearProgram` with NumPy: costs, an
objective constant and column bounds, a CSC matrix, and row bounds in
HiGHS's ``lo <= A x <= hi`` form.  :func:`repro.lp.solver.solve_lp`
hands these arrays to HiGHS as they are, so a builder's row and column
order is the order HiGHS sees.

All models are minimization; use negated coefficients to maximize.  A
``>=`` row is stored negated, as ``-a x <= -b``, which is the form
``scipy.optimize.linprog`` gives HiGHS for ``A_ub`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class LinearProgram:
    """``min cost @ x  s.t.  row_lower <= A x <= row_upper,
    col_lower <= x <= col_upper``.

    Attributes
    ----------
    cost, col_lower, col_upper:
        Per-column float arrays.
    indptr, indices, data:
        ``A`` in CSC form, with row indices ascending inside each column.
    row_lower, row_upper:
        Per-row float arrays (``-inf`` / ``inf`` for an open side).
    flow, round:
        For the paper's LPs, the flow and the round of each column (in
        LP (1)–(4), the lowest fid of the column's flow class; ``None``
        for other models).
    offset:
        The objective's constant term: the model's value is
        ``cost @ x + offset``.  :func:`repro.lp.solver.solve_lp` hands it
        to HiGHS, so every result's objective includes it.
    """

    cost: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    flow: Optional[np.ndarray] = None
    round: Optional[np.ndarray] = None
    offset: float = 0.0

    @classmethod
    def from_columns(
        cls,
        cost: np.ndarray,
        rows: np.ndarray,
        values: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        flow: Optional[np.ndarray] = None,
        round: Optional[np.ndarray] = None,
    ) -> "LinearProgram":
        """Build a model whose column j has ``values[j]`` in ``rows[j]``.

        ``rows`` and ``values`` are ``(num_vars, k)`` arrays; a negative
        row index or a zero value marks an absent entry.  The entries of
        each column are sorted by row, as CSC requires; a row given twice
        in one column raises ``ValueError``.  Columns get bounds
        ``[0, inf)``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        order = np.argsort(rows, axis=1, kind="stable")
        rows = np.take_along_axis(rows, order, axis=1)
        values = np.take_along_axis(values, order, axis=1)
        present = (rows >= 0) & (values != 0.0)
        twice = rows[:, 1:] == rows[:, :-1]
        if (twice & present[:, 1:] & present[:, :-1]).any():
            raise ValueError("a column lists one row twice")
        indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(present.sum(axis=1), out=indptr[1:])
        num_vars = len(cost)
        return cls(
            cost=np.asarray(cost, dtype=np.float64),
            col_lower=np.zeros(num_vars),
            col_upper=np.full(num_vars, np.inf),
            indptr=indptr,
            indices=rows[present],
            data=values[present],
            row_lower=np.asarray(row_lower, dtype=np.float64),
            row_upper=np.asarray(row_upper, dtype=np.float64),
            flow=flow,
            round=round,
        )

    @property
    def num_vars(self) -> int:
        """Number of columns."""
        return self.cost.size

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self.row_lower.size

    def dense_matrix(self) -> np.ndarray:
        """``A`` as a dense ``(num_rows, num_vars)`` array."""
        A = np.zeros((self.num_rows, self.num_vars))
        cols = np.repeat(np.arange(self.num_vars), np.diff(self.indptr))
        A[self.indices, cols] = self.data
        return A

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinearProgram({self.num_vars} vars, {self.num_rows} rows)"


def port_rows(ports: np.ndarray, keys: np.ndarray):
    """One row per distinct ``(port, key)`` pair of the columns, sorted.

    ``ports`` and ``keys`` (non-negative) give each column's pair.
    Returns each column's row number and each row's port.
    """
    span = int(keys.max(initial=0)) + 1
    pairs, row = np.unique(ports * span + keys, return_inverse=True)
    return row, pairs // span
