"""Two-phase primal simplex on a dense tableau.

A self-contained LP solver, used by the test suite (through
:func:`repro.lp.solver._solve_simplex`) as an independent cross-check of
the HiGHS solves :func:`repro.lp.solver.solve_lp` makes.  It solves

    min c'x   s.t.   Ax = b,  x >= 0

via the standard two-phase method: phase 1 minimizes the sum of
artificial variables to find a basic feasible solution, phase 2 optimizes
the true objective.  **Bland's rule** (smallest eligible index for both
entering and leaving variables) guarantees termination in the presence of
degeneracy, which the scheduling LPs exhibit heavily.

The returned solution is always *basic* — at most ``rank(A)`` nonzero
variables — which is exactly what the iterative-rounding pipelines need
(vertex solutions drive their counting arguments).

Dense tableaus mean it is intended for models up to a few thousand
variables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.lp.result import LPStatus

_TOL = 1e-9


@dataclass(frozen=True)
class SimplexResult:
    """Raw result of :func:`simplex_solve`."""

    status: LPStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    iterations: int = 0


def simplex_solve(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    max_iterations: int = 100_000,
) -> SimplexResult:
    """Solve ``min c'x : Ax = b, x >= 0`` with two-phase primal simplex.

    Parameters
    ----------
    A, b, c:
        Dense equality system; ``b`` may have negative entries (rows are
        flipped internally).
    max_iterations:
        Safety cap across both phases.

    Returns
    -------
    SimplexResult
        Status, basic optimal solution, and objective.
    """
    A = np.array(A, dtype=np.float64, copy=True)
    b = np.array(b, dtype=np.float64, copy=True)
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError(
            f"shape mismatch: A {A.shape}, b {b.shape}, c {c.shape}"
        )

    # Normalize b >= 0 so artificial variables give a feasible basis.
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase-1 tableau: columns = [x | artificials], basis = artificials.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    basis = np.arange(n, n + m)
    # Bottom row holds z_j - c_j (so entering columns have entries > tol)
    # and the RHS holds the current objective value.  For the phase-1 cost
    # (sum of artificials) with the artificial basis this is the column
    # sums of A and sum(b).
    tableau[m, :n] = A.sum(axis=0)
    tableau[m, -1] = b.sum()

    status1, iters1 = _run_simplex(tableau, basis, n + m, max_iterations)
    if status1 is _Sweep.EXHAUSTED:
        return SimplexResult(LPStatus.ERROR, iterations=iters1)
    if status1 is _Sweep.UNBOUNDED:
        # The phase-1 objective (sum of artificials) is bounded below by
        # zero, so an unbounded ray here can only mean numerical
        # breakdown of the tableau.
        return SimplexResult(LPStatus.ERROR, iterations=iters1)
    phase1_obj = tableau[m, -1]
    if phase1_obj > 1e-7:
        return SimplexResult(LPStatus.INFEASIBLE, iterations=iters1)

    # Drive remaining artificials out of the basis (degenerate pivots) or
    # drop their rows if the row is entirely zero on structural columns.
    rows_to_keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[i, j]) > _TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, i, pivot_col)
                basis[i] = pivot_col
                rows_to_keep.append(i)
            # else: redundant row, exclude from phase 2
        else:
            rows_to_keep.append(i)

    # Build the phase-2 tableau on structural columns only.
    keep = np.asarray(rows_to_keep, dtype=np.int64)
    m2 = keep.size
    t2 = np.zeros((m2 + 1, n + 1))
    t2[:m2, :n] = tableau[keep, :n]
    t2[:m2, -1] = tableau[keep, -1]
    basis2 = basis[keep].copy()
    # Phase-2 reduced costs: z row = c_B B^-1 A - c  (stored negated so the
    # same pivot routine applies).  Compute by elimination of basic columns.
    t2[m2, :n] = c
    t2[m2, -1] = 0.0
    for i in range(m2):
        coeff = t2[m2, basis2[i]]
        if abs(coeff) > _TOL:
            t2[m2, :] -= coeff * t2[i, :]
    # Our pivot routine minimizes with row m holding -(reduced costs);
    # after elimination t2[m2] holds c_N - c_B B^-1 A_N in nonbasic columns,
    # i.e. the true reduced costs; negate to match the phase-1 convention
    # (entering column has positive entry in the stored row).
    t2[m2, :] *= -1.0

    status2, iters2 = _run_simplex(t2, basis2, n, max_iterations - iters1)
    if status2 is _Sweep.EXHAUSTED:
        return SimplexResult(LPStatus.ERROR, iterations=iters1 + iters2)
    if status2 is _Sweep.UNBOUNDED:
        return SimplexResult(LPStatus.UNBOUNDED, iterations=iters1 + iters2)

    x = np.zeros(n)
    for i in range(m2):
        if basis2[i] < n:
            x[basis2[i]] = t2[i, -1]
    # Clean tiny negatives from roundoff.
    x[np.abs(x) < _TOL] = 0.0
    objective = float(c @ x)
    return SimplexResult(LPStatus.OPTIMAL, x, objective, iters1 + iters2)


class _Sweep(enum.Enum):
    """Outcome of one :func:`_run_simplex` sweep (internal)."""

    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    EXHAUSTED = "exhausted"


def _run_simplex(
    tableau: np.ndarray, basis: np.ndarray, n_cols: int, max_iterations: int
) -> tuple[_Sweep, int]:
    """Pivot ``tableau`` to optimality using Bland's rule.

    The last row stores the *negated* reduced costs (entering columns are
    those with entries ``> tol``); the last column is the RHS.  Returns
    ``(outcome, iterations)`` where ``outcome`` is :class:`_Sweep` — an
    explicit return code, so back-to-back (or concurrent) solves share no
    mutable module state.  Optimality is checked *before* the iteration
    budget, so an already-optimal tableau succeeds even with a budget of
    zero (e.g. phase 1 consumed every iteration but phase 2 needs none).
    """
    m = tableau.shape[0] - 1
    iterations = 0
    while True:
        # Bland: entering = smallest column index with negated reduced
        # cost > tol.
        obj_row = tableau[m, :n_cols]
        candidates = np.flatnonzero(obj_row > _TOL)
        if candidates.size == 0:
            return _Sweep.OPTIMAL, iterations
        if iterations >= max_iterations:
            return _Sweep.EXHAUSTED, iterations
        col = int(candidates[0])
        column = tableau[:m, col]
        positive = column > _TOL
        if not positive.any():
            return _Sweep.UNBOUNDED, iterations
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[:m, -1][positive] / column[positive]
        min_ratio = ratios.min()
        # Bland: leaving = among min-ratio rows, smallest basis index.
        tie_rows = np.flatnonzero(ratios <= min_ratio + _TOL)
        row = int(tie_rows[np.argmin(basis[tie_rows])])
        _pivot(tableau, row, col)
        basis[row] = col
        iterations += 1


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on ``(row, col)`` (vectorized rank-1 update)."""
    pivot_val = tableau[row, col]
    tableau[row, :] /= pivot_val
    col_vals = tableau[:, col].copy()
    col_vals[row] = 0.0
    tableau -= np.outer(col_vals, tableau[row, :])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
