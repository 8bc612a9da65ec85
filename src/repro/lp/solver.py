"""Unified LP solve: :func:`solve_lp` picks the HiGHS method.

Methods
-------
``"highs-ds"``
    HiGHS dual simplex.  Returns basic (vertex) solutions; used whenever
    the caller needs a vertex, as the iterative-rounding pipelines do
    (the paper used Gurobi — any optimal basic solution is equivalent
    for the rounding arguments).
``"highs"``
    HiGHS's automatic choice (may use interior point); fastest for pure
    lower-bound computations where only the objective value or a
    feasibility verdict matters.

:func:`solve_lp` runs ``highs-ds`` when called with ``need_vertex=True``
and ``highs`` otherwise; no caller names a method.  Both call the HiGHS
build that SciPy ships (``scipy.optimize._highspy``, SciPy >= 1.15)
directly on the model's arrays, with the options
``scipy.optimize.linprog`` sets for ``method="highs"`` / ``"highs-ds"``,
and keep ``linprog``'s post-solve check of the returned point.  Given
the arrays ``linprog`` would pass, HiGHS returns the same vertex, bit
for bit, without ``linprog``'s per-column Python work.  A model's
:attr:`~repro.lp.model.LinearProgram.offset` goes to HiGHS as the
objective's constant term, so the reported objective includes it; it
does not move the vertex.
:attr:`LPResult.backend <repro.lp.result.LPResult.backend>` records the
method that answered.

:func:`_solve_simplex` runs our dense two-phase simplex
(:mod:`repro.lp.simplex`, ``backend="simplex"`` in its results) on small
models.  The tests call it directly as an independent reference for
HiGHS; no program path does.

Repeated nearby solves — the ρ binary search of Figure 7 — should not
call :func:`solve_lp` with a freshly built model each time.  Use the
oracle path instead: :class:`repro.lp.bounds.LPBoundOracle` builds the
time-constrained LP once and re-solves it under mutated ρ-dependent
bounds.  Every oracle query still lands here; finished bounds are kept
across runs by the result store (:mod:`repro.api.store`).
"""

from __future__ import annotations

import numpy as np

from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import simplex_solve

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # pragma: no cover - depends on the install
    raise ImportError(
        "repro.lp.solver calls HiGHS through scipy.optimize._highspy, "
        "which needs SciPy >= 1.15"
    ) from exc

_DENSE_SIMPLEX_LIMIT = 4000  # max variables for the dense simplex

_HIGHS_STATUS = {
    _highs.HighsModelStatus.kOptimal: LPStatus.OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: LPStatus.INFEASIBLE,
    _highs.HighsModelStatus.kModelError: LPStatus.INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: LPStatus.UNBOUNDED,
}

#: linprog's tolerance for its post-solve check, ``sqrt(1e-9) * 10``.
_CHECK_TOL = np.sqrt(1e-9) * 10


def _highs_options(solver: str) -> "_highs.HighsOptions":
    """The options ``linprog`` passes HiGHS (``solver`` aside, defaults)."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.solver = solver
    options.simplex_strategy = 1  # kSimplexStrategyDual
    options.highs_debug_level = 0  # kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return options


# HiGHS copies these into each fresh solver, so one set serves every solve.
_OPTIONS = {
    "highs": _highs_options("choose"),
    "highs-ds": _highs_options("simplex"),
}


def solve_lp(lp: LinearProgram, need_vertex: bool = False) -> LPResult:
    """Solve a :class:`LinearProgram` (minimization).

    Parameters
    ----------
    lp:
        The model to solve.
    need_vertex:
        Require a basic solution (iterative rounding): HiGHS dual
        simplex (``highs-ds``).  Otherwise HiGHS picks its own method
        (``highs``).

    Returns
    -------
    LPResult
        Its objective is ``cost @ x + lp.offset``.  A model without
        columns is OPTIMAL (objective ``lp.offset``) when every row admits
        the activity 0, and INFEASIBLE otherwise.
    """
    method = "highs-ds" if need_vertex else "highs"
    if lp.num_vars == 0:
        if ((lp.row_lower <= 0.0) & (lp.row_upper >= 0.0)).all():
            return LPResult(
                LPStatus.OPTIMAL, float(lp.offset), np.zeros(0), True, method
            )
        return LPResult(LPStatus.INFEASIBLE, backend=method)
    return _solve_highs(lp, method)


def _dense_standard_form(lp: LinearProgram):
    """``(A, b, c)`` of ``min c'x : Ax = b, x >= 0`` for the dense simplex.

    Each finite row side gets its own row: an equality row stays one
    row, ``a x <= hi`` gains a slack and ``a x >= lo`` a surplus column.
    A finite column upper bound becomes a ``<=`` row.
    """
    if (lp.col_lower != 0.0).any():
        raise ValueError("dense standard form requires lower bounds of 0")
    n = lp.num_vars
    entries = []  # (coefficients, rhs, +1 slack / -1 surplus / 0 none)
    for a, lo, hi in zip(lp.dense_matrix(), lp.row_lower, lp.row_upper):
        if lo == hi:
            entries.append((a, hi, 0.0))
            continue
        if np.isfinite(hi):
            entries.append((a, hi, 1.0))
        if np.isfinite(lo):
            entries.append((a, lo, -1.0))
    for j in np.flatnonzero(np.isfinite(lp.col_upper)):
        entries.append((np.eye(1, n, j)[0], lp.col_upper[j], 1.0))
    signs = np.array([sign for _, _, sign in entries])
    slack = np.flatnonzero(signs)
    A = np.zeros((len(entries), n + slack.size))
    for r, (a, _, _) in enumerate(entries):
        A[r, :n] = a
    A[slack, n + np.arange(slack.size)] = signs[slack]
    b = np.array([rhs for _, rhs, _ in entries], dtype=np.float64)
    c = np.zeros(A.shape[1])
    c[:n] = lp.cost
    return A, b, c


def _solve_simplex(lp: LinearProgram) -> LPResult:
    """Dense two-phase simplex: the tests' independent reference for HiGHS."""
    if lp.num_vars > _DENSE_SIMPLEX_LIMIT:
        raise ValueError(
            f"dense simplex limited to {_DENSE_SIMPLEX_LIMIT} variables "
            f"(model has {lp.num_vars})"
        )
    A, b, c = _dense_standard_form(lp)
    res = simplex_solve(A, b, c)
    if res.status is not LPStatus.OPTIMAL:
        return LPResult(res.status, backend="simplex")
    x = res.x[: lp.num_vars]
    return LPResult(
        LPStatus.OPTIMAL,
        objective=float(lp.cost @ x + lp.offset),
        x=x,
        is_vertex=True,
        backend="simplex",
    )


def _solve_highs(lp: LinearProgram, method: str) -> LPResult:
    """HiGHS on the model's arrays, as ``linprog(method=method)`` runs it."""
    model = _highs.HighsLp()
    model.num_col_ = lp.num_vars
    model.num_row_ = lp.num_rows
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = lp.num_vars
    matrix.num_row_ = lp.num_rows
    # The bindings copy the model's vectors from NumPy buffers, but the
    # matrix's element by element, which is faster from a list.
    matrix.start_ = lp.indptr.tolist()
    matrix.index_ = lp.indices.tolist()
    matrix.value_ = lp.data.tolist()
    model.col_cost_ = lp.cost
    model.offset_ = lp.offset
    model.col_lower_ = lp.col_lower
    model.col_upper_ = lp.col_upper
    model.row_lower_ = lp.row_lower
    model.row_upper_ = lp.row_upper

    highs = _highs._Highs()
    highs.passOptions(_OPTIONS[method])
    if highs.passModel(model) == _highs.HighsStatus.kError:
        # linprog reports a rejected model as kModelError: infeasible.
        return LPResult(LPStatus.INFEASIBLE, backend=method)
    highs.run()
    status = _HIGHS_STATUS.get(highs.getModelStatus(), LPStatus.ERROR)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, backend=method)
    solution = highs.getSolution()
    x = np.array(solution.col_value, dtype=np.float64)
    objective = highs.getInfo().objective_function_value
    if not _within_bounds(lp, x, objective, np.asarray(solution.row_value)):
        return LPResult(LPStatus.ERROR, backend=method)
    return LPResult(
        LPStatus.OPTIMAL,
        objective=float(objective),
        x=x,
        is_vertex=(method == "highs-ds"),
        backend=method,
    )


def _within_bounds(
    lp: LinearProgram, x: np.ndarray, objective: float, rows: np.ndarray
) -> bool:
    """``linprog``'s post-solve check of an OPTIMAL HiGHS point.

    No NaN, and every column value and row activity within its bounds up
    to ``sqrt(1e-9) * 10``.  A point that fails is reported as ERROR.
    """
    if np.isnan(x).any() or np.isnan(objective) or np.isnan(rows).any():
        return False
    tol = _CHECK_TOL
    return not (
        (x < lp.col_lower - tol).any()
        or (x > lp.col_upper + tol).any()
        or (lp.row_upper - rows < -tol).any()
        or (rows - lp.row_lower < -tol).any()
    )
