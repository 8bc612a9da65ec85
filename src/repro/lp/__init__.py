"""Linear-programming substrate (the paper used Gurobi 8.1).

* :mod:`repro.lp.model` — the LP as arrays: costs, column bounds, a CSC
  matrix and row bounds in HiGHS's ``lo <= Ax <= hi`` form, plus each
  column's flow and round for the paper's LPs;
* :mod:`repro.lp.simplex` — a self-contained two-phase primal simplex
  (Bland's rule, dense tableau) that returns optimal *basic* solutions,
  the tests' independent reference for HiGHS;
* :mod:`repro.lp.solver` — :func:`~repro.lp.solver.solve_lp`, which
  hands the model's arrays to HiGHS with the options
  ``scipy.optimize.linprog`` would set and picks the method itself:
  dual simplex (``highs-ds``) when a vertex solution is required, as in
  the iterative-rounding pipelines, HiGHS's own choice otherwise;
* :mod:`repro.lp.bounds` — the sweep LPs' two lower bounds, one
  function each: LP (1)–(4)'s optimum, and ρ* by a search that starts
  at a port-load counting bound, builds the model at most once per
  instance (never when that bound meets the greedy cap) and mutates
  only the ρ-dependent bounds across the search.
"""

from repro.lp.bounds import (
    LPBoundOracle,
    art_lower_bound,
    counting_lower_bound,
    mrt_lower_bound,
)
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.lp.solver import solve_lp
from repro.lp.simplex import SimplexResult, simplex_solve

__all__ = [
    "LinearProgram",
    "LPResult",
    "LPStatus",
    "solve_lp",
    "simplex_solve",
    "SimplexResult",
    "LPBoundOracle",
    "mrt_lower_bound",
    "art_lower_bound",
    "counting_lower_bound",
]
