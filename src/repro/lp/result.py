"""Solver-independent LP result types."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class LPStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass(frozen=True)
class LPResult:
    """Result of :func:`repro.lp.solver.solve_lp`.

    Attributes
    ----------
    status:
        Solve outcome.
    objective:
        Optimal objective value (``None`` unless OPTIMAL).
    x:
        Primal solution indexed like the model's variables (``None``
        unless OPTIMAL).
    is_vertex:
        True when the method guarantees a basic (vertex) solution —
        required by the iterative-rounding pipelines.
    backend:
        Which solver produced the result (``"simplex"``, ``"highs"``,
        ``"highs-ds"``).
    """

    status: LPStatus
    objective: Optional[float] = None
    x: Optional[np.ndarray] = None
    is_vertex: bool = False
    backend: str = ""

    @property
    def is_optimal(self) -> bool:
        """True when an optimal solution was found."""
        return self.status is LPStatus.OPTIMAL

    def is_feasible(self, what: str) -> bool:
        """Read a feasibility solve: OPTIMAL is True, INFEASIBLE is False.

        Any other status (an error, an iteration or time limit, HiGHS's
        "unbounded or infeasible") decides nothing, so it raises
        ``RuntimeError`` naming the status and ``what`` was solved,
        rather than passing for a proof that no solution exists.
        """
        if self.status is LPStatus.OPTIMAL:
            return True
        if self.status is LPStatus.INFEASIBLE:
            return False
        raise RuntimeError(
            f"{what} solve ended {self.status.name} ({self.backend}), "
            "which decides nothing about feasibility"
        )
