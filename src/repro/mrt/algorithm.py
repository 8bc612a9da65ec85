"""The FS-MRT solver (Theorem 3): binary search + LP rounding.

``solve_mrt`` finds the smallest response bound ρ* for which LP (19)–(21)
of the induced Time-Constrained instance is feasible, then rounds that
LP solution to an integral schedule.  Because the LP is a relaxation,
ρ* lower-bounds the optimal maximum response time of *any* schedule; the
rounded schedule achieves max response ≤ ρ* using at most ``2·d_max − 1``
additive capacity — which is exactly the paper's guarantee ("optimal
maximum response time, assuming the capacity of each port is increased by
at most 2 d_max − 1").  For unit demands this is tight by Theorem 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.lp.bounds import LPBoundOracle
from repro.mrt.rounding import RoundingResult, round_time_constrained
from repro.mrt.time_constrained import (
    TimeConstrainedInstance,
    from_response_bound,
)


@dataclass(frozen=True)
class MRTResult:
    """Result of :func:`solve_mrt`.

    Attributes
    ----------
    rho:
        The certified optimal (fractional) maximum response time ρ*;
        a lower bound on every schedule's max response.
    schedule:
        Integral schedule with max response ≤ ρ*.
    max_violation:
        Additive capacity excess used (``<= 2 d_max - 1`` by Theorem 3).
    lp_solves / rounding_iterations / fallback_drops:
        Work counters for benchmarking and diagnostics.
    """

    rho: int
    schedule: Schedule
    max_violation: int
    lp_solves: int
    rounding_iterations: int
    fallback_drops: int


def solve_mrt(
    instance: Instance, rho_upper: Optional[int] = None
) -> MRTResult:
    """Solve FS-MRT per Theorem 3.

    Parameters
    ----------
    instance:
        The FS-MRT instance.
    rho_upper:
        Optional upper bound on ρ; defaults to the greedy earliest-fit
        schedule's max response, which certifies itself.  A caller's
        bound is checked instead: one below ρ* raises ``ValueError``.

    Returns
    -------
    MRTResult
    """
    # The oracle checks rho_upper, starts the search at the port-load
    # floor and builds LP (19)-(21) only if a probe needs a solve; each
    # probe only toggles the rho-dependent variable bounds of that model.
    oracle = LPBoundOracle(instance, rho_cap=rho_upper)
    if instance.num_flows == 0:
        import numpy as np

        empty = Schedule(instance, np.zeros(0, dtype=np.int64))
        return MRTResult(0, empty, 0, 0, 0, 0)
    rho = oracle.lower_bound()
    lp_solves = oracle.solves

    rounding = round_time_constrained(from_response_bound(instance, rho))
    lp_solves += rounding.iterations
    if not rounding.feasible or rounding.schedule is None:  # pragma: no cover
        # The oracle certified LP (19)-(21) feasible at rho, so the
        # rounding's first LP is feasible too.
        raise RuntimeError(f"LP infeasible at certified rho={rho}")
    return MRTResult(
        rho=rho,
        schedule=rounding.schedule,
        max_violation=rounding.max_violation,
        lp_solves=lp_solves,
        rounding_iterations=rounding.iterations,
        fallback_drops=rounding.fallback_drops,
    )


def schedule_time_constrained(tci: TimeConstrainedInstance) -> RoundingResult:
    """Solve the general Time-Constrained problem (includes deadlines).

    Either determines that no schedule exists (LP infeasible ⇒ the
    instance is infeasible even fractionally) or produces a schedule
    whose port loads exceed capacities by at most ``2·d_max − 1``
    (Theorem 3 verbatim, including the Remark 4.2 deadline model).
    """
    return round_time_constrained(tci)
