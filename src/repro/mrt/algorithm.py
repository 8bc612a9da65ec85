"""The FS-MRT solver (Theorem 3): binary search + LP rounding.

``solve_mrt`` finds the smallest response bound ρ* for which LP (19)–(21)
of the induced Time-Constrained instance is feasible, then rounds an
optimal vertex of that LP to an integral schedule.  Because the LP is a
relaxation, ρ* lower-bounds the optimal maximum response time of *any*
schedule; the rounded schedule achieves max response ≤ ρ* using at most
``2·d_max − 1`` additive capacity — which is exactly the paper's
guarantee ("optimal maximum response time, assuming the capacity of each
port is increased by at most 2 d_max − 1").  For unit demands this is
tight by Theorem 2.

When ρ* equals the max response of the greedy earliest-fit schedule
that caps the search, that schedule is already an integral optimal
vertex of LP (19)–(21) at ρ*, and rounding it would return it unchanged;
``solve_mrt`` returns it without building or solving that LP (the
argument is in its docstring).
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
    lp_solves:
        LP solves of the ρ* search plus those of the rounding.  When the
        greedy schedule meets ρ* there is no rounding, so only the
        search's probes count: 0 when the port-load floor closed it.
    rounding_iterations:
        Residual LPs the rounding solved; 0 when the greedy schedule
        meets ρ*.
    fallback_drops:
        Times the rounding's defensive fallback fired (expected 0).
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

    The binary search gives ρ*; the rounding loop
    (:func:`~repro.mrt.rounding.round_time_constrained`) then rounds an
    optimal vertex of LP (19)–(21) at ρ*.  When the search ends on the
    default cap, the max response of the greedy earliest-fit schedule
    (:attr:`LPBoundOracle.greedy`), that schedule is returned as it is,
    with no LP built or solved after the search.  Theorem 3's algorithm
    allows this result:

    * LP (19)–(21) at ρ has zero cost, one row ``sum_t x_{e,t} = 1`` per
      flow, and ``x >= 0``.  So its feasible region lies in the unit
      cube, and every feasible point is optimal.
    * A 0/1 point of a polytope inside the unit cube is a vertex of that
      polytope.
    * The greedy schedule with max response ρ* puts every flow in a
      round with ``t - r_e < ρ*``, and it meets every capacity row.  So
      it is an optimal vertex at ρ*.
    * Given that vertex, the rounding loop fixes every flow in its first
      iteration and returns the schedule unchanged.  The augmentation is
      0, inside Theorem 3's ``2·d_max − 1``.

    ρ* itself does not depend on which way the schedule is found.

    Parameters
    ----------
    instance:
        The FS-MRT instance.
    rho_upper:
        Optional upper bound on ρ; defaults to the greedy earliest-fit
        schedule's max response, which certifies itself.  A caller's
        bound is checked instead: one below ρ* raises ``ValueError``,
        and the result is always rounded.

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
    if oracle.greedy is not None and rho == oracle.rho_cap:
        # An integral optimal vertex at rho* (see above): nothing to
        # round, and the greedy schedule fits the switch as it is.
        return MRTResult(rho, oracle.greedy, 0, lp_solves, 0, 0)

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
