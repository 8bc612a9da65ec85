"""The paper's two LP lower bounds, one function each.

The Figure 6/7 sweeps spend most of their wall-clock in two LP lower
bounds: the binary-searched feasibility LP (19)–(21) for maximum
response and LP (1)–(4) for average response.  This module computes
both, checking its parameters on every call and keeping no state
between calls:

* :func:`counting_lower_bound` is a lower bound on ρ* that needs no LP:
  the demand released at one port in a span of rounds must fit through
  that port's capacity.  :meth:`LPBoundOracle.lower_bound` starts its
  search there, and when the bound meets the greedy schedule's max
  response the search closes without building or solving any LP.
* :class:`LPBoundOracle` builds the time-constrained LP at most once
  per instance (at the largest ρ the search can ask about, on the first
  query that needs a solve) and answers ``is_feasible(rho)`` for any
  smaller ρ by masking columns through their upper bounds — a column
  ``x_{e,t}`` with ``t >= r_e + rho`` gets upper bound 0, which is
  equivalent to removing it from the model.  Build and solve work are
  counted (``oracle.builds`` / ``oracle.solves``) and timed as the
  phases ``lp_bound_build`` and ``lp_bound_solve``
  (:func:`repro.utils.timing.measure`).
* :func:`mrt_lower_bound` (Figure 7's ρ*) and :func:`art_lower_bound`
  (Figure 6's LP (1)–(4) optimum) are the entry points of the two
  bounds.

The solves themselves go through :func:`repro.lp.solver.solve_lp`,
which hands the model's arrays to HiGHS; neither bound needs a vertex.

Finished bounds are kept, across processes, by the content-addressed
result store in :mod:`repro.api.store` (its ``lp:art_avg`` and
``lp:mrt_max`` records).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.greedy import greedy_earliest_fit
from repro.core.instance import Instance
from repro.core.metrics import max_response_time
from repro.core.schedule import Schedule
from repro.lp.solver import solve_lp
from repro.utils.timing import measure
from repro.utils.validation import check_positive_int


def counting_lower_bound(instance: Instance) -> int:
    """A lower bound on ρ* from port loads alone, with no LP.

    Take a port p and release rounds ``a <= b``, and let D be the total
    demand of the flows at p released in ``[a, b]``.  Under response
    bound ρ they are all served in rounds ``[a, b + ρ - 1]`` at most
    ``c_p`` per round, so ``ρ >= ceil(D / c_p) - (b - a)``.  Constraint
    (19) caps every round's load at p, so the bound holds for the
    fractional LP (19)–(21) as well.

    With ``S_b`` the demand released at p up to round b, the best start
    a for each end b comes from a running minimum:
    ``ceil(max_b [(S_b - b c_p) - min_{a<=b} (S_{a-1} - a c_p)] / c_p)``,
    so the cost is O(ports × rounds), not O(rounds²).  The result is the
    maximum over both sides and every port, and at least 1 (0 for an
    empty instance).
    """
    if instance.num_flows == 0:
        return 0
    sw = instance.switch
    rounds = np.arange(instance.max_release + 1)
    releases, demands = instance.releases(), instance.demands()
    best = 1
    for ports, caps in (
        (instance.srcs(), sw.input_capacities),
        (instance.dsts(), sw.output_capacities),
    ):
        released = np.zeros((caps.size, rounds.size), dtype=np.int64)
        np.add.at(released, (ports, releases), demands)
        cumulative = np.cumsum(released, axis=1)
        drain = rounds * caps[:, None]
        ends = cumulative - drain  # S_b - b c_p
        starts = cumulative - released - drain  # S_{a-1} - a c_p
        span = (ends - np.minimum.accumulate(starts, axis=1)).max(axis=1)
        best = max(best, int((-(-span // caps)).max()))
    return best


class LPBoundOracle:
    """Feasibility oracle for LP (19)–(21) across a whole ρ search.

    The design is build once, mask per probe: the first probe that needs
    a solve builds the LP at ``rho_cap``; every probe then sets the
    column upper bounds to 0 outside the windows ``t - r_e < rho`` (one
    array operation over the model's ``round`` and ``flow``) and solves.
    Only an INFEASIBLE solve counts as infeasible (see
    :meth:`is_feasible`).

    Parameters
    ----------
    instance:
        The FS-MRT instance.
    rho_cap:
        Largest ρ the oracle will be asked about.  Defaults to the greedy
        earliest-fit schedule's max response, which the greedy schedule
        certifies feasible.  A caller's cap is not certified:
        :meth:`lower_bound` checks it by LP if the search ends on it.
        It must be a positive integer; the error names it ``rho_upper``,
        as callers pass it.

    Attributes
    ----------
    builds / solves:
        Cold-work counters.  The LP is built on the first query that
        needs a solve, so ``builds`` is 0 or 1 for any number of queries,
        and 0 when the counting bound closes the search.
    greedy:
        The greedy earliest-fit schedule that set the default cap, whose
        max response is ``rho_cap``; ``None`` when the caller passed
        ``rho_cap`` (and for an empty instance).  When
        :meth:`lower_bound` ends on ``rho_cap``, it is an integral
        schedule meeting ρ* (:func:`repro.mrt.algorithm.solve_mrt`
        returns it).

    Example
    -------
    >>> from repro.workloads.synthetic import poisson_uniform_workload
    >>> inst = poisson_uniform_workload(4, 3.0, 3, seed=0)
    >>> oracle = LPBoundOracle(inst)
    >>> rho = oracle.lower_bound()
    >>> oracle.builds, oracle.solves
    (0, 0)
    """

    def __init__(self, instance: Instance, rho_cap: Optional[int] = None):
        self.instance = instance
        self.builds = 0
        self.solves = 0
        self._feasible: Dict[int, bool] = {}
        self._lp = None
        self._offsets = None
        self.greedy: Optional[Schedule] = None
        if rho_cap is not None:
            rho_cap = check_positive_int(rho_cap, "rho_upper")
        elif instance.num_flows:
            self.greedy = greedy_earliest_fit(instance)
            rho_cap = max_response_time(self.greedy)
            # The greedy schedule certifies feasibility at its own bound;
            # this memo entry is the only certificate a cap gets for free.
            self._feasible[rho_cap] = True
        # An empty instance's rho* is 0, with no search to cap.
        self.rho_cap = rho_cap if instance.num_flows else 0

    def _build(self) -> None:
        # Deferred to dodge the repro.lp <-> repro.mrt import cycle: the
        # mrt modules import repro.lp.model/solver at module level.
        from repro.mrt.lp_relaxation import build_time_constrained_lp
        from repro.mrt.time_constrained import from_response_bound

        with measure("lp_bound_build"):
            self._lp = build_time_constrained_lp(
                from_response_bound(self.instance, self.rho_cap)
            )
            # A column (flow e, round t) is alive under response bound
            # rho iff its offset t - r_e is below rho.
            self._offsets = (
                self._lp.round - self.instance.releases()[self._lp.flow]
            )
        self.builds += 1

    def is_feasible(self, rho: int) -> bool:
        """Whether LP (19)–(21) with response bound ``rho`` is feasible.

        Answers from the per-ρ memo when possible; otherwise masks the
        model (built at ``rho_cap`` on the first solve) by setting the
        upper bound of every out-of-window column to zero, and solves.
        Equivalent to
        ``is_fractionally_feasible(from_response_bound(instance, rho))``
        without the per-query model build.  Only an INFEASIBLE solve
        means infeasible: any other non-optimal status raises
        ``RuntimeError`` and is not memoised.  ``rho`` must be a positive
        integer no larger than ``rho_cap``.
        """
        rho = check_positive_int(rho, "rho")
        if self.instance.num_flows == 0:
            return True
        if rho > self.rho_cap:
            raise ValueError(
                f"rho {rho} exceeds the oracle's cap {self.rho_cap}; "
                "construct the oracle with a larger rho_cap"
            )
        hit = self._feasible.get(rho)
        if hit is not None:
            return hit
        if self._lp is None:
            self._build()
        self._lp.col_upper = np.where(self._offsets < rho, np.inf, 0.0)
        with measure("lp_bound_solve"):
            result = solve_lp(self._lp)
        self.solves += 1
        feasible = result.is_feasible(f"LP (19)-(21) at rho {rho}")
        self._feasible[rho] = feasible
        return feasible

    def lower_bound(self) -> int:
        """Binary-searched ρ*: the smallest fractionally feasible bound.

        Bisects ``[max(1, floor), rho_cap]``, where the floor is
        :func:`counting_lower_bound`, with the invariant ``hi`` feasible /
        ``lo - 1`` infeasible.  Feasibility is monotone in ρ, so the
        result equals a search from 1; the probe sequence is shorter,
        and empty when the floor meets the cap.  The search ends on a
        feasible probe or on the cap; a cap the oracle did not certify
        itself is solved there once.

        Raises
        ------
        ValueError
            If the cap lies below the floor, or the search ends on an
            uncertified cap whose LP is infeasible: either way ρ* exceeds
            the caller's ``rho_upper``.
        """
        if self.instance.num_flows == 0:
            return 0
        floor = counting_lower_bound(self.instance)
        if floor > self.rho_cap:
            raise ValueError(
                f"rho_upper {self.rho_cap} is below the port-load lower "
                f"bound {floor} on rho*"
            )
        lo, hi = floor, self.rho_cap
        while lo < hi:
            mid = (lo + hi) // 2
            if self.is_feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        if not self._feasible.get(lo) and not self.is_feasible(lo):
            raise ValueError(
                f"LP (19)-(21) is infeasible at rho_upper {lo}, so rho* "
                f"exceeds it"
            )
        return lo


def mrt_lower_bound(
    instance: Instance, rho_upper: Optional[int] = None
) -> int:
    """Figure 7's bound ρ*: the smallest ρ with LP (19)–(21) feasible.

    Binary search by :class:`LPBoundOracle`: it starts at the port-load
    floor, builds the LP at most once and changes only its ρ-dependent
    bounds across the search.  ``rho_upper`` caps the search; it must
    be a positive integer, and one below ρ* raises ``ValueError`` (see
    :meth:`LPBoundOracle.lower_bound`).
    """
    return LPBoundOracle(instance, rho_cap=rho_upper).lower_bound()


def art_lower_bound(
    instance: Instance, horizon: Optional[int] = None
) -> float:
    """Figure 6's bound: the optimum of LP (1)–(4).

    Lemma 3.1: for any schedule σ, ``sum_e Delta_e* <= sum_e rho_e``.
    This is the baseline the paper's Figure 6 plots against the
    heuristics ("the optimal value of the linear program (1)-(4)").

    The build and the solve record the phases ``lp_bound_build`` and
    ``lp_bound_solve``, as the ρ* oracle's do.  A ``horizon`` too short
    for LP (1)–(4) to be feasible raises ``ValueError``; the default,
    ``instance.horizon_bound()``, never is.
    """
    # Deferred to dodge the repro.lp <-> repro.art import cycle: the art
    # modules import repro.lp.model/solver at module level.
    from repro.art.lp_relaxation import build_fractional_art_lp

    if instance.num_flows == 0:
        if horizon is not None:
            check_positive_int(horizon, "horizon")
        return 0.0
    with measure("lp_bound_build"):
        lp = build_fractional_art_lp(instance, horizon)
    with measure("lp_bound_solve"):
        result = solve_lp(lp)
    if not result.is_feasible("LP (1)-(4)"):
        raise ValueError(
            f"horizon {horizon} is too short: LP (1)-(4) is infeasible"
        )
    return float(result.objective)
