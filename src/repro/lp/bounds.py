"""Warm LP-bound oracles with digest-keyed memoisation.

The Figure 6/7 sweeps spend most of their wall-clock in two LP lower
bounds: the binary-searched feasibility LP (19)–(21) for maximum
response and LP (1)–(4) for average response.  This module keeps both
cheap:

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
* :func:`mrt_lower_bound` / :func:`art_lower_bound` wrap the two sweep
  bounds behind an in-process solve cache keyed by the canonical
  instance digest (:meth:`repro.core.instance.Instance.digest`), so
  repeated bound queries for the same instance — across solvers,
  benchmarks, or API calls in one process — are served without any LP
  work.  :func:`cache_stats` / :func:`clear_bound_caches` expose and
  reset the memo.

The solves themselves go through :func:`repro.lp.solver.solve_lp`,
which hands the model's arrays to HiGHS; neither bound needs a vertex.

Cross-*process* reuse (resumable sweeps) is layered on top by the
content-addressed result store in :mod:`repro.api.store`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from repro.core.greedy import greedy_earliest_fit
from repro.core.instance import Instance
from repro.core.metrics import max_response_time
from repro.lp.solver import solve_lp
from repro.utils.timing import measure
from repro.utils.validation import check_positive_int

#: Entries kept per in-process cache (oldest evicted beyond this).
CACHE_LIMIT = 1024

_MRT_CACHE: "OrderedDict[tuple, int]" = OrderedDict()
_ART_CACHE: "OrderedDict[tuple, float]" = OrderedDict()
_STATS = {"hits": 0, "misses": 0}
# Guards the caches and counters: lookups and insertions are
# check-then-mutate sequences, which a threaded executor would race.
_CACHE_LOCK = threading.Lock()


def _lookup(cache: OrderedDict, key: tuple):
    """``(found, value)`` under the lock, updating LRU order and stats."""
    with _CACHE_LOCK:
        if key in cache:
            _STATS["hits"] += 1
            cache.move_to_end(key)
            return True, cache[key]
        _STATS["misses"] += 1
        return False, None


def _remember(cache: OrderedDict, key: tuple, value) -> None:
    with _CACHE_LOCK:
        cache[key] = value
        cache.move_to_end(key)
        while len(cache) > CACHE_LIMIT:
            cache.popitem(last=False)


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
        if instance.num_flows == 0:
            self.rho_cap = 0
            return
        if rho_cap is None:
            rho_cap = max_response_time(greedy_earliest_fit(instance))
            # The greedy schedule certifies feasibility at its own bound;
            # this memo entry is the only certificate a cap gets for free.
            self._feasible[rho_cap] = True
        self.rho_cap = check_positive_int(rho_cap, "rho_upper")

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
        ``RuntimeError`` and is not memoised.
        """
        if self.instance.num_flows == 0:
            return True
        rho = int(rho)
        if rho < 1:
            raise ValueError(f"rho must be positive, got {rho}")
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
    instance: Instance,
    rho_upper: Optional[int] = None,
    use_cache: bool = True,
) -> int:
    """Digest-memoised Figure 7 bound ρ* (LP (19)–(21), binary search).

    Same value as :func:`repro.mrt.algorithm.fractional_mrt_lower_bound`;
    repeated calls for an identical instance in one process return the
    memoised answer without solving an LP.  ``use_cache=False``
    (the Runner's ``--no-cache`` semantics) recomputes but still
    refreshes the memo.  A ``rho_upper`` below ρ* raises ``ValueError``
    (see :meth:`LPBoundOracle.lower_bound`).
    """
    if instance.num_flows == 0:
        return 0
    key = (instance.digest(), rho_upper)
    if use_cache:
        found, value = _lookup(_MRT_CACHE, key)
        if found:
            return value
    value = LPBoundOracle(instance, rho_cap=rho_upper).lower_bound()
    _remember(_MRT_CACHE, key, value)
    return value


def art_lower_bound(
    instance: Instance,
    horizon: Optional[int] = None,
    use_cache: bool = True,
) -> float:
    """Digest-memoised Figure 6 bound: the optimum of LP (1)–(4).

    A caching wrapper over
    :func:`repro.art.lp_relaxation.art_lp_lower_bound` (one
    implementation, so the values cannot diverge), with the result cached
    per (digest, horizon); a cold build and solve record the
    phases ``lp_bound_build`` / ``lp_bound_solve``.
    ``use_cache=False`` recomputes but still refreshes the memo.
    """
    from repro.art.lp_relaxation import art_lp_lower_bound

    if instance.num_flows == 0:
        return 0.0
    key = (instance.digest(), horizon)
    if use_cache:
        found, value = _lookup(_ART_CACHE, key)
        if found:
            return value
    value = art_lp_lower_bound(instance, horizon=horizon)
    _remember(_ART_CACHE, key, value)
    return value


def cache_stats() -> Dict[str, int]:
    """Hit/miss counters and entry counts of the in-process bound caches."""
    with _CACHE_LOCK:
        return {
            "hits": _STATS["hits"],
            "misses": _STATS["misses"],
            "mrt_entries": len(_MRT_CACHE),
            "art_entries": len(_ART_CACHE),
        }


def clear_bound_caches() -> None:
    """Drop every memoised bound and reset the hit/miss counters."""
    with _CACHE_LOCK:
        _MRT_CACHE.clear()
        _ART_CACHE.clear()
        _STATS["hits"] = 0
        _STATS["misses"] = 0
