"""Iterative rounding for FS-ART (Section 3.1, Lemma 3.3).

Following Bansal–Kulkarni (as adapted by the paper), a sequence of linear
programs LP(0), LP(1), ... is solved, where LP(0) is the interval LP
(5)–(8) and each LP(ℓ) relaxes LP(ℓ−1):

* flows whose variables became integral in LP(ℓ−1) are **permanently
  fixed** to their round and leave the program;
* zero variables are deleted;
* per-port capacity blocks are **regrouped**: the surviving variables of
  port ``p`` are sorted by round and greedily grouped until each group's
  fractional mass first reaches ``4 c_p`` (sizes land in
  ``[4 c_p, 5 c_p)``; a trailing partial group keeps its own mass as its
  capacity); the new constraint gives each group capacity equal to its
  mass, so the previous solution stays feasible and the LP value never
  increases (Lemma 3.3 property 2).

Lemma 3.5 shows at least half the flows become integral per iteration,
so there are ``O(log n)`` iterations, and Lemmas 3.6–3.7 bound the
accumulated window overload by ``O(c_p log n)``.

This implementation requires **unit demands** (the setting of Theorem 1;
the paper's rounding also analyzes only the unit-flow case end-to-end).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.art.lp_relaxation import BLOCK, build_interval_lp0
from repro.art.pseudo_schedule import PseudoSchedule
from repro.core.instance import Instance
from repro.lp.model import LinearProgram
from repro.lp.solver import solve_lp
from repro.utils.timing import measure

_TOL = 1e-7


def iterative_rounding(
    instance: Instance,
    horizon: Optional[int] = None,
    max_iterations: Optional[int] = None,
) -> PseudoSchedule:
    """Round LP (5)–(8) into a pseudo-schedule (Lemma 3.3).

    Each LP solve, LP(0) and every LP(ℓ), records a ``rounding_lp``
    phase, the name FS-MRT's rounding loop uses.

    Parameters
    ----------
    instance:
        Unit-demand instance (raises ``ValueError`` otherwise).
    horizon:
        LP time horizon; defaults to ``instance.horizon_bound()``, which
        LP (5)–(8) always fits.  A shorter one that leaves LP (5)–(8)
        infeasible raises ``ValueError``.
    max_iterations:
        Defensive cap; defaults to ``2 log2(n) + 20``.

    Returns
    -------
    PseudoSchedule
    """
    if not instance.is_unit_demand:
        raise ValueError(
            "iterative rounding implements the unit-demand case "
            "(Theorem 1); got non-unit demands"
        )
    n = instance.num_flows
    if n == 0:
        return PseudoSchedule(instance, np.zeros(0, dtype=np.int64))
    if max_iterations is None:
        max_iterations = 2 * int(math.log2(n) + 1) + 20

    # --- LP(0) -----------------------------------------------------------
    lp = build_interval_lp0(instance, horizon)
    with measure("rounding_lp"):
        res = solve_lp(lp, need_vertex=True)
    if not res.is_feasible("LP (5)-(8)"):
        raise ValueError(
            f"horizon {horizon} is too short: LP (5)-(8) is infeasible"
        )
    lp0_optimum = float(res.objective)

    assignment = np.full(n, -1, dtype=np.int64)
    # The surviving fractional support: its (flow, round, value) columns,
    # flow-major with rounds ascending, as in the LP they came from.
    flow, rounds, value = _fix_integral_flows(assignment, lp, res.x)
    iterations = 1
    fallback_fixes = 0

    while flow.size and iterations < max_iterations:
        prev_unfixed = np.unique(flow).size
        lp = _build_lp_ell(instance, flow, rounds, value)
        with measure("rounding_lp"):
            res = solve_lp(lp, need_vertex=True)
        iterations += 1
        if not res.is_optimal:  # pragma: no cover - relaxation invariant
            raise RuntimeError(f"LP(ell) failed: {res.status}")
        flow, rounds, value = _fix_integral_flows(assignment, lp, res.x)
        if np.unique(flow).size >= prev_unfixed:
            # Defensive fallback (Lemma 3.5 precludes this with exact
            # vertices): force the most-committed flow to its best round.
            best = np.argmax(value)
            assignment[flow[best]] = rounds[best]
            keep = flow != flow[best]
            flow, rounds, value = flow[keep], rounds[keep], value[keep]
            fallback_fixes += 1

    # Horizon exhausted: force-assign any stragglers (max_iterations hit).
    for fid in np.unique(flow):
        own = np.flatnonzero(flow == fid)
        assignment[fid] = rounds[own[np.argmax(value[own])]]
        fallback_fixes += 1

    releases = instance.releases()
    lp_cost = float(((assignment - releases) + 0.5).sum())
    return PseudoSchedule(
        instance,
        assignment,
        lp_cost=lp_cost,
        lp0_optimum=lp0_optimum,
        iterations=iterations,
        fallback_fixes=fallback_fixes,
    )


def _fix_integral_flows(
    assignment: np.ndarray, lp: LinearProgram, x: np.ndarray
):
    """Assign each flow with a column at 1 to its first such round.

    Returns the rest of the support: the ``(flow, round, value)`` of the
    columns above ``1e-7`` whose flow stays unassigned.
    """
    support = x > _TOL
    flow, rounds, value = lp.flow[support], lp.round[support], x[support]
    at_one = np.flatnonzero(value >= 1 - _TOL)
    fixed, first = np.unique(flow[at_one], return_index=True)
    assignment[fixed] = rounds[at_one[first]]
    keep = assignment[flow] < 0
    return flow[keep], rounds[keep], value[keep]


def _build_lp_ell(
    instance: Instance,
    flow: np.ndarray,
    rounds: np.ndarray,
    value: np.ndarray,
) -> LinearProgram:
    """Construct LP(ℓ) (equations (9)–(12)) from the surviving support.

    The support is given as ``(flow, round, value)`` columns.  Columns
    are the support's, flow-major with rounds ascending, with cost
    ``(t - r_e)/d_e + 1/2``.  Rows: the covering rows (10), one per
    support flow in flow order, stored negated as
    ``-sum_t b_{e,t} <= -d_e``; then the interval rows (11) of
    :func:`_port_groups`, each bounded by its group's mass.
    """
    order = np.lexsort((rounds, flow))
    flow, rounds, value = flow[order], rounds[order], value[order]
    fids, cover_row = np.unique(flow, return_inverse=True)
    in_row, out_row, sizes = _port_groups(instance, flow, rounds, value)
    rows = np.stack(
        [cover_row, fids.size + in_row, fids.size + out_row], axis=1
    )
    releases, demands = instance.releases(), instance.demands()
    cost = (rounds - releases[flow]) / demands[flow] + 0.5
    row_upper = np.concatenate(
        [-demands[fids].astype(np.float64), np.asarray(sizes)]
    )
    return LinearProgram.from_columns(
        cost,
        rows,
        np.tile([-1.0, 1.0, 1.0], (flow.size, 1)),
        np.full(row_upper.size, -np.inf),
        row_upper,
        flow=flow,
        round=rounds,
    )


def _port_groups(
    instance: Instance,
    flow: np.ndarray,
    rounds: np.ndarray,
    value: np.ndarray,
):
    """Greedy interval construction per port (the I(p, a, ℓ) of §3.1).

    For each port: sort the surviving columns of incident flows by round
    (ties by fid), then cut groups as soon as the accumulated mass first
    reaches ``BLOCK * c_p``.  Groups are numbered input ports first, in
    port order, then output ports.  Returns each column's input and
    output group and each group's mass.  The cut is a sequential loop:
    its float accumulation order decides the cut points.
    """
    sw = instance.switch
    mass_of = value.tolist()
    sizes: List[float] = []
    groups = []
    for ports, caps in (
        (instance.srcs()[flow], sw.input_capacities),
        (instance.dsts()[flow], sw.output_capacities),
    ):
        group = np.empty(flow.size, dtype=np.int64)
        port_of = ports.tolist()
        port, mass = -1, 0.0  # a non-empty group has positive mass
        for j in np.lexsort((flow, rounds, ports)).tolist():
            if port_of[j] != port:
                if mass:
                    sizes.append(mass)
                port, mass = port_of[j], 0.0
                threshold = BLOCK * int(caps[port])
            group[j] = len(sizes)
            mass += mass_of[j]
            if mass >= threshold:
                sizes.append(mass)
                mass = 0.0
        if mass:
            sizes.append(mass)
        groups.append(group)
    return groups[0], groups[1], sizes
