"""Rounding the Time-Constrained LP (Theorem 3 / Lemma 4.3).

The paper rounds an LP solution with the Karp–Leighton–Rivest–Thompson–
Vazirani–Vazirani rounding theorem: because every column of the
constraint matrix has positive-coefficient sum at most ``Δ = 2·d_max``
(each variable ``x_{e,t}`` appears in exactly two capacity rows with
coefficient ``d_e``), an integral solution exists whose capacity rows are
violated by strictly less than ``2·d_max`` — i.e. at most ``2·d_max − 1``
for integer data — while the assignment rows are met exactly.

We realize the bound constructively with **iterative LP relaxation**
(Lau–Ravi–Singh style), which for this matrix yields the same guarantee:

1. solve the residual LP to an optimal *vertex*;
2. permanently fix every integral variable (assign flows, debit residual
   capacities) and delete zero variables;
3. *drop* any capacity row that can no longer be violated by more than
   ``2·d_max − 1`` even if all its surviving variables round to 1;
4. repeat until every flow is assigned.

Step 3's drop criterion is exactly what makes the final bound
unconditional: a row is only ever deleted when its worst case respects
``c_p + 2·d_max − 1``.  A defensive fallback (drop the row closest to
droppable) guarantees termination under floating-point degeneracy; it is
counted in :class:`RoundingResult.fallback_drops` and the final violation
is measured and returned, so callers (and the property tests) can verify
the theorem's bound held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.lp.model import LinearProgram
from repro.lp.solver import solve_lp
from repro.mrt.lp_relaxation import active_columns
from repro.mrt.time_constrained import TimeConstrainedInstance
from repro.utils.timing import measure

_TOL = 1e-7


@dataclass(frozen=True)
class RoundingResult:
    """Outcome of :func:`round_time_constrained`.

    Attributes
    ----------
    schedule:
        Integral schedule (every flow inside its active set), or ``None``
        when the LP was infeasible.
    feasible:
        Whether the fractional LP was feasible.
    max_violation:
        ``max over (port, round) of load - c_p`` (0 when none);
        Theorem 3 guarantees ``<= 2 d_max - 1``.
    iterations:
        Number of LP solves performed.
    fallback_drops:
        Times the defensive fallback fired (expected 0).
    """

    schedule: Optional[Schedule]
    feasible: bool
    max_violation: int = 0
    iterations: int = 0
    fallback_drops: int = 0


def _capacity_rows(inst: Instance, flow: np.ndarray, rounds: np.ndarray):
    """Capacity rows (19) of the columns, numbered by first appearance.

    Scanning the columns in order, each column's input row comes before
    its output row.  Returns each column's input and output row and each
    row's capacity.
    """
    sw = inst.switch
    span = int(rounds.max()) + 1
    keys = np.stack(
        [
            inst.srcs()[flow] * span + rounds,
            (sw.num_inputs + inst.dsts()[flow]) * span + rounds,
        ],
        axis=1,
    ).ravel()
    pairs, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    row = number[inverse].reshape(-1, 2)
    capacities = np.concatenate([sw.input_capacities, sw.output_capacities])
    capacity = capacities[pairs[order] // span].astype(np.float64)
    return row[:, 0], row[:, 1], capacity


def round_time_constrained(tci: TimeConstrainedInstance) -> RoundingResult:
    """Round LP (19)–(21) to an integral schedule per Theorem 3.

    Each residual-LP solve records a ``rounding_lp`` phase.

    The state lives in arrays over LP (19)–(21)'s columns
    (:func:`~repro.mrt.lp_relaxation.active_columns`) and capacity rows:

    * ``alive`` marks the columns still in play;
    * ``assigned`` holds each flow's round (-1 while unfixed);
    * each capacity row has a residual capacity and an ``active`` flag
      (a dropped row is unconstrained).  Rows are numbered by first
      appearance over the columns, input row before output row.

    Each residual LP is a column-and-row subset of one matrix: the alive
    columns, flow-major; the active capacity rows that touch an alive
    column, in row order, bounded above by their residuals; then one
    assignment row per unfixed flow.  After each solve:

    * an unfixed flow's first column at ``>= 1 - 1e-7`` fixes it: all
      its columns die, and its two rows' residuals drop by ``d_e``
      where those rows are still active;
    * every other unfixed flow loses its columns at ``<= 1e-7``;
    * every active row whose surviving demand is at most
      ``residual + 2 d_max - 1 + 1e-7`` is dropped;
    * if none of that happened, the active row with the smallest
      surviving demand minus residual is dropped (the fallback).

    Capacities and demands are integers, so the residuals stay exact.
    """
    inst = tci.instance
    n = inst.num_flows
    if n == 0:
        return RoundingResult(
            Schedule(inst, np.zeros(0, dtype=np.int64)), True
        )
    slack_budget = 2 * inst.max_demand - 1
    flow, rounds = active_columns(tci)
    demand = inst.demands()[flow]
    in_row, out_row, residual = _capacity_rows(inst, flow, rounds)
    num_rows = residual.size
    alive = np.ones(flow.size, dtype=bool)
    active = np.ones(num_rows, dtype=bool)
    assigned = np.full(n, -1, dtype=np.int64)
    iterations = 0
    fallback_drops = 0

    # NOTE: no constraint may be dropped before the first LP solve — the
    # first solve must decide feasibility of the *full* LP (19)-(21)
    # (Theorem 3's "either determine that there is no schedule or ...").
    # Likewise, flows with a single active round are NOT short-circuited:
    # the LP fixes their variable to 1 anyway, and bypassing it would
    # skip the feasibility check.

    while (assigned < 0).any():
        unfixed = np.flatnonzero(assigned < 0)
        cols = np.flatnonzero(alive)

        # The residual LP.
        touched = np.zeros(num_rows, dtype=bool)
        touched[in_row[cols]] = True
        touched[out_row[cols]] = True
        emitted = active & touched
        num_cap = int(emitted.sum())
        number = np.where(emitted, np.cumsum(emitted) - 1, -1)
        rows = np.stack(
            [
                number[in_row[cols]],
                number[out_row[cols]],
                num_cap + np.searchsorted(unfixed, flow[cols]),
            ],
            axis=1,
        )
        d = demand[cols].astype(np.float64)
        ones = np.ones(unfixed.size)
        lp = LinearProgram.from_columns(
            np.zeros(cols.size),
            rows,
            np.stack([d, d, np.ones(cols.size)], axis=1),
            np.concatenate([np.full(num_cap, -np.inf), ones]),
            np.concatenate([residual[emitted], ones]),
        )

        with measure("rounding_lp"):
            result = solve_lp(lp, need_vertex=True)
        iterations += 1
        if iterations == 1 and not result.is_feasible("LP (19)-(21)"):
            return RoundingResult(None, False, iterations=iterations)
        if not result.is_optimal:
            raise RuntimeError(
                f"residual LP ended {result.status.name} mid-rounding; "
                "this contradicts the relaxation invariant"
            )
        x = result.x

        # Fix each flow at its first column at 1; debit its active rows.
        at_one = cols[x >= 1 - _TOL]
        fixed, first = np.unique(flow[at_one], return_index=True)
        fix = at_one[first]
        assigned[fixed] = rounds[fix]
        debit_rows = np.concatenate([in_row[fix], out_row[fix]])
        debit = np.concatenate([demand[fix], demand[fix]])
        debited = active[debit_rows]
        np.subtract.at(residual, debit_rows[debited], debit[debited])
        # Other flows lose their zero columns; fixed flows lose them all.
        zero = cols[(x <= _TOL) & (assigned[flow[cols]] < 0)]
        alive[zero] = False
        alive[assigned[flow] >= 0] = False
        progressed = fix.size > 0 or zero.size > 0

        # Drop every row that can no longer exceed its budget.
        live = np.flatnonzero(alive)
        surviving = np.bincount(
            in_row[live], demand[live], minlength=num_rows
        ) + np.bincount(out_row[live], demand[live], minlength=num_rows)
        droppable = active & (surviving <= residual + slack_budget + _TOL)
        if droppable.any():
            active[droppable] = False
            progressed = True

        if not progressed:
            # Defensive fallback: drop the active row closest to droppable.
            fallback_drops += 1
            candidates = np.flatnonzero(active)
            gap = surviving[candidates] - residual[candidates]
            active[candidates[np.argmin(gap)]] = False

    schedule = Schedule(inst, assigned)
    return RoundingResult(
        schedule,
        True,
        max_violation=schedule.max_augmentation(),
        iterations=iterations,
        fallback_drops=fallback_drops,
    )
