"""LP (19)–(21): the Time-Constrained Flow Scheduling relaxation.

Variables ``x_{e,t}`` for ``t in R(e)``:

* capacity (19):   ``sum_{e in F_p} d_e x_{e,t} <= c_p``  for all ports p,
  rounds t;
* assignment (20): ``sum_{t in R(e)} x_{e,t} = 1``        for all flows e;
* nonnegativity (21).

The LP is a feasibility system (no objective).  It is an exact relaxation
test for the *fractional* problem: a schedule induces a 0/1 solution, so
LP infeasibility certifies that no schedule exists (used as the lower
bound for ρ in the binary search and as the Figure 7 baseline).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.lp.model import LinearProgram, port_rows
from repro.lp.result import LPResult
from repro.lp.solver import solve_lp
from repro.mrt.time_constrained import TimeConstrainedInstance


def active_columns(tci: TimeConstrainedInstance):
    """``(flow, round)`` of LP (19)–(21)'s columns: flow-major, each
    flow's active rounds in order."""
    lengths = [len(rounds) for rounds in tci.active_rounds]
    flow = np.repeat(np.arange(len(lengths)), lengths)
    rounds = np.fromiter(
        itertools.chain.from_iterable(tci.active_rounds),
        dtype=np.int64,
        count=flow.size,
    )
    return flow, rounds


def build_time_constrained_lp(tci: TimeConstrainedInstance) -> LinearProgram:
    """Construct LP (19)–(21) for ``tci``.

    Columns are :func:`active_columns`.  Rows, in order: the input-port
    capacity rows (19) of the touched (port, round) pairs, sorted; the
    output-port rows, sorted likewise; then the assignment rows (20) in
    flow order, with both bounds 1.  A column's coefficient is ``d_e``
    in its two capacity rows and 1 in its assignment row.  Capacity rows
    are only emitted for touched pairs — absent rows are vacuous — and
    no column needs an upper bound, because (20) caps each at 1.
    """
    inst = tci.instance
    sw = inst.switch
    flow, rounds = active_columns(tci)
    in_row, in_port = port_rows(inst.srcs()[flow], rounds)
    out_row, out_port = port_rows(inst.dsts()[flow], rounds)
    num_cap = in_port.size + out_port.size
    rows = np.stack([in_row, in_port.size + out_row, num_cap + flow], axis=1)
    demand = inst.demands()[flow].astype(np.float64)
    values = np.stack([demand, demand, np.ones(flow.size)], axis=1)
    capacity = np.concatenate(
        [sw.input_capacities[in_port], sw.output_capacities[out_port]]
    ).astype(np.float64)
    ones = np.ones(inst.num_flows)
    return LinearProgram.from_columns(
        np.zeros(flow.size),
        rows,
        values,
        np.concatenate([np.full(num_cap, -np.inf), ones]),
        np.concatenate([capacity, ones]),
        flow=flow,
        round=rounds,
    )


def solve_fractional(
    tci: TimeConstrainedInstance, need_vertex: bool = True
) -> LPResult:
    """Solve LP (19)–(21); OPTIMAL means fractionally schedulable."""
    return solve_lp(build_time_constrained_lp(tci), need_vertex=need_vertex)


def is_fractionally_feasible(tci: TimeConstrainedInstance) -> bool:
    """Feasibility predicate used by the ρ binary search.

    Only an INFEASIBLE solve means "not schedulable"; a solve that ends
    any other way without an optimum raises ``RuntimeError``.
    """
    return solve_fractional(tci, need_vertex=False).is_feasible("LP (19)-(21)")
