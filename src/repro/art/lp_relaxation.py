"""The FS-ART linear programs: LP (1)–(4) and LP (5)–(8).

**LP (1)–(4)** (after Garg–Kumar) lower-bounds the total response time of
any schedule (Lemma 3.1):

    min  sum_e sum_{t >= r_e} ((t - r_e)/d_e + 1/(2 kappa_e)) b_{e,t}
    s.t. sum_{t >= r_e} b_{e,t} >= d_e                    (flows complete)
         sum_{e in F_p} b_{e,t} <= c_p    for all p, t    (port capacity)
         b >= 0

Its optimum is the "LP" series of Figure 6.  Each flow gets its own
window of rounds, short enough to shrink the LP and long enough to hold
every optimal solution (see :func:`build_fractional_art_lp`).

**LP (5)–(8)** (after Bansal–Kulkarni) replaces per-round capacity with
per-4-round *blocks* of capacity ``4 c_p`` and uses the coefficient
``(t - r_e)/d_e + 1/2``; it is a relaxation of LP (1)–(4) for unit
``kappa`` and is the starting point LP(0) of iterative rounding.

Both builders fill the model's arrays directly.  Their column and row
order is part of the contract (HiGHS's vertex depends on it):

* columns are flow-major, with the rounds of each flow ascending:
  every round of the flow's window in LP (1)–(4), the flow's first
  round in each block in LP (5)–(8);
* rows are the covering rows in flow order, stored negated as
  ``-sum_t b_{e,t} <= -d_e``; then the input-port capacity rows of the
  touched (port, round) or (port, block) pairs, sorted; then the
  output-port rows, sorted likewise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.instance import Instance
from repro.lp.model import LinearProgram, port_rows
from repro.lp.solver import solve_lp
from repro.utils.timing import measure

#: Block length of the initial interval LP (the paper uses 4).
BLOCK = 4


def _horizon(instance: Instance, horizon: Optional[int]) -> int:
    H = instance.horizon_bound() if horizon is None else horizon
    if H <= instance.max_release:
        raise ValueError(
            f"horizon {H} does not cover max release {instance.max_release}"
        )
    return H


def _flow_rounds(starts: np.ndarray, ends: np.ndarray):
    """``(e, t)`` for every ``t in [starts[e], ends[e])``, flow-major
    with t ascending (rounds, or blocks of rounds)."""
    lengths = ends - starts
    flow = np.repeat(np.arange(starts.size), lengths)
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return flow, starts[flow] + np.arange(flow.size) - first


def _covering_lp(
    instance: Instance,
    flow: np.ndarray,
    rounds: np.ndarray,
    cost: np.ndarray,
    keys: np.ndarray,
    scale: int,
) -> LinearProgram:
    """The shared shape of LP (1)–(4) and (5)–(8).

    Covering rows per flow, then capacity rows of ``scale * c_p`` per
    touched (input port, key), then per (output port, key).
    """
    sw = instance.switch
    n = instance.num_flows
    in_row, in_port = port_rows(instance.srcs()[flow], keys)
    out_row, out_port = port_rows(instance.dsts()[flow], keys)
    num_in = in_port.size
    rows = np.stack([flow, n + in_row, n + num_in + out_row], axis=1)
    values = np.tile([-1.0, 1.0, 1.0], (flow.size, 1))
    row_upper = np.concatenate(
        [
            -instance.demands().astype(np.float64),
            (scale * sw.input_capacities[in_port]).astype(np.float64),
            (scale * sw.output_capacities[out_port]).astype(np.float64),
        ]
    )
    return LinearProgram.from_columns(
        cost,
        rows,
        values,
        np.full(row_upper.size, -np.inf),
        row_upper,
        flow=flow,
        round=rounds,
    )


def build_fractional_art_lp(
    instance: Instance, horizon: Optional[int] = None
) -> LinearProgram:
    """Construct LP (1)–(4), flow e on rounds ``[r_e, end_e)``.

    ``end_e = min(horizon, r_e + floor(D_src/c_src) + floor(D_dst/c_dst)
    + 1)``, where ``D_p`` is the total demand at port p.  These per-flow
    windows leave the optimum of the ``horizon``-round LP unchanged, for
    any horizon:

    * costs rise with t, so in an optimal solution every round
      ``s in [r_e, t)`` before a round t that carries mass of e has a
      saturated src or dst port — otherwise moving mass of e from t to s
      keeps every constraint and lowers the cost;
    * every cost is positive, so an optimal solution sends exactly
      ``d_e`` of each flow, and port p carries exactly ``D_p`` in total.
      It is therefore saturated in at most ``floor(D_p/c_p)`` rounds.

    Hence ``t - r_e <= floor(D_src/c_src) + floor(D_dst/c_dst)``: every
    optimal solution of the full-horizon LP lies inside the windows, and
    the windowed LP, a restriction, has the same optimum.

    Columns and rows follow the module's order; a column's cost is
    ``(t - r_e)/d_e + 1/(2 kappa_e)`` and each capacity row's bound is
    ``c_p``.
    """
    H = _horizon(instance, horizon)
    sw = instance.switch
    srcs, dsts = instance.srcs(), instance.dsts()
    releases, demands = instance.releases(), instance.demands()
    in_load, out_load = instance.port_loads()
    waits = (in_load // sw.input_capacities)[srcs] + (
        out_load // sw.output_capacities
    )[dsts]
    ends = np.minimum(H, releases + waits + 1)
    flow, rounds = _flow_rounds(releases, ends)
    kappa = np.minimum(sw.input_capacities[srcs], sw.output_capacities[dsts])
    cost = (rounds - releases[flow]) / demands[flow] + 1.0 / (
        2.0 * kappa[flow]
    )
    return _covering_lp(instance, flow, rounds, cost, rounds, 1)


def art_lp_lower_bound(
    instance: Instance, horizon: Optional[int] = None
) -> float:
    """Optimal value of LP (1)–(4): a lower bound on total response time.

    Lemma 3.1: for any schedule σ, ``sum_e Delta_e* <= sum_e rho_e``.
    This is the baseline the paper's Figure 6 plots against the
    heuristics ("the optimal value of the linear program (1)-(4)").

    The build and the solve record the phases ``lp_bound_build`` and
    ``lp_bound_solve``, the names of the :mod:`repro.lp.bounds` oracle.
    A ``horizon`` too short for LP (1)–(4) to be feasible raises
    ``ValueError``; the default, ``instance.horizon_bound()``, never is.
    """
    if instance.num_flows == 0:
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


def build_interval_lp0(
    instance: Instance, horizon: Optional[int] = None
) -> LinearProgram:
    """Construct LP (5)–(8), the initial LP(0) of iterative rounding.

    Constraint (7) groups rounds into fixed blocks
    ``(BLOCK*(a-1), BLOCK*a]`` with capacity ``BLOCK * c_p``; here with
    0-indexed rounds the blocks are ``[BLOCK*a, BLOCK*(a+1))``.  Each
    flow has one column per block that meets ``[r_e, horizon)``: the
    block's earliest round the flow can use, ``max(r_e, BLOCK*a)``, with
    cost ``(t - r_e)/d_e + 1/2``.  This leaves the optimum of the LP
    with a column for every round of ``[r_e, horizon)`` unchanged:

    * a flow's columns in one block have the same entries (-1 in its
      covering row, +1 in its (src, block) and (dst, block) rows), and
      their costs rise with t;
    * so moving the mass of a later round to the block's first one keeps
      every constraint and lowers the cost: every optimal solution of
      the all-rounds LP lies on the kept columns, and the reduced LP, a
      restriction, has the same optimum.

    LP(0)'s optimum, and with it the pseudo-schedule's ``lp0_optimum``
    and Lemma 3.3's chain of LP values, is therefore unchanged.  The
    all-rounds LP has the same rows, since each flow touches the same
    blocks; HiGHS presolve deletes its dominated columns anyway.  Rows
    follow the module's order, keyed by (port, block).
    """
    H = _horizon(instance, horizon)
    releases = instance.releases()
    first = releases // BLOCK
    flow, blocks = _flow_rounds(first, np.full_like(first, -(-H // BLOCK)))
    rounds = np.maximum(BLOCK * blocks, releases[flow])
    cost = (rounds - releases[flow]) / instance.demands()[flow] + 0.5
    return _covering_lp(instance, flow, rounds, cost, blocks, BLOCK)
