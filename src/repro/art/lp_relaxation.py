"""The FS-ART linear programs: LP (1)–(4) and LP (5)–(8).

**LP (1)–(4)** (after Garg–Kumar) lower-bounds the total response time of
any schedule (Lemma 3.1):

    min  sum_e sum_{t >= r_e} ((t - r_e)/d_e + 1/(2 kappa_e)) b_{e,t}
    s.t. sum_{t >= r_e} b_{e,t} >= d_e                    (flows complete)
         sum_{e in F_p} b_{e,t} <= c_p    for all p, t    (port capacity)
         b >= 0

Its optimum is the "LP" series of Figure 6.  The builder solves it over
flow *classes*, the flows of one (src, dst, demand): a class has one
column per round of a window long enough to hold every optimal
solution, Hall covering rows per distinct member release, and an
objective constant that restores LP (1)–(4)'s value (see
:func:`build_fractional_art_lp`).

**LP (5)–(8)** (after Bansal–Kulkarni) replaces per-round capacity with
per-4-round *blocks* of capacity ``4 c_p`` and uses the coefficient
``(t - r_e)/d_e + 1/2``; it is a relaxation of LP (1)–(4) for unit
``kappa`` and is the starting point LP(0) of iterative rounding.

Both builders fill the model's arrays directly.  Their column and row
order is part of the contract (HiGHS's vertex depends on it):

* columns are class-major in LP (1)–(4), classes ordered by their
  lowest fid, with every round of the class's window ascending; in
  LP (5)–(8) they are flow-major, with the flow's first round in each
  block ascending;
* rows are the covering rows, stored negated as ``-sum b <= -need``:
  in LP (1)–(4) one per (class, distinct release) in class order and
  then release order, in LP (5)–(8) one per flow in flow order; then
  the input-port capacity rows of the touched (port, round) or (port,
  block) pairs, sorted; then the output-port rows, sorted likewise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.instance import Instance
from repro.lp.model import LinearProgram, port_rows
from repro.utils.validation import check_positive_int

#: Block length of the initial interval LP (the paper uses 4).
BLOCK = 4


def _horizon(instance: Instance, horizon: Optional[int]) -> int:
    if horizon is None:
        H = instance.horizon_bound()
    else:
        H = check_positive_int(horizon, "horizon")
    if H <= instance.max_release:
        raise ValueError(
            f"horizon {H} does not cover max release {instance.max_release}"
        )
    return H


def _flow_rounds(starts: np.ndarray, ends: np.ndarray):
    """``(e, t)`` for every ``t in [starts[e], ends[e])``, e-major with t
    ascending (flows or classes; rounds, or blocks of rounds)."""
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
    first_cover: np.ndarray,
    num_cover: np.ndarray,
    need: np.ndarray,
    offset: float = 0.0,
) -> LinearProgram:
    """The shared shape of LP (1)–(4) and (5)–(8).

    Column j has -1 in the covering rows ``[first_cover[j], first_cover[j]
    + num_cover[j])``, where covering row i reads ``-sum <= -need[i]``,
    and +1 in the capacity rows of ``scale * c_p`` of its (src, key) and
    (dst, key) pairs: one row per touched (input port, key), then per
    (output port, key), both sorted.  ``flow[j]`` names the column's
    ports.
    """
    sw = instance.switch
    in_row, in_port = port_rows(instance.srcs()[flow], keys)
    out_row, out_port = port_rows(instance.dsts()[flow], keys)
    first_in = need.size
    first_out = first_in + in_port.size
    indptr = np.zeros(flow.size + 1, dtype=np.int64)
    np.cumsum(num_cover + 2, out=indptr[1:])
    column = np.repeat(np.arange(flow.size), num_cover + 2)
    indices = first_cover[column] + np.arange(column.size) - indptr[column]
    last = indptr[1:] - 1
    indices[last - 1] = first_in + in_row
    indices[last] = first_out + out_row
    data = np.full(indices.size, -1.0)
    data[last - 1] = data[last] = 1.0
    row_upper = np.concatenate(
        [
            -need.astype(np.float64),
            (scale * sw.input_capacities[in_port]).astype(np.float64),
            (scale * sw.output_capacities[out_port]).astype(np.float64),
        ]
    )
    return LinearProgram(
        cost=np.asarray(cost, dtype=np.float64),
        col_lower=np.zeros(flow.size),
        col_upper=np.full(flow.size, np.inf),
        indptr=indptr,
        indices=indices,
        data=data,
        row_lower=np.full(row_upper.size, -np.inf),
        row_upper=row_upper,
        flow=flow,
        round=rounds,
        offset=offset,
    )


def _flow_classes(instance: Instance):
    """Each flow's class, and each class's lowest fid.

    A class is the set of flows with one (src, dst, demand); classes are
    numbered in the order of their lowest fid.
    """
    pair = instance.srcs() * instance.switch.num_outputs + instance.dsts()
    demands = instance.demands()
    order = np.lexsort((demands, pair))  # fid ascending within a class
    new = _starts(pair[order], demands[order])
    lead = order[new]
    by_lead = np.argsort(lead)
    rank = np.empty_like(by_lead)
    rank[by_lead] = np.arange(by_lead.size)
    klass = np.empty_like(order)
    klass[order] = rank[np.cumsum(new) - 1]
    return klass, lead[by_lead]


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Where a run of equal ``keys`` tuples starts, in sorted ``keys``."""
    new = np.empty(keys[0].size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[0][1:], keys[0][:-1], out=new[1:])
    for key in keys[1:]:
        new[1:] |= key[1:] != key[:-1]
    return new


def build_fractional_art_lp(
    instance: Instance, horizon: Optional[int] = None
) -> LinearProgram:
    """Construct LP (1)–(4) over flow classes: one column per (class,
    round), with the same optimum as the per-flow LP over ``[r_e, H)``.

    A *class* g is the set of flows with one (src, dst, demand): they
    share the cost slope ``1/d``, ``kappa`` and the port rows, and differ
    only in release.  Classes are ordered by their lowest fid, which is
    each column's ``lp.flow``; ``lp.round`` is its round.

    * **Columns.**  Class g has a column ``z_{g,t}`` for every t in
      ``[r_min(g), end_g)``, class-major with t ascending, where
      ``end_g = min(H, r_max(g) + floor(D_src/c_src) + floor(D_dst/c_dst)
      + 1)`` and ``D_p`` is the total demand at port p.  Its cost is
      ``(t - r_min(g))/d + 1/(2 kappa)``.
    * **Covering rows.**  One per (class g, distinct member release rho),
      in class order and then rho order:
      ``-sum_{t >= rho} z_{g,t} <= -d * #{e in g : r_e >= rho}``, so
      column (g, t) has -1 in each row of its class with ``rho <= t``.
      These are Hall's condition for members that can be served at any
      round from their release on.
    * **Port rows** as in the module's order, capacity ``c_p``.
    * **Offset** ``-sum_e (r_e - r_min(g_e))``, the objective's constant.

    The class optimum plus the offset is LP (1)–(4)'s optimum, for any
    horizon, and the two LPs are infeasible together:

    1. Per-flow windows.  Costs rise with t, so in an optimal per-flow
       solution every round ``s in [r_e, t)`` before a round t that
       carries mass of e has a saturated src or dst port (else moving
       mass of e from t to s lowers the cost).  Every cost is positive,
       so an optimal solution sends exactly ``d_e`` of each flow and port
       p carries exactly ``D_p``, saturating it in at most
       ``floor(D_p/c_p)`` rounds.  So every per-flow optimum lies in
       ``[r_e, r_e + floor(D_src/c_src) + floor(D_dst/c_dst) + 1)``,
       which the class window ``[r_min(g), end_g)`` contains.
    2. Per-flow to class.  Summing such an optimum per class gives a
       class solution: each member covers exactly d from its release
       on, so the covering rows hold, the port rows see the same sums,
       and a member's mass costs ``(r_e - r_min(g))/d`` more per unit
       in the class, ``r_e - r_min(g)`` in all.  Its value plus the
       offset is the per-flow optimum.
    3. Class to per-flow.  A class solution meets Hall's condition for
       the members' suffix windows ``[r_e, H)``, so it splits into
       per-flow solutions with the same port sums; mass beyond the
       members' demands goes to any member released by its round.
       There is no per-column bound, and any over-cover only lowers the
       per-flow value below the class value plus the offset.

    When every class has one member, the arrays, and the objective, are
    those of the per-flow LP with each flow's window of step 1.
    """
    H = _horizon(instance, horizon)
    sw = instance.switch
    releases = instance.releases()
    in_load, out_load = instance.port_loads()
    klass, lead = _flow_classes(instance)
    src, dst = instance.srcs()[lead], instance.dsts()[lead]
    demand = instance.demands()[lead]
    # Members by class, then release.
    order = np.lexsort((releases, klass))
    member_class, member_release = klass[order], releases[order]
    size = np.bincount(klass, minlength=lead.size)
    last = np.cumsum(size) - 1
    r_min = member_release[last + 1 - size]
    r_max = member_release[last]

    waits = (in_load // sw.input_capacities)[src] + (
        out_load // sw.output_capacities
    )[dst]
    lengths = np.minimum(H, r_max + waits + 1) - r_min
    column_class, rounds = _flow_rounds(r_min, r_min + lengths)
    # One covering row per (class, distinct release rho): it covers the
    # class's column at round rho and every later one.
    row_at = np.flatnonzero(_starts(member_class, member_release))
    row_class = member_class[row_at]
    need = demand[row_class] * (last[row_class] + 1 - row_at)
    row_column = (np.cumsum(lengths) - lengths)[row_class] + (
        member_release[row_at] - r_min[row_class]
    )
    first_cover = np.searchsorted(row_class, column_class)
    num_cover = (
        np.searchsorted(row_column, np.arange(rounds.size), side="right")
        - first_cover
    )
    kappa = np.minimum(sw.input_capacities[src], sw.output_capacities[dst])
    cost = (rounds - r_min[column_class]) / demand[column_class] + 1.0 / (
        2.0 * kappa[column_class]
    )
    offset = float((r_min[member_class] - member_release).sum())
    return _covering_lp(
        instance, lead[column_class], rounds, cost, rounds, 1,
        first_cover, num_cover, need, offset,
    )


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
    demands = instance.demands()
    cost = (rounds - releases[flow]) / demands[flow] + 0.5
    return _covering_lp(
        instance, flow, rounds, cost, blocks, BLOCK,
        flow, np.ones_like(flow), demands,
    )
