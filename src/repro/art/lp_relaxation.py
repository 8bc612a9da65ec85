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
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.instance import Instance
from repro.lp.model import LinearProgram, Sense
from repro.lp.solver import solve_lp

#: Block length of the initial interval LP (the paper uses 4).
BLOCK = 4


def _horizon(instance: Instance, horizon: Optional[int]) -> int:
    H = instance.horizon_bound() if horizon is None else horizon
    if H <= instance.max_release:
        raise ValueError(
            f"horizon {H} does not cover max release {instance.max_release}"
        )
    return H


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
    """
    H = _horizon(instance, horizon)
    sw = instance.switch
    in_load, out_load = instance.port_loads()
    waits = (in_load // sw.input_capacities)[instance.srcs()] + (
        out_load // sw.output_capacities
    )[instance.dsts()]
    ends = np.minimum(H, instance.releases() + waits + 1).tolist()
    lp = LinearProgram()
    # Port-capacity rows, only for (port, round) pairs that are touched.
    in_rows: dict[tuple[int, int], dict] = {}
    out_rows: dict[tuple[int, int], dict] = {}
    for flow, end in zip(instance.flows, ends):
        kappa = sw.kappa(flow.src, flow.dst)
        coeffs = {}
        for t in range(flow.release, end):
            name = ("b", flow.fid, t)
            cost = (t - flow.release) / flow.demand + 1.0 / (2.0 * kappa)
            lp.add_variable(name, objective=cost)
            coeffs[name] = 1.0
            in_rows.setdefault((flow.src, t), {})[name] = 1.0
            out_rows.setdefault((flow.dst, t), {})[name] = 1.0
        lp.add_constraint(("flow", flow.fid), coeffs, Sense.GE, float(flow.demand))
    for (p, t), coeffs in sorted(in_rows.items()):
        lp.add_constraint(
            ("cap", "in", p, t), coeffs, Sense.LE, float(sw.input_capacity(p))
        )
    for (q, t), coeffs in sorted(out_rows.items()):
        lp.add_constraint(
            ("cap", "out", q, t), coeffs, Sense.LE, float(sw.output_capacity(q))
        )
    return lp


def art_lp_lower_bound(
    instance: Instance,
    horizon: Optional[int] = None,
    backend: str = "auto",
    timer=None,
) -> float:
    """Optimal value of LP (1)–(4): a lower bound on total response time.

    Lemma 3.1: for any schedule σ, ``sum_e Delta_e* <= sum_e rho_e``.
    This is the baseline the paper's Figure 6 plots against the
    heuristics ("the optimal value of the linear program (1)-(4)").

    ``timer`` (an optional :class:`repro.utils.timing.Timer`) receives
    one ``lp_bound_build`` and one ``lp_bound_solve`` measurement — the
    cold-work counters of the :mod:`repro.lp.bounds` subsystem.
    """
    from contextlib import nullcontext

    if instance.num_flows == 0:
        return 0.0
    with timer.measure("lp_bound_build") if timer else nullcontext():
        lp = build_fractional_art_lp(instance, horizon)
    with timer.measure("lp_bound_solve") if timer else nullcontext():
        result = solve_lp(lp, backend=backend)
    if not result.is_optimal:  # pragma: no cover - LP is always feasible
        raise RuntimeError(f"ART lower-bound LP failed: {result.status}")
    return float(result.objective)


def build_interval_lp0(
    instance: Instance, horizon: Optional[int] = None
) -> LinearProgram:
    """Construct LP (5)–(8), the initial LP(0) of iterative rounding.

    Constraint (7) groups rounds into fixed blocks
    ``(BLOCK*(a-1), BLOCK*a]`` with capacity ``BLOCK * c_p``; here with
    0-indexed rounds the blocks are ``[BLOCK*a, BLOCK*(a+1))``.
    """
    H = _horizon(instance, horizon)
    lp = LinearProgram()
    sw = instance.switch
    for flow in instance.flows:
        coeffs = {}
        for t in range(flow.release, H):
            name = ("b", flow.fid, t)
            cost = (t - flow.release) / flow.demand + 0.5
            lp.add_variable(name, objective=cost)
            coeffs[name] = 1.0
        lp.add_constraint(("flow", flow.fid), coeffs, Sense.GE, float(flow.demand))

    in_rows: dict[tuple[int, int], dict] = {}
    out_rows: dict[tuple[int, int], dict] = {}
    for flow in instance.flows:
        for t in range(flow.release, H):
            name = ("b", flow.fid, t)
            a = t // BLOCK
            in_rows.setdefault((flow.src, a), {})[name] = 1.0
            out_rows.setdefault((flow.dst, a), {})[name] = 1.0
    for (p, a), coeffs in sorted(in_rows.items()):
        lp.add_constraint(
            ("blk", "in", p, a),
            coeffs,
            Sense.LE,
            float(BLOCK * sw.input_capacity(p)),
        )
    for (q, a), coeffs in sorted(out_rows.items()):
        lp.add_constraint(
            ("blk", "out", q, a),
            coeffs,
            Sense.LE,
            float(BLOCK * sw.output_capacity(q)),
        )
    return lp
