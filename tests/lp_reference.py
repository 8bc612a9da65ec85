"""Reference LP pipeline: tuple-keyed models solved through ``linprog``.

The library builds its LPs straight into arrays and hands them to HiGHS
(:mod:`repro.lp.solver`).  This module keeps the dict-based builders and
rounding loops they replaced, next to a ``scipy.optimize.linprog`` solve
of the models' export, so the tests can pin the array code to them:

* :class:`NamedLP` — an LP with named variables and constraints;
  :func:`export` gives the arrays ``linprog`` hands HiGHS (``A_ub``
  stacked above ``A_eq`` in CSC form, ``>=`` rows negated), and
  :func:`model_arrays` a library model's arrays in the same order;
* :func:`build_fractional_art_lp`, :func:`build_interval_lp0`,
  :func:`build_lp_ell` and :func:`build_time_constrained_lp` — LP (1)–(4),
  (5)–(8), (9)–(12) and (19)–(21), built by name; ``build_fractional_art_lp``
  also builds LP (1)–(4) with one column per (flow, round), the model the
  library's flow classes replace, and ``build_interval_lp0`` LP (5)–(8)
  with a column for every round, the model whose dominated columns the
  library drops;
* :func:`linprog_solve` — the ``linprog`` solve with the status mapping
  the library used;
* :func:`round_time_constrained` and :func:`iterative_rounding` — the
  FS-MRT and FS-ART rounding loops over :class:`NamedLP` models.

Both rounding loops take their solve as a parameter so a test can stub
one solve and delegate the rest.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np
from scipy import optimize, sparse

from repro.art.lp_relaxation import BLOCK, _horizon
from repro.art.pseudo_schedule import PseudoSchedule
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.mrt.rounding import RoundingResult
from repro.mrt.time_constrained import TimeConstrainedInstance

_TOL = 1e-7


class Sense(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


class NamedLP:
    """Minimization LP with named variables, bounds ``[0, inf)``, and the
    objective's constant term ``offset``."""

    def __init__(self) -> None:
        self.offset = 0.0
        self.names: List[Hashable] = []
        self.index: Dict[Hashable, int] = {}
        self.cost: List[float] = []
        self.upper: List[float] = []
        self.rows: List[Tuple[Hashable, Dict[int, float], Sense, float]] = []

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def add_variable(self, name, objective=0.0, upper=np.inf) -> None:
        assert name not in self.index, name
        self.index[name] = len(self.names)
        self.names.append(name)
        self.cost.append(float(objective))
        self.upper.append(float(upper))

    def add_constraint(self, name, coeffs, sense: Sense, rhs: float) -> None:
        indexed = {self.index[v]: float(c) for v, c in coeffs.items() if c}
        self.rows.append((name, indexed, sense, float(rhs)))

    def values(self, x: np.ndarray) -> Dict[Hashable, float]:
        return {name: float(x[i]) for name, i in self.index.items()}

    def linprog_args(self):
        """``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` for ``linprog``."""
        n = self.num_vars
        ub, eq = [], []
        for _name, coeffs, sense, rhs in self.rows:
            if sense is Sense.LE:
                ub.append((coeffs, rhs))
            elif sense is Sense.GE:
                ub.append(({i: -c for i, c in coeffs.items()}, -rhs))
            else:
                eq.append((coeffs, rhs))

        def build(rows):
            if not rows:
                return None, None
            data, r_idx, c_idx = [], [], []
            for r, (coeffs, _) in enumerate(rows):
                for c, val in coeffs.items():
                    r_idx.append(r)
                    c_idx.append(c)
                    data.append(val)
            shape = (len(rows), n)
            mat = sparse.csr_matrix((data, (r_idx, c_idx)), shape=shape)
            return mat, np.asarray([b for _, b in rows], dtype=np.float64)

        bounds = list(zip([0.0] * n, self.upper))
        return (np.asarray(self.cost), *build(ub), *build(eq), bounds)


def export(lp: NamedLP):
    """The arrays ``linprog`` hands HiGHS for ``lp``.

    ``(cost, col_lower, col_upper, indptr, indices, data, row_lower,
    row_upper)``, with the ``A_ub`` rows above the ``A_eq`` rows.
    """
    c, a_ub, b_ub, a_eq, b_eq, bounds = lp.linprog_args()
    n = c.size
    mats = [m for m in (a_ub, a_eq) if m is not None]
    A = sparse.csc_array(sparse.vstack(mats) if mats else (0, n))
    n_ub = 0 if b_ub is None else b_ub.size
    b_eq = np.zeros(0) if b_eq is None else b_eq
    b_ub = np.zeros(0) if b_ub is None else b_ub
    lower, upper = np.array(bounds, dtype=np.float64).reshape(n, 2).T
    return (
        c,
        lower,
        upper,
        A.indptr,
        A.indices,
        A.data,
        np.concatenate([np.full(n_ub, -np.inf), b_eq]),
        np.concatenate([b_ub, b_eq]),
    )


def model_arrays(lp: LinearProgram):
    """A :class:`LinearProgram`'s arrays in :func:`export`'s order."""
    return (
        lp.cost,
        lp.col_lower,
        lp.col_upper,
        lp.indptr,
        lp.indices,
        lp.data,
        lp.row_lower,
        lp.row_upper,
    )


def to_model(lp: NamedLP) -> LinearProgram:
    """The :class:`LinearProgram` of :func:`export`, with each column's
    flow and round read from its ``(tag, fid, t)`` name."""
    columns = np.array([name[1:] for name in lp.names], dtype=np.int64)
    flow, rounds = columns.reshape(-1, 2).T
    return LinearProgram(
        *export(lp), flow=flow, round=rounds, offset=lp.offset
    )


_SCIPY_STATUS = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ERROR,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.ERROR,
}


def linprog_solve(lp: NamedLP, need_vertex=False):
    """Solve ``lp`` with ``scipy.optimize.linprog`` (an :class:`LPResult`),
    by the method :func:`repro.lp.solver.solve_lp` picks."""
    method = "highs-ds" if need_vertex else "highs"
    c, a_ub, b_ub, a_eq, b_eq, bounds = lp.linprog_args()
    res = optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method=method,
    )
    status = _SCIPY_STATUS.get(res.status, LPStatus.ERROR)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, backend=method)
    objective = float(res.fun)
    if lp.offset:
        # linprog takes no constant term.  HiGHS sums the objective from
        # it, column by column.
        objective = lp.offset
        for c_j, x_j in zip(c.tolist(), res.x.tolist()):
            objective += c_j * x_j
    return LPResult(
        LPStatus.OPTIMAL,
        objective=objective,
        x=np.asarray(res.x, dtype=np.float64),
        is_vertex=need_vertex,
        backend=method,
    )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def build_fractional_art_lp(
    instance: Instance, horizon=None, per_flow: bool = False
) -> NamedLP:
    """LP (1)-(4) over the flow classes of the library's builder, or with
    ``per_flow`` one column per (flow, round) in each flow's window.

    A class is the flows of one (src, dst, demand), named by its lowest
    fid; ``per_flow`` makes every flow its own class.
    """
    H = _horizon(instance, horizon)
    sw = instance.switch
    in_load: dict = {}
    out_load: dict = {}
    classes: dict = {}
    for flow in instance.flows:
        in_load[flow.src] = in_load.get(flow.src, 0) + flow.demand
        out_load[flow.dst] = out_load.get(flow.dst, 0) + flow.demand
        key = flow.fid if per_flow else (flow.src, flow.dst, flow.demand)
        classes.setdefault(key, []).append(flow)
    lp = NamedLP()
    in_rows: dict = {}
    out_rows: dict = {}
    for members in classes.values():
        lead = members[0]
        releases = [flow.release for flow in members]
        start = min(releases)
        end = min(
            H,
            max(releases)
            + in_load[lead.src] // sw.input_capacity(lead.src)
            + out_load[lead.dst] // sw.output_capacity(lead.dst)
            + 1,
        )
        kappa = sw.kappa(lead.src, lead.dst)
        names = {}
        for t in range(start, end):
            name = ("b", lead.fid, t)
            cost = (t - start) / lead.demand + 1.0 / (2.0 * kappa)
            lp.add_variable(name, objective=cost)
            names[t] = name
            in_rows.setdefault((lead.src, t), {})[name] = 1.0
            out_rows.setdefault((lead.dst, t), {})[name] = 1.0
        for rho in sorted(set(releases)):
            coeffs = {name: 1.0 for t, name in names.items() if t >= rho}
            need = lead.demand * sum(r >= rho for r in releases)
            lp.add_constraint(
                ("flow", lead.fid, rho), coeffs, Sense.GE, float(need)
            )
        lp.offset -= sum(r - start for r in releases)
    for (p, t), coeffs in sorted(in_rows.items()):
        cap = float(sw.input_capacity(p))
        lp.add_constraint(("cap", "in", p, t), coeffs, Sense.LE, cap)
    for (q, t), coeffs in sorted(out_rows.items()):
        cap = float(sw.output_capacity(q))
        lp.add_constraint(("cap", "out", q, t), coeffs, Sense.LE, cap)
    return lp


def build_interval_lp0(
    instance: Instance, horizon=None, all_rounds: bool = False
) -> NamedLP:
    """LP (5)-(8), blocks of ``BLOCK``: each flow's first round in each
    block that meets ``[r_e, H)``, or with ``all_rounds`` every round of
    ``[r_e, H)`` (the model the library's builder drops columns from)."""
    H = _horizon(instance, horizon)
    lp = NamedLP()
    sw = instance.switch

    def rounds(flow):
        return [
            t
            for t in range(flow.release, H)
            if all_rounds or t == flow.release or t % BLOCK == 0
        ]

    for flow in instance.flows:
        coeffs = {}
        for t in rounds(flow):
            name = ("b", flow.fid, t)
            cost = (t - flow.release) / flow.demand + 0.5
            lp.add_variable(name, objective=cost)
            coeffs[name] = 1.0
        demand = float(flow.demand)
        lp.add_constraint(("flow", flow.fid), coeffs, Sense.GE, demand)
    in_rows: dict = {}
    out_rows: dict = {}
    for flow in instance.flows:
        for t in rounds(flow):
            name = ("b", flow.fid, t)
            in_rows.setdefault((flow.src, t // BLOCK), {})[name] = 1.0
            out_rows.setdefault((flow.dst, t // BLOCK), {})[name] = 1.0
    for (p, a), coeffs in sorted(in_rows.items()):
        cap = float(BLOCK * sw.input_capacity(p))
        lp.add_constraint(("blk", "in", p, a), coeffs, Sense.LE, cap)
    for (q, a), coeffs in sorted(out_rows.items()):
        cap = float(BLOCK * sw.output_capacity(q))
        lp.add_constraint(("blk", "out", q, a), coeffs, Sense.LE, cap)
    return lp


def port_groups(instance: Instance, support: Dict[int, Dict[int, float]]):
    """Greedy per-port interval cut of LP(ell): ``[(side, port, groups)]``."""
    per_port: dict = {}
    for fid, entries in support.items():
        flow = instance.flows[fid]
        for t, v in entries.items():
            per_port.setdefault(("in", flow.src), []).append((t, fid, v))
            per_port.setdefault(("out", flow.dst), []).append((t, fid, v))
    out = []
    for (side, port), triples in sorted(per_port.items()):
        cap = (
            instance.switch.input_capacity(port)
            if side == "in"
            else instance.switch.output_capacity(port)
        )
        threshold = BLOCK * cap
        triples.sort()
        groups = []
        current: list = []
        mass = 0.0
        for t, fid, v in triples:
            current.append((fid, t))
            mass += v
            if mass >= threshold:
                groups.append((current, mass))
                current, mass = [], 0.0
        if current:
            groups.append((current, mass))
        out.append((side, port, groups))
    return out


def build_lp_ell(instance: Instance, support: Dict[int, Dict[int, float]]):
    """LP(ell), equations (9)-(12), from ``{fid: {t: value}}``."""
    lp = NamedLP()
    for fid, entries in sorted(support.items()):
        flow = instance.flows[fid]
        coeffs = {}
        for t in sorted(entries):
            name = ("b", fid, t)
            cost = (t - flow.release) / flow.demand + 0.5
            lp.add_variable(name, objective=cost)
            coeffs[name] = 1.0
        lp.add_constraint(("flow", fid), coeffs, Sense.GE, float(flow.demand))
    for side, port, groups in port_groups(instance, support):
        for a, (group_vars, size) in enumerate(groups):
            coeffs = {("b", fid, t): 1.0 for fid, t in group_vars}
            lp.add_constraint(("ivl", side, port, a), coeffs, Sense.LE, size)
    return lp


def build_time_constrained_lp(tci: TimeConstrainedInstance) -> NamedLP:
    """LP (19)-(21): assignment rows per flow, touched capacity rows."""
    inst = tci.instance
    lp = NamedLP()
    in_touch: dict = {}
    out_touch: dict = {}
    for fid, rounds in enumerate(tci.active_rounds):
        flow = inst.flows[fid]
        assign = {}
        for t in rounds:
            name = ("x", fid, t)
            lp.add_variable(name)
            assign[name] = 1.0
            in_touch.setdefault((flow.src, t), {})[name] = float(flow.demand)
            out_touch.setdefault((flow.dst, t), {})[name] = float(flow.demand)
        lp.add_constraint(("assign", fid), assign, Sense.EQ, 1.0)
    for (p, t), coeffs in sorted(in_touch.items()):
        cap = float(inst.switch.input_capacity(p))
        lp.add_constraint(("cap", "in", p, t), coeffs, Sense.LE, cap)
    for (q, t), coeffs in sorted(out_touch.items()):
        cap = float(inst.switch.output_capacity(q))
        lp.add_constraint(("cap", "out", q, t), coeffs, Sense.LE, cap)
    return lp


# ----------------------------------------------------------------------
# Rounding loops
# ----------------------------------------------------------------------


def round_time_constrained(
    tci: TimeConstrainedInstance, solve=linprog_solve
) -> RoundingResult:
    """The FS-MRT rounding loop (Theorem 3) over dict state."""
    inst = tci.instance
    n = inst.num_flows
    if n == 0:
        empty = Schedule(inst, np.zeros(0, dtype=np.int64))
        return RoundingResult(empty, True)
    slack_budget = 2 * inst.max_demand - 1
    candidates: List[List[int]] = [list(rs) for rs in tci.active_rounds]
    assigned = np.full(n, -1, dtype=np.int64)
    residual: Dict[tuple, float] = {}
    row_vars: Dict[tuple, Set[Tuple[int, int]]] = {}
    for fid, rounds in enumerate(tci.active_rounds):
        flow = inst.flows[fid]
        for t in rounds:
            for key in (("in", flow.src, t), ("out", flow.dst, t)):
                if key not in residual:
                    side, port, _ = key
                    cap = (
                        inst.switch.input_capacity(port)
                        if side == "in"
                        else inst.switch.output_capacity(port)
                    )
                    residual[key] = float(cap)
                    row_vars[key] = set()
                row_vars[key].add((fid, t))
    iterations = 0
    fallback_drops = 0

    def row_keys_of(fid, t):
        flow = inst.flows[fid]
        return ("in", flow.src, t), ("out", flow.dst, t)

    def remove_var(fid, t):
        candidates[fid].remove(t)
        for key in row_keys_of(fid, t):
            if key in row_vars:
                row_vars[key].discard((fid, t))

    def fix_flow(fid, t):
        assigned[fid] = t
        for other_t in list(candidates[fid]):
            remove_var(fid, other_t)
        for key in row_keys_of(fid, t):
            if key in residual:
                residual[key] -= inst.flows[fid].demand
                if -_TOL < residual[key] < 0:
                    residual[key] = 0.0

    def surviving(key):
        return sum(inst.flows[fid].demand for fid, _ in row_vars[key])

    while (assigned < 0).any():
        unfixed = np.flatnonzero(assigned < 0)
        lp = NamedLP()
        for fid in unfixed:
            coeffs = {}
            for t in candidates[fid]:
                lp.add_variable(("x", int(fid), t))
                coeffs[("x", int(fid), t)] = 1.0
            lp.add_constraint(("assign", int(fid)), coeffs, Sense.EQ, 1.0)
        for key in list(residual):
            coeffs = {
                ("x", fid, t): float(inst.flows[fid].demand)
                for fid, t in row_vars[key]
                if assigned[fid] < 0
            }
            if coeffs:
                lp.add_constraint(key, coeffs, Sense.LE, residual[key])
        result = solve(lp, need_vertex=True)
        iterations += 1
        if not result.is_optimal:
            if iterations == 1 and result.status is LPStatus.INFEASIBLE:
                return RoundingResult(None, False, iterations=iterations)
            raise RuntimeError(f"residual LP ended {result.status.name}")
        values = lp.values(result.x)
        progressed = False
        for fid in unfixed:
            fid = int(fid)
            xs = [(t, values[("x", fid, t)]) for t in candidates[fid]]
            one_t = next((t for t, v in xs if v >= 1 - _TOL), None)
            if one_t is not None:
                fix_flow(fid, one_t)
                progressed = True
                continue
            for t, v in xs:
                if v <= _TOL:
                    remove_var(fid, t)
                    progressed = True
        for key in [
            k for k in residual
            if surviving(k) <= residual[k] + slack_budget + _TOL
        ]:
            del residual[key]
            del row_vars[key]
            progressed = True
        if not progressed:
            fallback_drops += 1
            key = min(residual, key=lambda k: surviving(k) - residual[k])
            del residual[key]
            del row_vars[key]

    schedule = Schedule(inst, assigned)
    return RoundingResult(
        schedule,
        True,
        max_violation=schedule.max_augmentation(),
        iterations=iterations,
        fallback_drops=fallback_drops,
    )


def iterative_rounding(
    instance: Instance,
    horizon: Optional[int] = None,
    solve=linprog_solve,
) -> PseudoSchedule:
    """The FS-ART iterative rounding (Lemma 3.3) over dict supports."""
    n = instance.num_flows
    if n == 0:
        return PseudoSchedule(instance, np.zeros(0, dtype=np.int64))
    max_iterations = 2 * int(math.log2(n) + 1) + 20
    lp0 = build_interval_lp0(instance, horizon)
    res = solve(lp0, need_vertex=True)
    assert res.is_optimal, res.status
    lp0_optimum = float(res.objective)
    support: Dict[int, Dict[int, float]] = {}
    for (_, fid, t), v in lp0.values(res.x).items():
        if v > _TOL:
            support.setdefault(fid, {})[t] = v
    assignment = np.full(n, -1, dtype=np.int64)
    iterations = 1
    fallback_fixes = 0

    def fix_integral_flows():
        for fid in list(support):
            one_t = next(
                (t for t, v in support[fid].items() if v >= 1 - _TOL), None
            )
            if one_t is not None:
                assignment[fid] = one_t
                del support[fid]

    fix_integral_flows()
    while support and iterations < max_iterations:
        prev_unfixed = len(support)
        lp = build_lp_ell(instance, support)
        res = solve(lp, need_vertex=True)
        iterations += 1
        assert res.is_optimal, res.status
        support = {}
        for (_, fid, t), v in lp.values(res.x).items():
            if v > _TOL:
                support.setdefault(fid, {})[t] = v
        fix_integral_flows()
        if len(support) >= prev_unfixed:
            fid = max(support, key=lambda f: max(support[f].values()))
            assignment[fid] = max(support[fid], key=support[fid].get)
            del support[fid]
            fallback_fixes += 1
    for fid in list(support):
        assignment[fid] = max(support[fid], key=support[fid].get)
        del support[fid]
        fallback_fixes += 1
    releases = instance.releases()
    return PseudoSchedule(
        instance,
        assignment,
        lp_cost=float(((assignment - releases) + 0.5).sum()),
        lp0_optimum=lp0_optimum,
        iterations=iterations,
        fallback_fixes=fallback_fixes,
    )
