"""Built-in solver adapters: the whole library behind one protocol.

Each adapter wraps an existing algorithm entry point — ``solve_art``,
``solve_mrt``, ``schedule_time_constrained``, ``greedy_earliest_fit``,
``run_amrt``, the online policies, and the co-flow policies — behind
``solve(instance, **params) -> SolveReport``.  The wrapped functions
remain importable and unchanged; the adapters only translate their rich
result objects into the uniform report schema and record wall-clock
timings.

Registered names (see ``python -m repro list-solvers``):

========================  =======  ==========================================
name                      kind     wraps
========================  =======  ==========================================
``FS-ART``                offline  :func:`repro.art.algorithm.solve_art`
``FS-MRT``                offline  :func:`repro.mrt.algorithm.solve_mrt`
``TimeConstrained``       offline  :func:`repro.mrt.algorithm.schedule_time_constrained`
``Greedy``                offline  :func:`repro.core.greedy.greedy_earliest_fit`
``AMRT``                  online   :func:`repro.online.amrt.run_amrt`
``MaxCard`` et al.        online   :func:`repro.online.policies.make_policy`
``SEBF`` / ``CoflowFIFO`` coflow   :func:`repro.coflow.policies.make_coflow_policy`
========================  =======  ==========================================
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict
from typing import Any, Callable, Optional, Sequence

from repro.api.report import SolveReport
from repro.api.registry import register_solver
from repro.coflow.model import CoflowInstance
from repro.coflow.policies import COFLOW_POLICY_REGISTRY, make_coflow_policy
from repro.coflow.simulator import simulate_coflows
from repro.core.greedy import greedy_earliest_fit
from repro.core.instance import Instance
from repro.core.metrics import ScheduleMetrics
from repro.online.policies import POLICY_REGISTRY, make_policy
from repro.online.simulator import simulate
from repro.mrt.time_constrained import (
    TimeConstrainedInstance,
    from_deadlines,
    from_response_bound,
)
from repro.utils.timing import Timer


def _first_doc_line(obj: Any) -> str:
    doc = (getattr(obj, "__doc__", None) or "").strip()
    return doc.splitlines()[0] if doc else ""


def _timed(run: Callable[[], Any]):
    """Call ``run()`` under a fresh active :class:`Timer`; return its
    result and timings: the phases it recorded plus the ``total``."""
    timer = Timer()
    start = time.perf_counter()
    with timer.recording():
        result = run()
    timings = dict(timer.totals)
    timings["total"] = time.perf_counter() - start
    return result, timings


class SolverAdapter:
    """Base class for the built-in adapters.

    Subclasses implement ``_solve``; the base runs it under the report's
    own :class:`Timer`, so ``timings`` holds every phase the run
    recorded plus the ``total``.
    """

    name: str = "abstract"
    kind: str = "offline"

    @property
    def summary(self) -> str:
        """One-line description shown by ``list-solvers``."""
        return _first_doc_line(type(self))

    def solve(self, instance: Any, **params: Any) -> SolveReport:
        """Run the wrapped algorithm and return a uniform report."""
        report, timings = _timed(lambda: self._solve(instance, **params))
        report.timings = timings
        return report

    def solve_batch(
        self, instances: Sequence[Any], **params: Any
    ) -> "list[SolveReport]":
        """Solve a trial batch, one report per instance (input order).

        The default is a per-instance loop; adapters with a vectorized
        trial axis (:class:`PolicySolver`) override it with a merged
        run.  Either way each report's stored form is the same as a solo
        :meth:`solve` — wall-clock ``timings`` (stripped on store) are
        the only always-divergent field.
        """
        return [self.solve(instance, **params) for instance in instances]

    def _solve(self, instance: Any, **params: Any) -> SolveReport:
        raise NotImplementedError


@register_solver("FS-ART")
class ARTSolver(SolverAdapter):
    """Theorem 1 offline pipeline for average response time (unit demands)."""

    name = "FS-ART"
    kind = "offline"
    #: Theorem 1's pipeline implements the unit-demand case; harnesses
    #: that sweep solvers over arbitrary instances (e.g.
    #: :func:`repro.verify.cross_check` defaults) consult this flag.
    requires_unit_demands = True

    def _solve(
        self,
        instance: Instance,
        c: int = 1,
        window: Optional[int] = None,
        horizon: Optional[int] = None,
        compute_lower_bound: bool = True,
    ) -> SolveReport:
        from repro.art.algorithm import solve_art

        res = solve_art(
            instance,
            c=c,
            window=window,
            horizon=horizon,
            compute_lower_bound=compute_lower_bound,
        )
        lower = {}
        if res.lower_bound is not None:
            lower["lp_total_response"] = float(res.lower_bound)
        return SolveReport(
            solver=self.name,
            kind=self.kind,
            metrics=ScheduleMetrics.of(res.schedule),
            schedule=res.schedule,
            lower_bounds=lower,
            params={
                "c": c,
                "window": window,
                "horizon": horizon,
                "compute_lower_bound": compute_lower_bound,
            },
            extras={
                "window": res.conversion.window,
                "capacity_factor": res.conversion.capacity_factor,
                "max_delta": res.conversion.max_delta,
                "extra_delay": res.conversion.extra_delay,
                "rounding_iterations": res.pseudo.iterations,
                "approximation_ratio": res.approximation_ratio,
            },
        )


@register_solver("FS-MRT")
class MRTSolver(SolverAdapter):
    """Theorem 3 offline solver for maximum response time."""

    name = "FS-MRT"
    kind = "offline"

    def _solve(
        self, instance: Instance, rho_upper: Optional[int] = None
    ) -> SolveReport:
        from repro.mrt.algorithm import solve_mrt

        res = solve_mrt(instance, rho_upper=rho_upper)
        return SolveReport(
            solver=self.name,
            kind=self.kind,
            metrics=ScheduleMetrics.of(res.schedule),
            schedule=res.schedule,
            lower_bounds={"rho_star": float(res.rho)},
            params={"rho_upper": rho_upper},
            extras={
                "rho": res.rho,
                "max_violation": res.max_violation,
                "lp_solves": res.lp_solves,
                "rounding_iterations": res.rounding_iterations,
                "fallback_drops": res.fallback_drops,
            },
        )


@register_solver("TimeConstrained")
class TimeConstrainedSolver(SolverAdapter):
    """Section 4.2 Time-Constrained solver (response bound or deadlines).

    Accepts either a :class:`TimeConstrainedInstance` directly, or a
    plain :class:`Instance` plus at most one of ``rho`` (max-response
    bound) / ``deadlines`` (per-flow last admissible round); with
    neither, ``rho`` defaults to the instance's
    :meth:`~repro.core.instance.Instance.horizon_bound` — a response
    bound some schedule always meets, so the default configuration is
    feasible on every instance (which lets differential harnesses such
    as :func:`repro.verify.cross_check` run this solver unparameterized
    alongside the other offline pipelines).  An infeasible instance
    yields a report with ``schedule=None`` and
    ``extras["feasible"] = False`` rather than an exception — fractional
    infeasibility is a *certificate* that no schedule exists.
    """

    name = "TimeConstrained"
    kind = "offline"

    def _solve(
        self,
        instance,
        rho: Optional[int] = None,
        deadlines: Optional[Sequence[int]] = None,
    ) -> SolveReport:
        from repro.mrt.algorithm import schedule_time_constrained

        if isinstance(instance, TimeConstrainedInstance):
            if rho is not None or deadlines is not None:
                raise ValueError(
                    "rho / deadlines apply only to a plain Instance; a "
                    "TimeConstrainedInstance already carries its deadlines"
                )
            tci = instance
        elif rho is not None and deadlines is not None:
            raise ValueError("pass at most one of rho / deadlines")
        elif rho is not None:
            tci = from_response_bound(instance, rho)
        elif deadlines is not None:
            tci = from_deadlines(instance, deadlines)
        else:
            # Always-feasible default: one flow per round after the last
            # release fits within horizon_bound(), so a response bound of
            # that size admits a schedule on any instance.
            rho = instance.horizon_bound()
            tci = from_response_bound(instance, rho)
        res = schedule_time_constrained(tci)
        params = {}
        if rho is not None:
            params["rho"] = int(rho)
        if deadlines is not None:
            params["deadlines"] = [int(d) for d in deadlines]
        return SolveReport(
            solver=self.name,
            kind=self.kind,
            metrics=(
                ScheduleMetrics.of(res.schedule)
                if res.schedule is not None
                else None
            ),
            schedule=res.schedule,
            params=params,
            extras={
                "feasible": res.feasible,
                "max_violation": res.max_violation,
                "iterations": res.iterations,
                "fallback_drops": res.fallback_drops,
            },
        )


@register_solver("Greedy")
class GreedySolver(SolverAdapter):
    """Greedy earliest-fit list scheduling (offline FIFO baseline)."""

    name = "Greedy"
    kind = "offline"

    def _solve(self, instance: Instance) -> SolveReport:
        schedule = greedy_earliest_fit(instance)
        return SolveReport(
            solver=self.name,
            kind=self.kind,
            metrics=ScheduleMetrics.of(schedule),
            schedule=schedule,
        )


@register_solver("AMRT")
class AMRTSolver(SolverAdapter):
    """Lemma 5.3 online batching algorithm (LP subroutine per batch)."""

    name = "AMRT"
    kind = "online"

    def _solve(
        self,
        instance: Instance,
        initial_rho: int = 1,
        max_rho: Optional[int] = None,
    ) -> SolveReport:
        from repro.online.amrt import run_amrt

        res = run_amrt(instance, initial_rho=initial_rho, max_rho=max_rho)
        return SolveReport(
            solver=self.name,
            kind=self.kind,
            metrics=res.metrics,
            schedule=res.schedule,
            params={"initial_rho": initial_rho, "max_rho": max_rho},
            extras={
                "final_rho": res.final_rho,
                "max_port_usage": res.max_port_usage,
                "batches": res.batches,
            },
        )


class PolicySolver(SolverAdapter):
    """Adapter running one online heuristic through the simulator."""

    kind = "online"

    def __init__(self, policy_name: str):
        self.name = policy_name

    @property
    def summary(self) -> str:
        return _first_doc_line(POLICY_REGISTRY[self.name])

    def _solve(
        self, instance: Instance, max_rounds: Optional[int] = None
    ) -> SolveReport:
        sim = simulate(instance, make_policy(self.name), max_rounds=max_rounds)
        return self._report(sim, {}, max_rounds)

    def solve_batch(
        self, instances: Sequence[Instance], max_rounds: Optional[int] = None
    ) -> "list[SolveReport]":
        """Simulate a trial batch through the merged structure-of-arrays
        engine (:func:`repro.online.batch.simulate_batch`).

        Each returned report is byte-identical to its solo
        :meth:`solve` — schedule, metrics, ``rounds``, ``peak_queue``,
        and ``sim_stats`` (the trials-axis batched Hopcroft–Karp
        attributes ``bfs_phases``/``augmentations``/``warm_start_seeds``
        per trial exactly) — except that ``timings`` cover the merged
        run (stripped on store).
        """
        from repro.online.batch import simulate_batch

        sims, timings = _timed(
            lambda: simulate_batch(
                instances,
                [make_policy(self.name) for _ in instances],
                max_rounds=max_rounds,
            )
        )
        return [self._report(sim, dict(timings), max_rounds) for sim in sims]

    def _report(self, sim, timings, max_rounds) -> SolveReport:
        return SolveReport(
            solver=self.name,
            kind=self.kind,
            metrics=sim.metrics,
            schedule=sim.schedule,
            timings=timings,
            params={"max_rounds": max_rounds},
            extras={
                "rounds": sim.rounds,
                "peak_queue": (
                    int(sim.queue_history.max())
                    if sim.queue_history.size
                    else 0
                ),
                "sim_stats": {k: int(v) for k, v in sim.stats.items()},
            },
        )


class CoflowPolicySolver(SolverAdapter):
    """Adapter running one co-flow discipline over a CoflowInstance."""

    kind = "coflow"

    def __init__(self, policy_name: str):
        self.name = policy_name

    @property
    def summary(self) -> str:
        return _first_doc_line(COFLOW_POLICY_REGISTRY[self.name])

    def _solve(self, instance: CoflowInstance) -> SolveReport:
        if not isinstance(instance, CoflowInstance):
            raise TypeError(
                f"coflow solver {self.name!r} needs a CoflowInstance, "
                f"got {type(instance).__name__}"
            )
        res = simulate_coflows(
            instance, make_coflow_policy(self.name, instance)
        )
        return SolveReport(
            solver=self.name,
            kind=self.kind,
            metrics=res.flow_metrics,
            schedule=res.schedule,
            extras={
                "coflow_metrics": asdict(res.coflow_metrics),
                "sim_stats": {k: int(v) for k, v in res.stats.items()},
            },
        )


for _policy in sorted(POLICY_REGISTRY):
    register_solver(_policy, functools.partial(PolicySolver, _policy))

for _policy in sorted(COFLOW_POLICY_REGISTRY):
    register_solver(_policy, functools.partial(CoflowPolicySolver, _policy))
