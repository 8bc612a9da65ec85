"""Schedule-certificate subsystem: runtime verification of the paper's
guarantees.

The paper's value is *provable* — rounded schedules are feasible, and
FS-ART / FS-MRT stay within certified factors of the LP (1)-(4) /
(19)-(21) lower bounds.  This package turns those proofs into runtime
infrastructure with three layers:

* **checkers** (:mod:`repro.verify.checkers`) — re-derive feasibility,
  metric consistency, LP certificates, online queue accounting, and
  stream determinism from first principles, reporting structured
  :class:`Violation` lists instead of asserting;
* **differential oracles** (:mod:`repro.verify.differential`) —
  :func:`cross_check` certifies any set of registered solvers against
  each other and the oracle bounds on one instance;
  :func:`metamorphic_check` certifies invariance under
  semantics-preserving transforms (port relabeling, joint
  demand/capacity scaling, flow reordering);
* **wiring** — ``Runner(verify=True)`` certifies every sweep trial, the
  ``python -m repro verify`` CLI replays cached reports / stores /
  scenarios through the checkers, ``simulate(..., verify=True)``
  self-checks the online engine, and ``tests/verify_harness.py``
  exposes ``certify`` pytest fixtures so new suites get certification
  for free.

Quick start
-----------
>>> from repro.verify import certify, cross_check
>>> from repro.workloads import poisson_uniform_workload
>>> inst = poisson_uniform_workload(6, 4.0, 4, seed=0)
>>> cross_check(inst, solvers=["Greedy"]).ok
True
>>> from repro.api import get_solver
>>> certify(get_solver("MaxWeight").solve(inst)).ok
True
"""

from __future__ import annotations

from typing import Any, Optional

from repro.verify.checkers import (
    DEFAULT_RTOL,
    bound_tolerance,
    check_bound_inversion,
    check_lp_certificate,
    check_online_run,
    check_record,
    check_schedule,
    check_stream,
)
from repro.verify.differential import (
    CrossCheckResult,
    cross_check,
    metamorphic_check,
    metamorphic_transforms,
    relabel_ports,
    scale_demands,
    shuffle_flows,
)
from repro.verify.violations import (
    VerificationError,
    VerificationReport,
    Violation,
    merge_reports,
)


def certify_solve(solve_report, instance, subject: str = ""):
    """Full fresh-solve certification: schedule feasibility + certificate.

    The exact pass a ``Runner(verify=True)`` sweep applies to a freshly
    computed report while its schedule is still in hand — schedule
    release/capacity/conservation/metrics checks merged with the
    LP-certificate bound checks (``recompute=False``: the claimed
    bounds are certified against the achieved objectives, not re-solved).
    Shared by :func:`repro.api.runner.run_batch` and the solve service's
    workers (:mod:`repro.service.worker`) so both certify identically.
    Returns the merged :class:`VerificationReport`; callers decide
    whether to ``raise_if_failed``.
    """
    verification = check_schedule(
        solve_report.schedule,
        metrics=solve_report.metrics,
        subject=subject or f"solve:{solve_report.solver}",
    )
    verification.merge(
        check_lp_certificate(
            solve_report,
            instance=instance,
            recompute=False,
            subject="certificate",
        )
    )
    return verification


def certify(obj: Any, instance: Optional[Any] = None, **kwargs):
    """Certify any supported object, dispatching to the right checker.

    Accepts a :class:`~repro.core.schedule.Schedule`, a
    :class:`~repro.api.report.SolveReport`, a
    :class:`~repro.online.simulator.SimulationResult` /
    :class:`~repro.online.simulator.StreamSimulationResult`, an
    :class:`~repro.scenarios.stream.ArrivalStream`, an
    :class:`~repro.core.instance.Instance` (runs :func:`cross_check`),
    or a plain ``dict`` (treated as a cached report record).  Returns
    the resulting :class:`VerificationReport`; extra keyword arguments
    are forwarded to the underlying checker.
    """
    from repro.api.report import SolveReport
    from repro.core.instance import Instance
    from repro.core.schedule import Schedule
    from repro.online.simulator import (
        SimulationResult,
        StreamSimulationResult,
    )
    from repro.scenarios.stream import ArrivalStream

    if isinstance(obj, Schedule):
        return check_schedule(obj, **kwargs)
    if isinstance(obj, SolveReport):
        report = check_lp_certificate(obj, instance=instance, **kwargs)
        if obj.schedule is not None:
            report.merge(
                check_schedule(
                    obj.schedule, metrics=obj.metrics, subject="schedule"
                )
            )
        return report
    if isinstance(obj, (SimulationResult, StreamSimulationResult)):
        return check_online_run(obj, instance=instance, **kwargs)
    if isinstance(obj, ArrivalStream):
        return check_stream(obj, **kwargs)
    if isinstance(obj, Instance):
        return cross_check(obj, **kwargs).verification
    if isinstance(obj, dict):
        return check_record(obj, **kwargs)
    raise TypeError(
        f"don't know how to certify a {type(obj).__name__}; pass a "
        "Schedule, SolveReport, SimulationResult, StreamSimulationResult, "
        "ArrivalStream, Instance, or report-record dict"
    )


__all__ = [
    "Violation",
    "VerificationReport",
    "VerificationError",
    "merge_reports",
    "DEFAULT_RTOL",
    "bound_tolerance",
    "check_bound_inversion",
    "check_schedule",
    "check_lp_certificate",
    "check_online_run",
    "check_record",
    "check_stream",
    "certify",
    "certify_solve",
    "cross_check",
    "CrossCheckResult",
    "metamorphic_check",
    "metamorphic_transforms",
    "relabel_ports",
    "scale_demands",
    "shuffle_flows",
]
