"""The common result type of every solver: :class:`SolveReport`.

Every algorithm in the library — offline approximation pipelines, online
heuristics, co-flow disciplines — historically returned its own result
shape (``ARTResult``, ``MRTResult``, ``SimulationResult``, ...).  The
unified API keeps those rich results available through the underlying
functions but reports through one schema, so harnesses, CLIs, and
benchmarks can treat solvers interchangeably.

A report is JSON round-trippable: :meth:`SolveReport.to_dict` embeds the
instance alongside the assignment so :meth:`SolveReport.from_dict` can
rebuild the :class:`~repro.core.schedule.Schedule` without any side
channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

import numpy as np

from repro.core.instance import Instance
from repro.core.metrics import ScheduleMetrics
from repro.core.schedule import Schedule

#: Certified lower-bound names -> the :class:`ScheduleMetrics` field they
#: bound.  ``lp_total_response`` is the LP (1)-(4) bound on the FS-ART
#: objective; ``rho_star`` is the binary-searched LP (19)-(21) bound on
#: the FS-MRT objective.  The verification subsystem
#: (:mod:`repro.verify`) uses this mapping to pair each claimed bound
#: with the objective it must stay below.
BOUND_TARGETS: Dict[str, str] = {
    "lp_total_response": "total_response",
    "rho_star": "max_response",
}


@dataclass
class SolveReport:
    """Uniform outcome of ``Solver.solve``.

    Attributes
    ----------
    solver:
        Registry name of the solver that produced the report.
    kind:
        Solver family: ``"offline"``, ``"online"``, or ``"coflow"``.
    metrics:
        Response-time summary of the schedule (``None`` only when the
        solver proved the instance infeasible and produced no schedule).
    schedule:
        The schedule itself (``None`` on infeasibility).
    lower_bounds:
        Named certified lower bounds, e.g. ``{"lp_total_response": 41.5}``
        for FS-ART or ``{"rho_star": 3.0}`` for FS-MRT.  Empty when the
        solver computes none.
    timings:
        Named wall-clock phase timings in seconds.
    params:
        The solve parameters actually used (JSON-serializable values).
    extras:
        Solver-specific diagnostics (JSON-serializable values): LP solve
        counts, conversion windows, co-flow metrics, ...
    """

    solver: str
    kind: str
    metrics: Optional[ScheduleMetrics]
    schedule: Optional[Schedule] = field(default=None, repr=False)
    lower_bounds: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        """Whether the solver produced a schedule."""
        return self.schedule is not None

    def certificates(self) -> Dict[str, tuple]:
        """Claimed bounds paired with their achieved objectives.

        Returns ``{bound_name: (bound_value, objective_value)}`` for
        every lower bound whose target objective is known (see
        :data:`BOUND_TARGETS`); ``objective_value`` is ``None`` when the
        report carries no metrics.  This is the raw material of
        :func:`repro.verify.check_lp_certificate`.
        """
        out: Dict[str, tuple] = {}
        for name, value in self.lower_bounds.items():
            target = BOUND_TARGETS.get(name)
            if target is None or isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                # Non-numeric bound values (a corrupted/hand-edited
                # report) are not certificates; the verify layer flags
                # them as malformed rather than crashing here.
                continue
            objective = (
                float(getattr(self.metrics, target))
                if self.metrics is not None
                else None
            )
            out[name] = (float(value), objective)
        return out

    def to_stored_dict(self) -> dict:
        """The :meth:`to_dict` payload as persisted by the result store.

        Strips the two fields the store never keeps: wall-clock
        ``timings`` (the one nondeterministic field — stripping keeps
        the store content-deterministic) and the ``schedule`` (it embeds
        a full instance copy that sweeps and the solve service never
        read back).  Shared by :func:`repro.api.runner.run_batch` and
        the service workers so a record written by either is
        byte-identical for the same work.
        """
        return replace(self, schedule=None, timings={}).to_dict()

    def to_dict(self) -> dict:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return {
            "solver": self.solver,
            "kind": self.kind,
            "metrics": self.metrics.to_dict() if self.metrics else None,
            "schedule": (
                {
                    "instance": self.schedule.instance.to_dict(),
                    "assignment": self.schedule.assignment.tolist(),
                }
                if self.schedule is not None
                else None
            ),
            "lower_bounds": dict(self.lower_bounds),
            "timings": dict(self.timings),
            "params": dict(self.params),
            "extras": dict(self.extras),
        }

    @staticmethod
    def from_dict(data: dict) -> "SolveReport":
        """Rebuild a report (and its schedule) from :meth:`to_dict` output."""
        schedule = None
        if data.get("schedule") is not None:
            instance = Instance.from_dict(data["schedule"]["instance"])
            schedule = Schedule(
                instance,
                np.asarray(data["schedule"]["assignment"], dtype=np.int64),
            )
        metrics = (
            ScheduleMetrics.from_dict(data["metrics"])
            if data.get("metrics") is not None
            else None
        )
        return SolveReport(
            solver=data["solver"],
            kind=data["kind"],
            metrics=metrics,
            schedule=schedule,
            lower_bounds=dict(data.get("lower_bounds", {})),
            timings=dict(data.get("timings", {})),
            params=dict(data.get("params", {})),
            extras=dict(data.get("extras", {})),
        )
