"""Certificate checkers: schedules, LP bounds, online runs, streams.

Each checker re-derives the paper's guarantees from first principles and
returns a :class:`~repro.verify.violations.VerificationReport` instead
of asserting:

* :func:`check_schedule` — per-round degree/capacity feasibility, release
  respect, demand conservation, and (optionally) consistency with a
  claimed :class:`~repro.core.metrics.ScheduleMetrics`;
* :func:`check_lp_certificate` — a :class:`~repro.api.report.SolveReport`'s
  claimed lower bounds stay below the achieved objectives (for
  augmentation-free schedules), match an independent oracle
  recomputation (:mod:`repro.lp.bounds`), and satisfy the solver's own
  theorem guarantees (FS-MRT's Theorem 3 response/augmentation caps,
  FS-ART's reported approximation ratio);
* :func:`check_online_run` — queue/arrival accounting of
  :func:`~repro.online.simulator.simulate` /
  :func:`~repro.online.simulator.simulate_stream` results;
* :func:`check_stream` — an arrival stream's builder contract
  (deterministic re-iteration, in-range ports, demands within kappa);
* :func:`check_record` — the schedule-free subset of the checks, for
  cached :class:`~repro.api.store.ResultStore` records (``to_dict``
  payloads with the schedule stripped).

Comparisons against LP-derived bounds use a relative tolerance ``rtol``
(default ``1e-6``) so LP backends' round-off never produces false
violations.  Metric *identity* checks (``avg * n == total``, claimed
metrics vs recomputed) deliberately use a near-exact ``1e-9`` instead:
they compare integer counts and exact ratios of them, where any real
drift is a bug, not round-off.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from repro.core.instance import Instance
from repro.core.metrics import ScheduleMetrics
from repro.core.schedule import Schedule
from repro.core.switch import Switch
from repro.verify.violations import VerificationReport

#: Default relative tolerance for float bound comparisons.
DEFAULT_RTOL = 1e-6

#: Bounds whose value *and* objective are exact integers (ρ* from the
#: binary search vs max response in rounds): a true inversion is >= 1,
#: so the direction check uses zero tolerance — the same choice
#: :func:`repro.verify.cross_check` and the Runner's trial-level
#: certification make — lest a relative tolerance mask off-by-one
#: inversions on long-horizon objectives.
EXACT_BOUNDS = frozenset({"rho_star"})


def bound_tolerance(value: float, rtol: float = DEFAULT_RTOL) -> float:
    """Absolute slack for comparing ``value`` against a float bound.

    Relative in the value's magnitude with a floor of ``rtol`` itself,
    so comparisons near zero keep a non-degenerate tolerance.  Shared by
    every bound check in the subsystem (and the Runner's trial-level
    certification) so the certified tolerance cannot drift per call
    site.
    """
    return rtol * max(1.0, abs(float(value)))


_tol = bound_tolerance  # module-internal shorthand


def _is_number(value: Any) -> bool:
    """A real, finite number (bools are not numbers here)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and np.isfinite(value)
    )


def _check_bounds_well_formed(
    report: "VerificationReport", bounds: Optional[Mapping[str, Any]]
) -> bool:
    """Flag non-finite / non-numeric bound values; True iff all are clean.

    The shared ``well-formed`` pass of :func:`check_lp_certificate` and
    :func:`check_record` — it always records the check (so even a
    schedule-less report certifies against *something*), and its boolean
    result gates the numeric comparisons, which would otherwise crash on
    type-corrupted input instead of reporting a Violation.
    """
    report.ran("well-formed")
    ok = True
    for name, value in (bounds or {}).items():
        if not _is_number(value):
            ok = False
            report.add(
                "malformed-bound",
                f"lower bound {name}={value!r} is not a finite number",
                bound_name=name,
            )
    return ok


def check_bound_inversion(
    report: "VerificationReport",
    code: str,
    solver: str,
    name: str,
    bound: float,
    objective: float,
    rtol: float = DEFAULT_RTOL,
) -> None:
    """Record ``code`` if the certified lower bound ``name`` exceeds an
    augmentation-free objective.

    The single definition of the inequality — shared by the per-report
    ``bound:<name>`` check (:func:`check_lp_certificate` /
    :func:`check_record`), :func:`repro.verify.cross_check`, and the
    Runner's trial-level certification — so the tolerance rule cannot
    drift across certification paths.  Bounds in :data:`EXACT_BOUNDS`
    compare exactly (an integer inversion is >= 1); everything else
    gets ``rtol`` slack for LP round-off.
    """
    if name in EXACT_BOUNDS:
        rtol = 0.0
    if bound > objective + bound_tolerance(objective, rtol):
        report.add(
            code,
            f"certified lower bound {name}={bound} exceeds {solver}'s "
            f"augmentation-free objective {objective}",
            solver=solver,
            bound_name=name,
            bound=float(bound),
            objective=float(objective),
        )


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def check_schedule(
    schedule: Schedule,
    metrics: Optional[ScheduleMetrics] = None,
    capacity_switch: Optional[Switch] = None,
    max_augmentation: Optional[int] = None,
    subject: str = "schedule",
) -> VerificationReport:
    """Certify a schedule's feasibility (and its claimed metrics).

    Checks, in order:

    * ``release`` — no flow runs before its release round;
    * ``capacity`` — per-(port, round) loads stay within the allowed
      capacities.  The allowance is, in precedence order:
      ``capacity_switch`` (validated as-is), else the instance's switch
      plus ``max_augmentation`` extra units per port, else the
      augmentation the ``metrics`` claim (``metrics.max_augmentation``),
      else zero — so a resource-augmentation schedule certifies against
      exactly the capacity excess it admits to, and nothing more;
    * ``conservation`` — scheduled demand equals the instance's total
      demand on both switch sides (every flow runs exactly once; the
      dense :class:`Schedule` representation makes the per-flow version
      structural, this cross-checks the aggregate through the load
      matrices);
    * ``metrics`` — when ``metrics`` is given, every field matches a
      recomputation from the schedule (completion times ``C_e = 1 + t``).

    Returns a report; never raises on invalid schedules.
    """
    report = VerificationReport(subject)
    inst = schedule.instance
    n = inst.num_flows

    report.ran("release")
    if n:
        releases = inst.releases()
        early = schedule.assignment < releases
        if early.any():
            for fid in np.flatnonzero(early)[:5].tolist():
                report.add(
                    "early-schedule",
                    f"flow {fid} runs at round "
                    f"{int(schedule.assignment[fid])} before its release "
                    f"{int(releases[fid])}",
                    fid=int(fid),
                    round=int(schedule.assignment[fid]),
                    release=int(releases[fid]),
                )

    allowed = 0
    if capacity_switch is not None:
        switch = capacity_switch
    else:
        switch = inst.switch
        if max_augmentation is not None:
            allowed = int(max_augmentation)
        elif metrics is not None:
            allowed = int(metrics.max_augmentation)

    report.ran("capacity")
    # The (ports x makespan) load matrices dominate the cost of this
    # checker; build them once and derive the augmentation actually
    # used (= Schedule.max_augmentation()) from them instead of letting
    # max_augmentation()/ScheduleMetrics.of() rebuild them.
    in_loads, out_loads = schedule.port_round_loads()
    in_excess = in_loads - inst.switch.input_capacities[:, None]
    out_excess = out_loads - inst.switch.output_capacities[:, None]
    used = int(max(in_excess.max(initial=0), out_excess.max(initial=0)))
    if capacity_switch is None:
        report.stats["augmentation_used"] = used
    makespan = schedule.makespan()
    report.stats["makespan"] = makespan
    for side, loads, caps in (
        ("input", in_loads, switch.input_capacities),
        ("output", out_loads, switch.output_capacities),
    ):
        over = loads > (caps[:, None] + allowed)
        if over.any():
            for p, t in np.argwhere(over)[:5].tolist():
                report.add(
                    "capacity-overload",
                    f"{side} port {p} carries {int(loads[p, t])} in round "
                    f"{t} (capacity {int(caps[p])} + allowed augmentation "
                    f"{allowed})",
                    side=side,
                    port=int(p),
                    round=int(t),
                    load=int(loads[p, t]),
                    capacity=int(caps[p]),
                    allowed_augmentation=allowed,
                )

    report.ran("conservation")
    total_demand = int(inst.demands().sum()) if n else 0
    for side, loads in (("input", in_loads), ("output", out_loads)):
        scheduled = int(loads.sum())
        if scheduled != total_demand:
            report.add(
                "demand-conservation",
                f"{side}-side scheduled demand {scheduled} != instance "
                f"total demand {total_demand}",
                side=side,
                scheduled=scheduled,
                expected=total_demand,
            )

    if metrics is not None:
        report.ran("metrics")
        from repro.core.metrics import (
            average_response_time,
            max_response_time,
            total_response_time,
        )

        # Same fields as ScheduleMetrics.of(schedule), assembled from
        # O(n) pieces plus the load-derived augmentation above — .of()
        # would rebuild the load matrices a second time.
        recomputed = ScheduleMetrics(
            num_flows=n,
            total_response=total_response_time(schedule),
            average_response=average_response_time(schedule),
            max_response=max_response_time(schedule),
            makespan=makespan,
            max_augmentation=used,
        )
        for field_name in (
            "num_flows",
            "total_response",
            "average_response",
            "max_response",
            "makespan",
            "max_augmentation",
        ):
            claimed = getattr(metrics, field_name)
            actual = getattr(recomputed, field_name)
            matches = (
                abs(claimed - actual) <= 1e-9 * max(1.0, abs(actual))
                if isinstance(actual, float)
                else claimed == actual
            )
            if not matches:
                report.add(
                    "metrics-mismatch",
                    f"claimed {field_name}={claimed} but the schedule "
                    f"yields {actual}",
                    field=field_name,
                    claimed=claimed,
                    actual=actual,
                )
    return report


# ---------------------------------------------------------------------------
# LP certificates
# ---------------------------------------------------------------------------


def _metrics_identities(
    report: VerificationReport, metrics: Mapping[str, Any]
) -> None:
    """The internal consistency of a metrics mapping (dict form)."""
    report.ran("metrics-identities")
    n = int(metrics["num_flows"])
    total = float(metrics["total_response"])
    avg = float(metrics["average_response"])
    mx = float(metrics["max_response"])
    expected_avg = (total / n) if n > 0 else 0.0
    if abs(avg - expected_avg) > 1e-9 * max(1.0, expected_avg):
        report.add(
            "metrics-identity",
            f"average_response {avg} != total_response/num_flows "
            f"{expected_avg}",
            average_response=avg,
            expected=expected_avg,
        )
    if n <= 0:
        # A flow count of zero forces every other quantity to zero — a
        # corrupted record claiming n=0 with nonzero responses must not
        # slip past the per-flow checks below (all gated on n > 0).
        if n < 0:
            report.add(
                "metrics-identity",
                f"num_flows {n} is negative",
                num_flows=n,
            )
        for field_name in ("total_response", "max_response", "makespan"):
            value = float(metrics[field_name])
            if value != 0:
                report.add(
                    "metrics-identity",
                    f"{field_name} {value} must be 0 when num_flows is 0",
                    field=field_name,
                    value=value,
                )
    if n > 0:
        # Every response time is >= 1 (C_e = t + 1 >= r_e + 1), so the
        # max is at least 1 and never exceeds the total.
        if mx < 1:
            report.add(
                "metrics-identity",
                f"max_response {mx} < 1 on a non-empty schedule",
                max_response=mx,
            )
        if mx > total + 1e-9:
            report.add(
                "metrics-identity",
                f"max_response {mx} exceeds total_response {total}",
                max_response=mx,
                total_response=total,
            )
        if total < n:
            report.add(
                "metrics-identity",
                f"total_response {total} < num_flows {n} (every flow "
                "responds in >= 1 round)",
                total_response=total,
                num_flows=n,
            )


def _bound_direction(
    report: VerificationReport,
    name: str,
    bound: float,
    objective: Optional[float],
    augmentation: int,
    solver: str,
    rtol: float,
) -> None:
    """Certify the bound/objective inequality in the correct direction.

    An augmentation-free schedule is a feasible solution of the original
    problem, so every certified lower bound must sit at or below its
    objective.  A resource-augmentation schedule (FS-ART, FS-MRT,
    Time-Constrained fallbacks) is *not* feasible for the original
    capacities, so its objective may legitimately dip below the bound;
    the theorem-specific guarantees are checked separately in
    :func:`check_lp_certificate`.
    """
    if objective is None:
        return
    report.ran(f"bound:{name}")
    if bound > 0:
        report.stats[f"ratio:{name}"] = objective / bound
    if augmentation == 0:
        check_bound_inversion(
            report, "bound-above-objective", solver, name, bound,
            objective, rtol,
        )


def _oracle_bound(name: str, instance: Instance, params: Mapping[str, Any]):
    """Independently recompute the claimed bound ``name`` for ``instance``.

    Honors the parameters that change the bound's value (the ART LP
    horizon, the MRT search cap) and computes it through
    :mod:`repro.lp.bounds`, so each call builds and solves its LP.  The
    MRT cap is checked, not trusted: a ``rho_upper`` below ρ* raises
    ``ValueError`` instead of coming back as the bound.
    """
    from repro.lp.bounds import art_lower_bound, mrt_lower_bound

    if name == "lp_total_response":
        return float(
            art_lower_bound(instance, horizon=params.get("horizon"))
        )
    if name == "rho_star":
        return float(
            mrt_lower_bound(instance, rho_upper=params.get("rho_upper"))
        )
    return None


def check_lp_certificate(
    solve_report,
    instance: Optional[Instance] = None,
    recompute: "bool | Mapping[str, float]" = True,
    rtol: float = DEFAULT_RTOL,
    subject: Optional[str] = None,
) -> VerificationReport:
    """Certify a :class:`~repro.api.report.SolveReport`'s bound claims.

    Checks:

    * ``metrics-identities`` — the metrics are internally consistent
      (``avg * n == total``, ``1 <= max <= total``);
    * ``bound:<name>`` — each claimed lower bound sits below the
      objective it bounds (augmentation-free schedules only) with the
      achieved/bound ratio reported in ``stats["ratio:<name>"]``;
    * ``oracle:<name>`` — with ``recompute=True`` and an instance in
      hand (passed explicitly or embedded in the report's schedule),
      each claimed bound matches an independent recomputation through
      :mod:`repro.lp.bounds` within ``rtol``.  ``recompute`` may instead
      map bound names to values the caller already computed through
      :mod:`repro.lp.bounds` for the report's parameters; a name it
      lacks is not checked.  ``False`` skips the check;
    * ``guarantee:<solver>`` — solver-specific theorem guarantees:
      FS-MRT's schedule responds within ρ* using at most
      ``2 d_max - 1`` extra capacity (Theorem 3); FS-ART's reported
      ``approximation_ratio`` equals ``total_response / bound``.
    """
    report = VerificationReport(
        subject or f"lp-certificate:{solve_report.solver}"
    )
    metrics = solve_report.metrics
    if metrics is not None:
        _metrics_identities(report, metrics.to_dict())
    if not _check_bounds_well_formed(report, solve_report.lower_bounds):
        # Type-corrupted bounds: the numeric comparisons below would
        # crash rather than report; the malformed-bound violations are
        # the finding.
        return report
    if instance is None and solve_report.schedule is not None:
        instance = solve_report.schedule.instance

    augmentation = int(metrics.max_augmentation) if metrics else 0
    for name, (bound, objective) in solve_report.certificates().items():
        _bound_direction(
            report, name, bound, objective, augmentation,
            solve_report.solver, rtol,
        )
        if recompute and instance is not None:
            oracle = (
                recompute.get(name)
                if isinstance(recompute, Mapping)
                else _oracle_bound(name, instance, solve_report.params)
            )
            if oracle is not None:
                report.ran(f"oracle:{name}")
                report.stats[f"oracle:{name}"] = oracle
                if abs(bound - oracle) > _tol(oracle, rtol):
                    report.add(
                        "bound-oracle-mismatch",
                        f"{solve_report.solver} claims {name}={bound} but "
                        f"the oracle recomputes {oracle}",
                        bound_name=name,
                        bound=bound,
                        oracle=oracle,
                    )

    _check_guarantees(report, solve_report, instance, rtol)
    return report


def _check_guarantees(
    report: VerificationReport, solve_report, instance, rtol: float
) -> None:
    """Solver-specific theorem guarantees (by registry name)."""
    metrics = solve_report.metrics
    extras = solve_report.extras
    if solve_report.solver == "FS-MRT" and metrics is not None:
        report.ran("guarantee:FS-MRT")
        rho = solve_report.lower_bounds.get("rho_star")
        if rho is not None and metrics.max_response > rho + _tol(rho, rtol):
            report.add(
                "theorem3-response",
                f"FS-MRT max response {metrics.max_response} exceeds its "
                f"certified rho* {rho}",
                max_response=metrics.max_response,
                rho_star=rho,
            )
        if instance is not None:
            cap = 2 * instance.max_demand - 1
            if metrics.max_augmentation > cap:
                report.add(
                    "theorem3-augmentation",
                    f"FS-MRT used {metrics.max_augmentation} extra "
                    f"capacity, above the Theorem 3 bound {cap}",
                    augmentation=metrics.max_augmentation,
                    bound=cap,
                )
    if solve_report.solver == "FS-ART" and metrics is not None:
        ratio = extras.get("approximation_ratio")
        bound = solve_report.lower_bounds.get("lp_total_response")
        if ratio is not None and bound:
            report.ran("guarantee:FS-ART")
            expected = metrics.total_response / bound
            if abs(ratio - expected) > _tol(expected, rtol):
                report.add(
                    "art-ratio-mismatch",
                    f"FS-ART reports approximation_ratio {ratio} but "
                    f"total/bound = {expected}",
                    reported=ratio,
                    expected=expected,
                )


def check_record(
    record: Mapping[str, Any],
    rtol: float = DEFAULT_RTOL,
    subject: Optional[str] = None,
) -> VerificationReport:
    """Certify a cached ``SolveReport.to_dict()`` payload (no schedule).

    The result-store strips schedules before persisting, so this is the
    replayable subset: metrics identities plus the bound/objective
    direction for augmentation-free records.  Bound pseudo-records
    (``kind == "bound"``, metrics ``None``) only need well-formed,
    finite bound values.
    """
    if not isinstance(record, Mapping):
        report = VerificationReport(subject or "record:?")
        report.ran("well-formed")
        report.add(
            "malformed-record",
            f"record payload is {type(record).__name__}, not a mapping",
        )
        return report
    report = VerificationReport(
        subject or f"record:{record.get('solver', '?')}"
    )
    metrics = record.get("metrics")
    bounds = record.get("lower_bounds") or {}
    if not isinstance(metrics, (Mapping, type(None))) or not isinstance(
        bounds, Mapping
    ):
        report.ran("well-formed")
        report.add(
            "malformed-record",
            "metrics/lower_bounds are not mappings",
        )
        return report
    bounds_ok = _check_bounds_well_formed(report, bounds)
    if metrics is None:
        # Bound pseudo-records never carry metrics, and an explicit
        # infeasibility certificate (extras["feasible"] == False) is a
        # legitimate schedule-less outcome.  Anything else is a poisoned
        # entry: run_batch refuses to serve it, so the store verifier
        # must not certify it.
        feasible = (record.get("extras") or {}).get("feasible")
        if record.get("kind") != "bound" and feasible is not False:
            report.add(
                "missing-metrics",
                f"{record.get('kind', '?')!r} record carries no metrics "
                "(poisoned store entry?)",
                kind=record.get("kind"),
            )
        return report
    required = (
        "num_flows", "total_response", "average_response",
        "max_response", "makespan", "max_augmentation",
    )
    missing = [f for f in required if f not in metrics]
    bad_types = [
        f for f in required
        if f not in missing and not _is_number(metrics[f])
    ]
    if missing or bad_types:
        # Type-corrupted metrics would crash the identity arithmetic
        # below; the malformed-metrics violation *is* the finding.
        detail = []
        if missing:
            detail.append(f"missing fields {missing}")
        if bad_types:
            detail.append(
                "non-numeric fields "
                f"{[(f, metrics[f]) for f in bad_types]}"
            )
        report.add(
            "malformed-metrics",
            f"metrics record has {' and '.join(detail)}",
            missing=missing,
            bad_types=bad_types,
        )
        return report
    _metrics_identities(report, metrics)
    if not bounds_ok:
        return report
    from repro.api.report import BOUND_TARGETS

    augmentation = int(metrics["max_augmentation"])
    for name, value in bounds.items():
        target = BOUND_TARGETS.get(name)
        if target is None:
            continue
        _bound_direction(
            report, name, float(value), float(metrics[target]),
            augmentation, str(record.get("solver", "?")), rtol,
        )
    return report


# ---------------------------------------------------------------------------
# Online runs
# ---------------------------------------------------------------------------


def _expected_queue_history(
    instance: Instance, assignment: np.ndarray, rounds: int
) -> np.ndarray:
    """Waiting-flow count at the start of each round, re-derived.

    A flow waits at round ``t`` iff it has been released (``r_e <= t``)
    and has not yet run (``a_e >= t``) — the engine appends its queue
    depth after ingesting round ``t``'s arrivals and before scheduling.
    Computed as released-so-far minus scheduled-before via two
    cumulative bincounts: O(n + rounds), so verifying a long-horizon
    run costs less than simulating it.
    """
    if rounds == 0 or instance.num_flows == 0:
        return np.zeros(rounds, dtype=np.int64)
    releases = instance.releases()
    released = np.cumsum(
        np.bincount(releases, minlength=rounds)[:rounds]
    )
    scheduled = np.cumsum(
        np.bincount(assignment, minlength=rounds)[:rounds]
    )
    scheduled_before = np.concatenate(
        (np.zeros(1, dtype=scheduled.dtype), scheduled[:-1])
    )
    return (released - scheduled_before).astype(np.int64)


def check_online_run(
    result,
    instance: Optional[Instance] = None,
    rtol: float = DEFAULT_RTOL,
    subject: Optional[str] = None,
) -> VerificationReport:
    """Certify a simulation result's queue/arrival accounting.

    Accepts a :class:`~repro.online.simulator.SimulationResult` (the
    instance comes from its schedule) or a
    :class:`~repro.online.simulator.StreamSimulationResult` (pass the
    materialized ``instance`` to enable the assignment-level checks; the
    aggregate identities are checked regardless).

    Checks:

    * ``schedule`` / ``metrics`` — the full :func:`check_schedule` pass
      when an assignment is available (online engines enforce the true
      capacities, so zero augmentation is required);
    * ``round-accounting`` — the reported round count equals the
      schedule's makespan (the engine stops exactly when the queue
      drains);
    * ``queue-accounting`` — the recorded per-round queue depths equal
      the release/assignment re-derivation at every round;
    * ``arrival-accounting`` (streams) — flows counted in equal flows
      scheduled out, and the metrics identities hold.
    """
    from repro.online.simulator import SimulationResult

    if isinstance(result, SimulationResult):
        report = VerificationReport(subject or "online-run")
        inst = result.schedule.instance
        # The online engine enforces the true capacities every round, so
        # the allowance is pinned to zero — a result whose (internally
        # consistent) metrics admit to augmentation is itself the bug.
        report.merge(
            check_schedule(
                result.schedule,
                metrics=result.metrics,
                max_augmentation=0,
                subject="schedule",
            )
        )
        if result.metrics.max_augmentation != 0:
            report.add(
                "online-augmentation",
                "online engine enforces true capacities; "
                "max_augmentation must be 0, got "
                f"{result.metrics.max_augmentation}",
                augmentation=result.metrics.max_augmentation,
            )
        report.ran("round-accounting")
        expected_rounds = result.schedule.makespan()
        if result.rounds != expected_rounds:
            report.add(
                "round-accounting",
                f"simulation reports {result.rounds} rounds but the "
                f"schedule's makespan is {expected_rounds}",
                rounds=result.rounds,
                makespan=expected_rounds,
            )
        report.ran("queue-accounting")
        history = np.asarray(result.queue_history)
        if history.shape[0] != result.rounds:
            report.add(
                "queue-accounting",
                f"queue history has {history.shape[0]} entries for "
                f"{result.rounds} rounds",
                entries=int(history.shape[0]),
                rounds=result.rounds,
            )
        else:
            expected = _expected_queue_history(
                inst, result.schedule.assignment, result.rounds
            )
            bad = np.flatnonzero(history != expected)
            for t in bad[:5].tolist():
                report.add(
                    "queue-accounting",
                    f"round {t} records {int(history[t])} waiting flows "
                    f"but releases/assignments imply {int(expected[t])}",
                    round=int(t),
                    recorded=int(history[t]),
                    expected=int(expected[t]),
                )
        return report

    # Streaming result.
    report = VerificationReport(subject or "stream-run")
    metrics = result.metrics
    _metrics_identities(report, metrics.to_dict())
    report.ran("round-accounting")
    if metrics.makespan != result.rounds:
        report.add(
            "round-accounting",
            f"stream reports {result.rounds} rounds but metrics claim "
            f"makespan {metrics.makespan}",
            rounds=result.rounds,
            makespan=metrics.makespan,
        )
    if metrics.max_augmentation != 0:
        report.add(
            "stream-augmentation",
            "streaming engine enforces true capacities; "
            f"max_augmentation must be 0, got {metrics.max_augmentation}",
            augmentation=metrics.max_augmentation,
        )
    if result.assignment is not None:
        report.ran("arrival-accounting")
        assignment = np.asarray(result.assignment)
        if assignment.shape[0] != metrics.num_flows:
            report.add(
                "arrival-accounting",
                f"assignment covers {assignment.shape[0]} flows but "
                f"{metrics.num_flows} arrived",
                assigned=int(assignment.shape[0]),
                arrived=metrics.num_flows,
            )
        elif (assignment < 0).any():
            unscheduled = int((assignment < 0).sum())
            report.add(
                "arrival-accounting",
                f"{unscheduled} arrived flow(s) were never scheduled",
                unscheduled=unscheduled,
            )
        elif instance is not None and (
            instance.num_flows != assignment.shape[0]
        ):
            # A wrong materialization (different prefix, different
            # seed) is a caller mistake the checker must *report*, not
            # crash on inside the Schedule constructor.
            report.add(
                "instance-mismatch",
                f"materialized instance has {instance.num_flows} flows "
                f"but the stream scheduled {assignment.shape[0]}",
                instance_flows=instance.num_flows,
                stream_flows=int(assignment.shape[0]),
            )
        elif instance is not None:
            schedule = Schedule(instance, assignment)
            report.merge(
                check_schedule(
                    schedule,
                    metrics=metrics,
                    max_augmentation=0,
                    subject="schedule",
                )
            )
            if result.queue_history is not None:
                report.ran("queue-accounting")
                history = np.asarray(result.queue_history)
                expected = _expected_queue_history(
                    instance, assignment, result.rounds
                )
                if history.shape[0] != expected.shape[0] or (
                    history != expected
                ).any():
                    report.add(
                        "queue-accounting",
                        "stream queue history disagrees with the "
                        "release/assignment re-derivation",
                        entries=int(history.shape[0]),
                        rounds=result.rounds,
                    )
    return report


# ---------------------------------------------------------------------------
# Arrival streams
# ---------------------------------------------------------------------------


def check_stream(
    stream,
    rounds: Optional[int] = None,
    subject: Optional[str] = None,
) -> VerificationReport:
    """Certify an arrival stream's builder contract on a bounded prefix.

    Checks:

    * ``determinism`` — two independent iterations of the same prefix
      produce byte-identical batches
      (:meth:`~repro.scenarios.stream.ArrivalStream.prefix_digest`; the
      second digest is accumulated during the validity pass, so the
      whole certification costs exactly two prefix generations);
    * ``batch-validity`` — every batch stays within the stream's switch
      (ports in range, demands ``1 <= d_e <= kappa_e``), mirroring the
      validation :meth:`Instance.create` applies to materialized flows.

    ``rounds`` defaults to the stream's own bound; an unbounded stream
    requires it.
    """
    from itertools import islice

    from repro.scenarios.stream import hash_batch, prefix_hasher

    report = VerificationReport(subject or f"stream:{stream.label}")
    if rounds is None:
        rounds = stream.rounds
    if rounds is None:
        report.add(
            "unbounded-stream",
            f"stream {stream.label!r} is unbounded; pass rounds= to "
            "certify a prefix",
        )
        return report

    first = stream.prefix_digest(rounds)
    report.stats["prefix_digest"] = first

    report.ran("batch-validity")
    switch = stream.switch
    hasher = prefix_hasher(switch)
    for t, (srcs, dsts, demands) in enumerate(islice(iter(stream), rounds)):
        hash_batch(hasher, (srcs, dsts, demands))
        if srcs.size == 0:
            continue
        ports_ok = True
        if int(srcs.min()) < 0 or int(srcs.max()) >= switch.num_inputs:
            ports_ok = False
            report.add(
                "batch-port-range",
                f"round {t}: src port out of range for "
                f"{switch.num_inputs} inputs",
                round=t,
            )
        if int(dsts.min()) < 0 or int(dsts.max()) >= switch.num_outputs:
            ports_ok = False
            report.add(
                "batch-port-range",
                f"round {t}: dst port out of range for "
                f"{switch.num_outputs} outputs",
                round=t,
            )
        if not ports_ok:
            continue
        if int(demands.min()) < 1:
            report.add(
                "batch-demand",
                f"round {t}: demands must be >= 1",
                round=t,
            )
            continue
        kappa = np.minimum(
            switch.input_capacities[srcs], switch.output_capacities[dsts]
        )
        if (demands > kappa).any():
            i = int(np.flatnonzero(demands > kappa)[0])
            report.add(
                "batch-demand",
                f"round {t}: demand {int(demands[i])} exceeds kappa "
                f"{int(kappa[i])}",
                round=t,
                demand=int(demands[i]),
                kappa=int(kappa[i]),
            )

    report.ran("determinism")
    second = hasher.hexdigest()
    if first != second:
        report.add(
            "nondeterministic-stream",
            f"two iterations of {stream.label!r} produced different "
            f"prefixes ({first[:12]} vs {second[:12]}); builders must "
            "derive all RNG state from the seed",
            first=first,
            second=second,
        )
    return report
