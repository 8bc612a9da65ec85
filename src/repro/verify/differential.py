"""Differential oracles: cross-solver and metamorphic certification.

Two harnesses sit on top of the single-report checkers:

* :func:`cross_check` runs any set of registered solvers on one
  instance, certifies each report individually (schedule feasibility +
  LP certificates), and then certifies *mutual* bound consistency: the
  oracle LP bounds (:mod:`repro.lp.bounds`) must sit at or below every
  augmentation-free solver's objective — if any solver beats a bound,
  either the solver cheats or the bound is wrong, and the report says
  which instance exhibits it.

* :func:`metamorphic_check` applies semantics-preserving instance
  transforms — port relabeling, joint demand/capacity scaling, flow
  reordering — and certifies that the LP lower bounds are invariant
  (they are functions of the instance's structure only) and that every
  solver still produces a certifiable schedule on the transformed
  instance.  Solver *objectives* may legitimately move under a
  transform (tie-breaks see different fids/port ids), so only the
  provable invariants are asserted.

Both return structured results; nothing in this module asserts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from repro.verify.checkers import (
    DEFAULT_RTOL,
    bound_tolerance as _tol,
    check_lp_certificate,
    check_schedule,
)
from repro.verify.violations import VerificationReport


def _short(digest: str) -> str:
    return digest[:12]


def _resolve(name: str):
    """Instantiate a registered solver; unknown names raise (fail fast,
    mirroring :class:`repro.api.runner.Runner` — a typo is a caller bug,
    not a certification finding)."""
    from repro.api.registry import get_solver

    return get_solver(name)


def _applicable(solver, instance: Instance) -> bool:
    """Whether ``solver`` declares itself runnable on ``instance``.

    Solvers with documented preconditions advertise them as attributes
    (``requires_unit_demands`` on FS-ART); default solver sweeps skip
    instances outside a precondition instead of reporting a false
    ``solver-error``.
    """
    if getattr(solver, "requires_unit_demands", False):
        return instance.is_unit_demand
    return True


@dataclass
class CrossCheckResult:
    """Outcome of :func:`cross_check`.

    Attributes
    ----------
    instance_digest:
        Canonical digest of the certified instance.
    reports:
        ``{solver_name: SolveReport}`` for every solver that ran.
    bounds:
        The oracle LP bounds shared by the consistency checks
        (``art_total`` / ``mrt_rho``; empty with ``compute_bounds=False``).
    verification:
        The merged certification report (individual + mutual checks).
    """

    instance_digest: str
    reports: Dict[str, Any] = field(default_factory=dict)
    bounds: Dict[str, float] = field(default_factory=dict)
    verification: VerificationReport = field(
        default_factory=lambda: VerificationReport("cross-check")
    )

    @property
    def ok(self) -> bool:
        return self.verification.ok

    def raise_if_failed(self) -> "CrossCheckResult":
        self.verification.raise_if_failed()
        return self


def cross_check(
    instance: Instance,
    solvers: Optional[Sequence[str]] = None,
    params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    compute_bounds: bool = True,
    rtol: float = DEFAULT_RTOL,
) -> CrossCheckResult:
    """Run ``solvers`` on one instance and certify mutual consistency.

    Parameters
    ----------
    instance:
        The instance to certify on.
    solvers:
        Registry names; defaults to every registered *offline* solver.
    params:
        Optional per-solver solve parameters, ``{name: {key: value}}``.
    compute_bounds:
        Also compute the oracle LP bounds (:mod:`repro.lp.bounds`), once,
        before the solvers run: they check the LP certificate of every
        solver run without parameters, and every augmentation-free
        objective must sit at or above them.
    rtol:
        Relative tolerance for float bound comparisons.

    A solver that raises contributes a ``solver-error`` violation
    instead of aborting the sweep over the remaining solvers.  With the
    default solver list, solvers whose declared preconditions the
    instance does not meet (FS-ART on non-unit demands) are skipped; an
    explicitly passed solver is always run — asking for it asserts the
    precondition holds.
    """
    from repro.api.registry import list_solvers

    defaulted = solvers is None
    if solvers is None:
        solvers = list_solvers("offline")
    if not solvers:
        # An empty list would "certify" zero solvers — the silent no-op
        # certification this subsystem exists to prevent.
        raise ValueError("cross_check needs at least one solver")
    params = params or {}
    digest = instance.digest()
    result = CrossCheckResult(
        instance_digest=digest,
        verification=VerificationReport(f"cross-check:{_short(digest)}"),
    )
    verification = result.verification

    resolved = {name: _resolve(name) for name in solvers}
    if defaulted:
        solvers = [n for n in solvers if _applicable(resolved[n], instance)]
    oracle: Dict[str, float] = {}
    if compute_bounds:
        from repro.lp.bounds import art_lower_bound, mrt_lower_bound

        oracle = {
            "lp_total_response": float(art_lower_bound(instance)),
            "rho_star": float(mrt_lower_bound(instance)),
        }
    for name in solvers:
        verification.ran(f"solver:{name}")
        try:
            report = resolved[name].solve(instance, **dict(params.get(name, {})))
        except Exception as exc:  # solver bug: certify the rest anyway
            verification.add(
                "solver-error",
                f"{name} raised {type(exc).__name__}: {exc}",
                solver=name,
                error=type(exc).__name__,
            )
            continue
        result.reports[name] = report
        if report.schedule is None:
            verification.add(
                "infeasible-report",
                f"{name} produced no schedule on a feasible instance",
                solver=name,
            )
            continue
        verification.merge(
            check_schedule(
                report.schedule,
                metrics=report.metrics,
                subject=f"{name}/schedule",
            )
        )
        verification.merge(
            check_lp_certificate(
                report,
                instance=instance,
                # Parameters may change a bound (FS-ART's horizon, FS-MRT's
                # cap), so the checker computes the bounds for them.
                recompute=(
                    True if compute_bounds and params.get(name) else oracle
                ),
                rtol=rtol,
                subject=f"{name}/certificate",
            )
        )

    if compute_bounds and instance.num_flows:
        art_lb, mrt_lb = oracle["lp_total_response"], oracle["rho_star"]
        result.bounds = {"art_total": art_lb, "mrt_rho": mrt_lb}
        verification.stats["art_total_bound"] = art_lb
        verification.stats["mrt_rho_bound"] = mrt_lb
        verification.ran("mutual-bounds")
        from repro.verify.checkers import check_bound_inversion

        for name, report in result.reports.items():
            metrics = report.metrics
            if metrics is None or metrics.max_augmentation != 0:
                continue  # augmented schedules may beat the bounds
            check_bound_inversion(
                verification, "cross-bound-total", name,
                "lp_total_response", art_lb, metrics.total_response,
                rtol=rtol,
            )
            check_bound_inversion(
                verification, "cross-bound-max", name,
                "rho_star", mrt_lb, metrics.max_response,
            )
    return result


# ---------------------------------------------------------------------------
# Metamorphic transforms
# ---------------------------------------------------------------------------


def relabel_ports(instance: Instance, seed: int = 0) -> Instance:
    """Permute input and output port identities (capacities follow).

    The bipartite structure is preserved up to isomorphism, so every
    instance-level quantity that ignores port *names* — both LP bounds,
    exact optima, feasibility — is invariant.
    """
    rng = random.Random(f"relabel:{seed}")
    switch = instance.switch
    in_perm = list(range(switch.num_inputs))
    out_perm = list(range(switch.num_outputs))
    rng.shuffle(in_perm)
    rng.shuffle(out_perm)
    # in_perm[old] = new, so the new port in_perm[old] inherits old's
    # capacity.
    in_caps = [0] * switch.num_inputs
    for old, new in enumerate(in_perm):
        in_caps[new] = int(switch.input_capacities[old])
    out_caps = [0] * switch.num_outputs
    for old, new in enumerate(out_perm):
        out_caps[new] = int(switch.output_capacities[old])
    new_switch = Switch.create(
        switch.num_inputs, switch.num_outputs, in_caps, out_caps
    )
    flows = [
        Flow(in_perm[f.src], out_perm[f.dst], f.demand, f.release)
        for f in instance.flows
    ]
    return Instance.create(new_switch, flows)


def scale_demands(instance: Instance, factor: int = 2) -> Instance:
    """Scale every demand *and* every capacity by ``factor``.

    A flow set is feasible in a round iff its demand sums stay within
    the capacities; multiplying both sides by the same positive integer
    preserves that, so the feasible schedules — and with them both LP
    bounds (which count rounds, not demand units) — are unchanged.
    """
    if not isinstance(factor, int) or factor < 1:
        raise ValueError(f"factor must be a positive int, got {factor!r}")
    switch = instance.switch
    new_switch = Switch.create(
        switch.num_inputs,
        switch.num_outputs,
        (switch.input_capacities * factor).tolist(),
        (switch.output_capacities * factor).tolist(),
    )
    flows = [
        Flow(f.src, f.dst, f.demand * factor, f.release)
        for f in instance.flows
    ]
    return Instance.create(new_switch, flows)


def shuffle_flows(instance: Instance, seed: int = 0) -> Instance:
    """Permute the flow order (fids are renumbered in the new order).

    The flow *multiset* is unchanged, so instance-level quantities are
    invariant; per-flow tie-breaks (which consult fids) may place
    individual flows differently.
    """
    rng = random.Random(f"shuffle:{seed}")
    flows = list(instance.flows)
    rng.shuffle(flows)
    return Instance.create(
        instance.switch,
        [Flow(f.src, f.dst, f.demand, f.release) for f in flows],
    )


def metamorphic_transforms(
    instance: Instance, seed: int = 0, scale_factor: int = 2
) -> List[Tuple[str, Instance]]:
    """The named semantics-preserving variants of ``instance``."""
    return [
        ("relabel-ports", relabel_ports(instance, seed)),
        ("scale-demands", scale_demands(instance, scale_factor)),
        ("shuffle-flows", shuffle_flows(instance, seed)),
    ]


def metamorphic_check(
    instance: Instance,
    solvers: Sequence[str] = ("Greedy",),
    params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    seed: int = 0,
    scale_factor: int = 2,
    rtol: float = DEFAULT_RTOL,
) -> VerificationReport:
    """Certify invariance under semantics-preserving transforms.

    For each transform of :func:`metamorphic_transforms`:

    * ``soundness:<t>`` — the transform preserved what it promised
      (flow count, release multiset, total demand up to the scale
      factor);
    * ``lp-invariance:<t>`` — both oracle LP bounds are unchanged
      (within ``rtol`` for the float ART bound, exactly for the integer
      ρ*);
    * per-solver — every solver still yields a certifiable schedule on
      the transformed instance (:func:`check_schedule` +
      :func:`check_lp_certificate` without re-recomputing oracles).
    """
    from repro.lp.bounds import art_lower_bound, mrt_lower_bound

    params = params or {}
    resolved = {solver: _resolve(solver) for solver in solvers}  # fail fast
    digest = instance.digest()
    report = VerificationReport(f"metamorphic:{_short(digest)}")
    if instance.num_flows == 0:
        report.ran("trivial-empty")
        return report
    base_art = float(art_lower_bound(instance))
    base_mrt = int(mrt_lower_bound(instance))
    base_releases = sorted(f.release for f in instance.flows)
    base_demand = int(instance.demands().sum())

    for name, variant in metamorphic_transforms(
        instance, seed=seed, scale_factor=scale_factor
    ):
        factor = scale_factor if name == "scale-demands" else 1
        report.ran(f"soundness:{name}")
        if variant.num_flows != instance.num_flows:
            report.add(
                "transform-soundness",
                f"{name} changed the flow count "
                f"({instance.num_flows} -> {variant.num_flows})",
                transform=name,
            )
        if sorted(f.release for f in variant.flows) != base_releases:
            report.add(
                "transform-soundness",
                f"{name} changed the release multiset",
                transform=name,
            )
        if int(variant.demands().sum()) != base_demand * factor:
            report.add(
                "transform-soundness",
                f"{name} changed the total demand",
                transform=name,
            )

        report.ran(f"lp-invariance:{name}")
        art = float(art_lower_bound(variant))
        mrt = int(mrt_lower_bound(variant))
        if abs(art - base_art) > _tol(base_art, rtol):
            report.add(
                "lp-invariance",
                f"ART LP bound drifted under {name}: "
                f"{base_art} -> {art}",
                transform=name,
                base=base_art,
                transformed=art,
            )
        if mrt != base_mrt:
            report.add(
                "lp-invariance",
                f"rho* drifted under {name}: {base_mrt} -> {mrt}",
                transform=name,
                base=base_mrt,
                transformed=mrt,
            )

        for solver in solvers:
            if not _applicable(resolved[solver], variant):
                # e.g. FS-ART on the scaled-demands variant: the
                # transform left its unit-demand precondition behind.
                continue
            try:
                # Fresh instantiation per solve — the registry contract
                # lets solvers keep per-solve state.
                solve_report = _resolve(solver).solve(
                    variant, **dict(params.get(solver, {}))
                )
            except Exception as exc:
                report.add(
                    "solver-error",
                    f"{solver} raised {type(exc).__name__} on the "
                    f"{name} variant: {exc}",
                    solver=solver,
                    transform=name,
                )
                continue
            if solve_report.schedule is None:
                report.add(
                    "infeasible-report",
                    f"{solver} produced no schedule on the {name} variant",
                    solver=solver,
                    transform=name,
                )
                continue
            report.merge(
                check_schedule(
                    solve_report.schedule,
                    metrics=solve_report.metrics,
                    subject=f"{name}/{solver}",
                )
            )
            report.merge(
                check_lp_certificate(
                    solve_report,
                    instance=variant,
                    recompute=False,
                    rtol=rtol,
                    subject=f"{name}/{solver}/certificate",
                )
            )
    return report
