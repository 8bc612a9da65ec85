"""Differential certification tests (repro.verify.differential).

The acceptance surface of the verify subsystem: ``cross_check``
certifies every registered offline solver on several built-in
scenarios, the metamorphic harness certifies LP-bound invariance under
semantics-preserving transforms, and intentionally corrupted artifacts
produce non-empty Violation reports.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import get_solver, list_solvers
from repro.core.schedule import Schedule
from repro.scenarios import build_instance
from repro.utils.timing import Timer
from repro.verify import (
    check_lp_certificate,
    check_schedule,
    cross_check,
    metamorphic_check,
    metamorphic_transforms,
    relabel_ports,
    scale_demands,
    shuffle_flows,
)
from repro.workloads import poisson_uniform_workload

#: Small unit-demand scenario instances (FS-ART requires unit demands).
CROSS_SCENARIOS = (
    "paper-default:ports=6,mean=3,horizon=4",
    "permutation:ports=6,horizon=4",
    "hotspot:ports=6,mean=3,horizon=4",
    "incast:ports=6,horizon=6",
)


class TestCrossCheck:
    @pytest.mark.parametrize("spec", CROSS_SCENARIOS)
    def test_all_offline_solvers_certify_on_builtin_scenarios(self, spec):
        # The acceptance criterion: every registered offline solver
        # (FS-ART, FS-MRT, TimeConstrained, Greedy, plus any plugin)
        # cross-checks clean on built-in scenarios.
        inst = build_instance(spec, seed=11)
        assert inst.num_flows > 0
        result = cross_check(inst)
        assert set(result.reports) == set(list_solvers("offline"))
        assert result.ok, result.verification.render()
        # Oracle bounds were computed and are mutually consistent.
        assert result.bounds["art_total"] >= 0
        assert result.bounds["mrt_rho"] >= 1

    def test_default_solvers_skip_unmet_preconditions(self):
        # heavy-tailed draws non-unit demands; the default sweep must
        # skip FS-ART (unit-demand precondition) instead of reporting a
        # false solver-error on a healthy instance.
        inst = build_instance("heavy-tailed:ports=5,mean=3,horizon=4", seed=3)
        assert not inst.is_unit_demand
        result = cross_check(inst)
        assert result.ok, result.verification.render()
        assert "FS-ART" not in result.reports
        assert "Greedy" in result.reports

    def test_explicit_solver_overrides_precondition_skip(self):
        # Explicitly asking for FS-ART on a non-unit instance asserts
        # the precondition holds — the resulting error is surfaced.
        inst = build_instance("heavy-tailed:ports=5,mean=3,horizon=4", seed=3)
        result = cross_check(inst, solvers=["FS-ART"])
        assert {"solver-error"} == {
            v.code for v in result.verification.violations
        }

    def test_online_solvers_cross_check_too(self):
        inst = build_instance("paper-default:ports=6,mean=3,horizon=4", seed=5)
        result = cross_check(
            inst, solvers=["MaxCard", "MinRTime", "MaxWeight", "FIFO"]
        )
        assert result.ok, result.verification.render()
        for report in result.reports.values():
            assert report.metrics.max_augmentation == 0

    def test_unknown_solver_raises(self):
        inst = poisson_uniform_workload(4, 2.0, 3, seed=0)
        with pytest.raises(ValueError, match="unknown solver"):
            cross_check(inst, solvers=["NoSuchSolver"])

    def test_empty_solver_list_raises(self):
        # Zero solvers must not "certify" — the silent no-op guard.
        inst = poisson_uniform_workload(4, 2.0, 3, seed=0)
        with pytest.raises(ValueError, match="at least one solver"):
            cross_check(inst, solvers=[])

    def test_solver_exception_becomes_violation(self):
        from repro.api import register_solver, unregister_solver

        class Exploding:
            name = "Exploding"
            kind = "offline"

            def solve(self, instance, **params):
                raise RuntimeError("kaboom")

        register_solver("Exploding", Exploding)
        try:
            inst = poisson_uniform_workload(4, 2.0, 3, seed=0)
            result = cross_check(inst, solvers=["Exploding", "Greedy"])
            codes = {v.code for v in result.verification.violations}
            assert codes == {"solver-error"}
            assert "Greedy" in result.reports
        finally:
            unregister_solver("Exploding")

    def test_bounds_computed_once(self):
        # The certificate checks and the mutual-bound checks share one
        # computation of each bound: 2 builds and 2 solves, not 4 and 4.
        inst = build_instance("paper-default:ports=8,mean=8,horizon=6", seed=1)
        timer = Timer()
        with timer.recording():
            result = cross_check(inst)
        assert result.ok, result.verification.render()
        assert timer.counts["lp_bound_build"] == 2
        assert timer.counts["lp_bound_solve"] == 2
        stats = result.verification.stats
        assert stats["FS-ART/certificate:oracle:lp_total_response"] == (
            stats["art_total_bound"]
        )
        assert stats["FS-MRT/certificate:oracle:rho_star"] == (
            stats["mrt_rho_bound"]
        )


class TestCorruptedArtifacts:
    """Intentionally corrupted schedule/report -> non-empty report."""

    def test_corrupted_schedule_yields_violations(self):
        inst = build_instance("hotspot:ports=6,mean=3,horizon=4", seed=7)
        # Cram every flow into round 0: releases and capacities both break.
        corrupt = Schedule(inst, np.zeros(inst.num_flows, dtype=np.int64))
        report = check_schedule(corrupt)
        assert not report.ok
        assert len(report.violations) > 0
        assert {"capacity-overload"} <= {v.code for v in report.violations}

    def test_corrupted_report_yields_violations(self):
        inst = build_instance("permutation:ports=6,horizon=4", seed=7)
        honest = get_solver("Greedy").solve(inst)
        corrupt = replace(
            honest,
            lower_bounds={
                "lp_total_response": honest.metrics.total_response * 10.0
            },
        )
        report = check_lp_certificate(corrupt)
        assert not report.ok
        codes = {v.code for v in report.violations}
        assert "bound-above-objective" in codes
        assert "bound-oracle-mismatch" in codes


class TestMetamorphicTransforms:
    def test_transforms_are_sound(self):
        inst = build_instance("heavy-tailed:ports=5,mean=3,horizon=4", seed=3)
        for name, variant in metamorphic_transforms(inst, seed=1):
            assert variant.num_flows == inst.num_flows, name
            assert sorted(f.release for f in variant.flows) == sorted(
                f.release for f in inst.flows
            ), name

    def test_relabel_preserves_port_loads_multiset(self):
        inst = build_instance("hotspot:ports=6,mean=3,horizon=4", seed=9)
        variant = relabel_ports(inst, seed=2)
        a_in, a_out = inst.port_loads()
        b_in, b_out = variant.port_loads()
        assert sorted(a_in.tolist()) == sorted(b_in.tolist())
        assert sorted(a_out.tolist()) == sorted(b_out.tolist())

    def test_scale_preserves_structure(self):
        inst = build_instance("heavy-tailed:ports=5,mean=3,horizon=4", seed=3)
        variant = scale_demands(inst, factor=3)
        assert (variant.demands() == inst.demands() * 3).all()
        assert (
            variant.switch.input_capacities
            == inst.switch.input_capacities * 3
        ).all()

    def test_scale_rejects_bad_factor(self):
        inst = poisson_uniform_workload(4, 2.0, 3, seed=0)
        with pytest.raises(ValueError, match="positive int"):
            scale_demands(inst, factor=0)

    def test_shuffle_preserves_flow_multiset(self):
        inst = build_instance("incast:ports=6,horizon=6", seed=3)
        variant = shuffle_flows(inst, seed=5)
        key = lambda f: (f.src, f.dst, f.demand, f.release)  # noqa: E731
        assert sorted(map(key, variant.flows)) == sorted(map(key, inst.flows))

    def test_metamorphic_check_certifies(self):
        inst = build_instance("paper-default:ports=6,mean=3,horizon=4", seed=13)
        report = metamorphic_check(inst, solvers=("Greedy", "MaxWeight"))
        assert report.ok, report.render()
        # All three transforms ran both invariance passes.
        for t in ("relabel-ports", "scale-demands", "shuffle-flows"):
            assert f"soundness:{t}" in report.checks
            assert f"lp-invariance:{t}" in report.checks

    def test_metamorphic_skips_fs_art_on_scaled_variant(self):
        # scale-demands leaves FS-ART's unit-demand precondition behind;
        # the harness skips that (solver, variant) pair instead of
        # producing a false solver-error, while still running FS-ART on
        # the relabel/shuffle variants.
        inst = build_instance("paper-default:ports=5,mean=2,horizon=3", seed=2)
        assert inst.is_unit_demand
        report = metamorphic_check(inst, solvers=("FS-ART",))
        assert report.ok, report.render()
        assert any(c.startswith("relabel-ports/FS-ART") for c in report.checks)
        assert not any(
            c.startswith("scale-demands/FS-ART") for c in report.checks
        )

    def test_metamorphic_empty_instance_trivial(self):
        inst = poisson_uniform_workload(4, 2.0, 2, seed=1).restricted_to([])
        report = metamorphic_check(inst)
        assert report.ok
        assert report.checks == ["trivial-empty"]
