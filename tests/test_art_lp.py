"""Tests for the FS-ART linear programs (LP (1)-(4) and LP (5)-(8))."""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import get_solver
from repro.art.lp_relaxation import (
    BLOCK,
    build_fractional_art_lp,
    build_interval_lp0,
)
from repro.core.flow import Flow
from repro.core.greedy import greedy_earliest_fit
from repro.core.instance import Instance
from repro.core.metrics import total_response_time
from repro.core.switch import Switch
from repro.lp.bounds import art_lower_bound
from repro.lp.solver import solve_lp
from repro.mrt.exact import exact_min_total_response
from repro.workloads.synthetic import poisson_uniform_workload
from tests import lp_reference as ref
from tests.conftest import capacitated_instances, unit_instances


def full_horizon_lp(inst, horizon):
    """LP (1)-(4) with every round ``r_e <= t < horizon`` for every flow."""
    sw = inst.switch
    lp = ref.NamedLP()
    rows = {}
    for f in inst.flows:
        coeffs = {}
        for t in range(f.release, horizon):
            name = ("b", f.fid, t)
            lp.add_variable(
                name,
                objective=(t - f.release) / f.demand
                + 1.0 / (2.0 * sw.kappa(f.src, f.dst)),
            )
            coeffs[name] = 1.0
            rows.setdefault(("in", f.src, t), {})[name] = 1.0
            rows.setdefault(("out", f.dst, t), {})[name] = 1.0
        demand = float(f.demand)
        lp.add_constraint(("flow", f.fid), coeffs, ref.Sense.GE, demand)
    for (side, p, t), coeffs in rows.items():
        cap = sw.input_capacity(p) if side == "in" else sw.output_capacity(p)
        cap = float(cap)
        lp.add_constraint(("cap", side, p, t), coeffs, ref.Sense.LE, cap)
    return ref.to_model(lp)


def columns(lp):
    """``[(flow, round), ...]`` of a model's columns, in order."""
    return list(zip(lp.flow.tolist(), lp.round.tolist()))


def window_ends(inst, horizon):
    """``min(H, r_e + floor(D_src/c_src) + floor(D_dst/c_dst) + 1)``."""
    sw = inst.switch
    d_in = [0] * sw.num_inputs
    d_out = [0] * sw.num_outputs
    for f in inst.flows:
        d_in[f.src] += f.demand
        d_out[f.dst] += f.demand
    return [
        min(
            horizon,
            f.release
            + d_in[f.src] // sw.input_capacity(f.src)
            + d_out[f.dst] // sw.output_capacity(f.dst)
            + 1,
        )
        for f in inst.flows
    ]


def singletons(inst):
    """The instance's first flow of each (src, dst, demand) class."""
    first = {}
    for f in inst.flows:
        first.setdefault((f.src, f.dst, f.demand), f)
    return Instance.create(inst.switch, list(first.values()))


def check_classes_keep_optimum(inst, horizon):
    """The class LP's optimum, offset included, is the per-flow LP's over
    every round of ``[r_e, horizon)``, which puts no mass outside the
    flows' windows; a horizon too short leaves both infeasible.  With one
    flow per class, the model is the per-flow windowed one, array for
    array, and so is its optimum, bit for bit."""
    if inst.num_flows == 0:
        return
    lp = build_fractional_art_lp(inst, horizon)
    if horizon is None:
        horizon = inst.horizon_bound()
    full = full_horizon_lp(inst, horizon)
    full_result = solve_lp(full)
    result = solve_lp(lp)
    assert result.status is full_result.status
    if full_result.is_optimal:
        assert result.objective == pytest.approx(
            full_result.objective, rel=1e-9
        )
        ends = window_ends(inst, horizon)
        outside = sum(
            x
            for (fid, t), x in zip(columns(full), full_result.x)
            if t >= ends[fid]
        )
        assert outside <= 1e-9
    one = singletons(inst)
    lp = build_fractional_art_lp(one, horizon)
    per_flow = ref.to_model(
        ref.build_fractional_art_lp(one, horizon, per_flow=True)
    )
    for ours, theirs in zip(ref.model_arrays(lp), ref.model_arrays(per_flow)):
        assert np.array_equal(ours, theirs)
    assert columns(lp) == columns(per_flow)
    assert lp.offset == per_flow.offset == 0.0
    ours, theirs = solve_lp(lp), solve_lp(per_flow)
    assert ours.status is theirs.status
    if ours.is_optimal:
        assert ours.objective.hex() == theirs.objective.hex()


def all_rounds_lp0(inst, horizon=None):
    """LP (5)-(8) with a column for every round of ``[r_e, H)``."""
    return ref.to_model(ref.build_interval_lp0(inst, horizon, all_rounds=True))


@st.composite
def with_horizon(draw, instances):
    """An instance, and ``None``, its compact horizon or an override."""
    inst = draw(instances)
    horizon = draw(
        st.one_of(
            st.none(),
            st.just(inst.compact_horizon_bound()),
            st.integers(inst.max_release + 1, inst.horizon_bound() + 3),
        )
    )
    return inst, horizon


def check_block_columns_keep_optimum(inst, horizon):
    """LP(0) is the all-rounds LP (5)-(8) minus some columns, with the
    same status and optimum; the all-rounds optimum puts no mass on those
    columns.  A horizon too short for the flows leaves both infeasible."""
    if inst.num_flows == 0:
        return
    lp = build_interval_lp0(inst, horizon)
    full = all_rounds_lp0(inst, horizon)
    assert np.array_equal(lp.row_lower, full.row_lower)
    assert np.array_equal(lp.row_upper, full.row_upper)
    kept = [columns(full).index(c) for c in columns(lp)]
    assert np.array_equal(lp.cost, full.cost[kept])
    assert np.array_equal(lp.dense_matrix(), full.dense_matrix()[:, kept])
    full_result = solve_lp(full)
    result = solve_lp(lp)
    assert result.status is full_result.status
    if not full_result.is_optimal:
        return
    assert result.objective == pytest.approx(full_result.objective, rel=1e-9)
    dropped = np.ones(full.num_vars, dtype=bool)
    dropped[kept] = False
    mass = full_result.x.sum()
    assert full_result.x[dropped].sum() <= 1e-9 * mass


class TestBlockColumns:
    """One column per (flow, block) leaves LP (5)-(8)'s optimum, and
    FS-ART's schedules, unchanged."""

    @given(with_horizon(unit_instances(max_ports=4, max_flows=8)))
    @settings(max_examples=40, deadline=None)
    def test_unit_instances(self, case):
        check_block_columns_keep_optimum(*case)

    @given(with_horizon(capacitated_instances(max_ports=3, max_flows=7)))
    @settings(max_examples=40, deadline=None)
    def test_capacitated_instances(self, case):
        check_block_columns_keep_optimum(*case)

    def test_fs_art_reports_unchanged(self, monkeypatch):
        """On service-sized instances, FS-ART rounds the same vertex
        from the all-rounds LP(0) as from the reduced one."""
        module = importlib.import_module("repro.art.iterative_rounding")
        solver = get_solver("FS-ART")
        for seed in range(20):
            inst = poisson_uniform_workload(8, 8.0, 6, seed=seed)
            reports = []
            for build in (all_rounds_lp0, build_interval_lp0):
                monkeypatch.setattr(module, "build_interval_lp0", build)
                report = solver.solve(inst)
                reports.append(dataclasses.replace(report, timings={}))
            assert reports[0].to_dict() == reports[1].to_dict(), seed


class TestLPConstruction:
    def test_variables_start_at_release(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 0, 1, 3)])
        lp = build_fractional_art_lp(inst, horizon=6)
        assert columns(lp) == [(0, 3), (0, 4), (0, 5)]
        assert lp.num_vars == 3

    def test_objective_coefficient_formula(self):
        # (t - r)/d + 1/(2 kappa) with kappa = 2.
        sw = Switch.create(1, 1, 2)
        inst = Instance.create(sw, [Flow(0, 0, demand=2, release=1)])
        lp = build_fractional_art_lp(inst, horizon=3)
        assert columns(lp) == [(0, 1), (0, 2)]
        assert lp.cost.tolist() == [0.0 / 2 + 0.25, 1.0 / 2 + 0.25]

    def test_windows_follow_port_loads(self):
        # Port 0 carries 3 unit flows, so flow 0 may wait floor(3/1) = 3
        # rounds at its input and floor(1/1) = 1 at its output.
        inst = Instance.create(
            Switch.create(3), [Flow(0, 0), Flow(0, 1), Flow(0, 2)]
        )
        lp = build_fractional_art_lp(inst, horizon=20)
        assert lp.round[lp.flow == 0].tolist() == [0, 1, 2, 3, 4]
        assert build_fractional_art_lp(inst, horizon=3).num_vars == 9

    def test_flow_class_shares_columns(self):
        # Flows 0 and 2 share (src, dst, demand) = (0, 0, 1) and are
        # released at 0 and 2: one class, named by fid 0, on rounds
        # [0, 2 + floor(2/1) + floor(2/1) + 1).  Flow 1 is its own class.
        inst = Instance.create(
            Switch.create(2), [Flow(0, 0), Flow(1, 1), Flow(0, 0, 1, 2)]
        )
        lp = build_fractional_art_lp(inst, horizon=20)
        assert columns(lp) == [(0, t) for t in range(7)] + [
            (1, t) for t in range(3)
        ]
        assert lp.cost[:7].tolist() == [t + 0.5 for t in range(7)]
        # Covering rows (class 0 from rounds 0 and 2, class 1 from 0):
        # two unit flows from round 0 on, one from round 2 on.
        assert lp.row_upper[:3].tolist() == [-2.0, -1.0, -1.0]
        A = lp.dense_matrix()
        assert A[0].tolist() == [-1.0] * 7 + [0.0] * 3
        assert A[1].tolist() == [0.0] * 2 + [-1.0] * 5 + [0.0] * 3
        assert A[2].tolist() == [0.0] * 7 + [-1.0] * 3
        # Flow 2's mass costs 2/d more in the class than alone.
        assert lp.offset == -2.0
        per_flow = ref.to_model(
            ref.build_fractional_art_lp(inst, 20, per_flow=True)
        )
        assert solve_lp(lp).objective == pytest.approx(
            solve_lp(per_flow).objective, rel=1e-12
        )

    def test_horizon_must_cover_releases(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 0, 1, 5)])
        with pytest.raises(ValueError, match="horizon"):
            build_fractional_art_lp(inst, horizon=4)

    def test_interval_lp0_blocks(self):
        inst = Instance.create(Switch.create(1, 1), [Flow(0, 0)])
        lp = build_interval_lp0(inst, horizon=2 * BLOCK)
        # One covering row, then rounds 0..7 -> blocks 0 and 1 per side.
        assert lp.num_rows == 1 + 4
        assert lp.row_upper[1:].tolist() == [float(BLOCK)] * 4
        # One column per block, at its first round: 0 for the side's
        # first block row, 4 for its second.
        assert columns(lp) == [(0, 0), (0, BLOCK)]
        assert lp.cost.tolist() == [0.5, BLOCK + 0.5]
        A = lp.dense_matrix()
        assert A.tolist() == [
            [-1.0, -1.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 0.0],
            [0.0, 1.0],
        ]

    def test_interval_lp0_block_starts_at_release(self):
        # Released at 2: the first block's column is round 2, not 0.
        inst = Instance.create(Switch.create(1, 1), [Flow(0, 0, 1, 2)])
        lp = build_interval_lp0(inst, horizon=2 * BLOCK)
        assert columns(lp) == [(0, 2), (0, BLOCK)]
        assert lp.cost.tolist() == [0.5, BLOCK - 2 + 0.5]
        assert lp.num_rows == 1 + 4

    def test_interval_lp0_is_relaxation_of_fractional(self):
        """LP(0)'s optimum never exceeds the per-round LP's (unit case)."""
        inst = Instance.create(
            Switch.create(2), [Flow(0, 0), Flow(0, 1), Flow(1, 0)]
        )
        tight = solve_lp(build_fractional_art_lp(inst))
        loose = solve_lp(build_interval_lp0(inst))
        assert loose.objective <= tight.objective + 1e-9


class TestLowerBound:
    def test_empty_instance(self):
        assert art_lower_bound(Instance.create(Switch.create(1), [])) == 0.0

    def test_horizon_too_short_is_value_error(self):
        inst = Instance.create(Switch.create(1), [Flow(0, 0)] * 5)
        with pytest.raises(
            ValueError,
            match=r"horizon 4 is too short: LP \(1\)-\(4\) is infeasible",
        ):
            art_lower_bound(inst, horizon=4)
        assert art_lower_bound(inst, horizon=5) > 0

    def test_parallel_flows_bound_is_n(self):
        # n conflict-free unit flows: every response is exactly 1 and the
        # LP's Delta_e = 1/2 each... bound must be <= n and > 0.
        inst = Instance.create(
            Switch.create(3), [Flow(0, 0), Flow(1, 1), Flow(2, 2)]
        )
        lb = art_lower_bound(inst)
        assert 0 < lb <= 3

    @given(unit_instances(max_ports=3, max_flows=5))
    @settings(max_examples=25, deadline=None)
    def test_lower_bounds_exact_optimum(self, inst):
        """Lemma 3.1: the LP value lower-bounds any schedule's total
        response, in particular the optimum."""
        if inst.num_flows == 0:
            return
        lb = art_lower_bound(inst)
        opt = exact_min_total_response(inst)
        assert lb <= opt + 1e-6

    @given(unit_instances(max_ports=4, max_flows=6))
    @settings(max_examples=25, deadline=None)
    def test_lower_bounds_greedy(self, inst):
        if inst.num_flows == 0:
            return
        lb = art_lower_bound(inst)
        assert lb <= total_response_time(greedy_earliest_fit(inst)) + 1e-6

    @given(unit_instances(max_ports=3, max_flows=5))
    @settings(max_examples=15, deadline=None)
    def test_compact_horizon_preserves_bound(self, inst):
        if inst.num_flows == 0:
            return
        full = art_lower_bound(inst)
        compact = art_lower_bound(
            inst, horizon=inst.compact_horizon_bound()
        )
        assert compact == pytest.approx(full, abs=1e-6)


class TestFlowClasses:
    """One column per (flow class, round) leaves LP (1)-(4)'s optimum
    unchanged, and is the per-flow model when every class is a flow."""

    @given(with_horizon(unit_instances(max_ports=3, max_flows=6)))
    @settings(max_examples=25, deadline=None)
    def test_unit_instances(self, case):
        check_classes_keep_optimum(*case)

    @given(with_horizon(capacitated_instances(max_ports=3, max_flows=6)))
    @settings(max_examples=25, deadline=None)
    def test_capacitated_instances(self, case):
        check_classes_keep_optimum(*case)

    @given(
        with_horizon(
            capacitated_instances(max_ports=2, max_flows=8, max_release=5)
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_repeated_classes(self, case):
        """On 1-2 ports most flows share a class with another release."""
        check_classes_keep_optimum(*case)
