"""Cross-cutting property tests tying the pipelines together.

Each test here checks an invariant that spans at least two subsystems —
the kind of relationship a downstream user would rely on when composing
the library's pieces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.metrics import max_response_time, response_times
from repro.core.switch import Switch
from repro.lp.bounds import art_lower_bound, mrt_lower_bound
from repro.matching.bipartite import BipartiteMultigraph
from repro.matching.bvn import decompose_into_matchings
from repro.matching.hopcroft_karp import maximum_matching_size
from repro.matching.vertex_cover import minimum_vertex_cover
from repro.mrt.algorithm import solve_mrt
from repro.mrt.time_constrained import from_response_bound
from repro.online.policies import make_policy
from repro.online.simulator import simulate
from tests.conftest import bipartite_edge_lists, unit_instances


class TestMatchingTriangle:
    """Matching size == cover size >= number of BvN classes' largest."""

    @given(bipartite_edge_lists(max_side=5, max_edges=14))
    @settings(max_examples=60, deadline=None)
    def test_bvn_class_sizes_bounded_by_matching(self, data):
        n_left, n_right, edges = data
        g = BipartiteMultigraph(n_left, n_right)
        for u, v in edges:
            g.add_edge(u, v)
        matchings = decompose_into_matchings(g)
        mm = maximum_matching_size(g)
        cover, _ = minimum_vertex_cover(g)
        assert len(cover) == mm
        for cls in matchings:
            assert len(cls) <= mm  # every class is a matching

    @given(bipartite_edge_lists(max_side=5, max_edges=14))
    @settings(max_examples=40, deadline=None)
    def test_bvn_classes_at_least_edges_over_matching(self, data):
        """Pigeonhole: need >= E / mm classes."""
        n_left, n_right, edges = data
        g = BipartiteMultigraph(n_left, n_right)
        for u, v in edges:
            g.add_edge(u, v)
        if not edges:
            return
        matchings = decompose_into_matchings(g)
        mm = maximum_matching_size(g)
        assert len(matchings) >= -(-g.n_edges // max(mm, 1))


class TestSchedulingMonotonicity:
    @given(unit_instances(max_ports=3, max_flows=5), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_adding_a_flow_never_lowers_lp_bound(self, inst, port):
        if inst.num_flows == 0:
            return
        m = inst.switch.num_inputs
        bigger = Instance.create(
            inst.switch,
            list(inst.flows) + [Flow(port % m, (port + 1) % m, 1, 0)],
        )
        assert (
            art_lower_bound(bigger) >= art_lower_bound(inst) - 1e-9
        )

    @given(unit_instances(max_ports=3, max_flows=6))
    @settings(max_examples=20, deadline=None)
    def test_delaying_releases_never_helps_mrt(self, inst):
        """Shifting all releases back uniformly cannot change rho*."""
        if inst.num_flows == 0:
            return
        base = mrt_lower_bound(inst)
        shifted = mrt_lower_bound(inst.shifted(3))
        assert shifted == base

    @given(unit_instances(max_ports=3, max_flows=5))
    @settings(max_examples=15, deadline=None)
    def test_capacity_augmentation_weakly_improves_mrt(self, inst):
        if inst.num_flows == 0:
            return
        base = mrt_lower_bound(inst)
        doubled = Instance.create(
            inst.switch.augmented(factor=2.0),
            [Flow(f.src, f.dst, f.demand, f.release) for f in inst.flows],
        )
        assert mrt_lower_bound(doubled) <= base


class TestScheduleResponseConsistency:
    @given(unit_instances(max_ports=4, max_flows=7))
    @settings(max_examples=20, deadline=None)
    def test_policy_max_response_bounds_every_flow(self, inst):
        if inst.num_flows == 0:
            return
        sim = simulate(inst, make_policy("MinRTime"))
        rho = max_response_time(sim.schedule)
        assert (response_times(sim.schedule) <= rho).all()
        # The induced time-constrained instance at rho is feasible by
        # construction: the policy's own schedule witnesses it.
        tci = from_response_bound(inst, rho)
        for fid, t in enumerate(sim.schedule.assignment):
            assert int(t) in tci.active_rounds[fid]

    @given(unit_instances(max_ports=3, max_flows=5))
    @settings(max_examples=10, deadline=None)
    def test_mrt_solver_idempotent(self, inst):
        if inst.num_flows == 0:
            return
        a = solve_mrt(inst)
        b = solve_mrt(inst)
        assert a.rho == b.rho
        assert a.schedule.assignment.tolist() == b.schedule.assignment.tolist()
