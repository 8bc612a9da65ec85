"""Tests for maximum-weight bipartite matching."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.weight_matching import (
    matching_weight,
    max_weight_matching,
    solve_dense_assignment,
)
from tests.conftest import bipartite_edge_lists


class TestDenseAssignment:
    def test_identity_cheapest(self):
        cost = np.array([[0.0, 9.0], [9.0, 0.0]])
        assert solve_dense_assignment(cost).tolist() == [0, 1]

    def test_rectangular(self):
        cost = np.array([[5.0, 1.0, 9.0]])
        assert solve_dense_assignment(cost).tolist() == [1]

    def test_rows_gt_cols_rejected(self):
        with pytest.raises(ValueError):
            solve_dense_assignment(np.zeros((3, 2)))

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_optimal_vs_permutations(self, a, b, seed):
        """Brute force over every injective row-to-column map, on
        tie-heavy costs (integers 0-3)."""
        n, m = min(a, b), max(a, b)
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 4, size=(n, m)).astype(float)
        ours = solve_dense_assignment(cost)
        assert ours.shape == (n,)
        assert len(set(ours.tolist())) == n  # distinct columns
        best = min(
            cost[np.arange(n), list(cols)].sum()
            for cols in itertools.permutations(range(m), n)
        )
        assert cost[np.arange(n), ours].sum() == best


def _lp_optimum(n_left, n_right, edges, weights):
    """Optimum of the bipartite matching LP (degree <= 1 per vertex,
    0 <= x <= 1), solved by HiGHS.  The constraint matrix is totally
    unimodular, so this is the maximum matching weight."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    k = len(edges)
    us, vs = np.asarray(edges).T
    rows = np.concatenate([us, n_left + vs])
    cols = np.concatenate([np.arange(k), np.arange(k)])
    a_ub = coo_matrix(
        (np.ones(2 * k), (rows, cols)), shape=(n_left + n_right, k)
    )
    res = linprog(
        -np.asarray(weights, dtype=float),
        A_ub=a_ub,
        b_ub=np.ones(n_left + n_right),
        bounds=(0, 1),
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


class TestMaxWeightMatching:
    def test_prefers_heavy_edge(self):
        got = max_weight_matching(2, 2, [(0, 0), (0, 1), (1, 0)], [1, 10, 10])
        assert matching_weight(got, [1, 10, 10]) == 20

    def test_zero_weight_edges_unmatched(self):
        got = max_weight_matching(1, 1, [(0, 0)], [0.0])
        assert got == {}

    def test_parallel_edges_heaviest_wins(self):
        got = max_weight_matching(1, 1, [(0, 0), (0, 0)], [1.0, 5.0])
        assert got == {0: 1}
        # Equal-weight copies: the lowest edge id wins.
        got = max_weight_matching(1, 1, [(0, 0), (0, 0)], [2.0, 2.0])
        assert got == {0: 0}

    def test_empty_inputs(self):
        assert max_weight_matching(0, 3, [], []) == {}
        assert max_weight_matching(3, 3, [], []) == {}

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            max_weight_matching(1, 1, [(0, 0)], [-1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            max_weight_matching(1, 1, [(0, 0)], [])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            max_weight_matching(1, 1, [(0, 1)], [1.0])

    def test_malformed_edges_rejected(self):
        for edges in ([(0.0, 0.0)], np.zeros((1, 3), dtype=np.int64)):
            with pytest.raises(ValueError, match="integer"):
                max_weight_matching(1, 1, edges, [1.0])

    def test_nonfinite_weight_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="weights must be finite"):
                max_weight_matching(1, 1, [(0, 0)], [bad])

    def test_left_larger_than_right(self):
        got = max_weight_matching(
            3, 1, [(0, 0), (1, 0), (2, 0)], [1.0, 5.0, 3.0]
        )
        assert matching_weight(got, [1.0, 5.0, 3.0]) == 5.0

    def test_result_is_plain_ints(self):
        """Keys and values are ``int`` on both orientations, so the
        result serializes as JSON."""
        for n_left, n_right, edges, want in [
            (3, 1, [(0, 0), (1, 0), (2, 0)], {1: 1}),
            (1, 3, [(0, 0), (0, 1), (0, 2)], {0: 1}),
        ]:
            got = max_weight_matching(n_left, n_right, edges, [1.0, 5.0, 3.0])
            assert got == want
            assert all(type(k) is int and type(e) is int for k, e in got.items())
            json.dumps(got)

    def test_edges_as_array(self):
        edges = [(0, 1), (1, 0), (1, 1), (1, 1)]
        weights = [2.0, 1.0, 4.0, 4.0]
        want = max_weight_matching(2, 2, edges, weights)
        for dtype in (np.int64, np.int32):
            got = max_weight_matching(
                2, 2, np.asarray(edges, dtype=dtype), np.asarray(weights)
            )
            assert got == want == {1: 2}
        assert max_weight_matching(2, 2, np.empty((0, 2), dtype=np.int64), []) == {}

    @pytest.mark.parametrize(
        "side,seed", [(24, s) for s in range(6)] + [(150, 0), (150, 1)]
    )
    def test_weight_matches_lp_optimum(self, side, seed):
        """Tie-heavy random graphs (~30% density, integer weights 0-3):
        the total weight equals the assignment LP's optimum."""
        rng = np.random.default_rng(seed)
        cells = np.flatnonzero(rng.random(side * side) < 0.3)
        edges = np.column_stack((cells // side, cells % side))
        weights = rng.integers(0, 4, size=len(cells)).astype(float)
        got = max_weight_matching(side, side, edges, weights)
        matched = edges[list(got.values())]
        assert (matched[:, 0] == list(got)).all()
        assert len(set(matched[:, 1].tolist())) == len(got)
        assert (weights[list(got.values())] > 0).all()
        assert matching_weight(got, weights) == pytest.approx(
            _lp_optimum(side, side, edges, weights), abs=1e-6
        )

    @given(bipartite_edge_lists(max_side=4, max_edges=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_optimal_vs_bruteforce(self, data, draw):
        n_left, n_right, edges = data
        weights = [
            float(draw.draw(st.integers(0, 9))) for _ in range(len(edges))
        ]
        got = max_weight_matching(n_left, n_right, edges, weights)
        got_weight = matching_weight(got, weights)
        # Structure: a valid matching.
        lefts = set()
        rights = set()
        for u, eid in got.items():
            eu, ev = edges[eid]
            assert eu == u
            assert u not in lefts and ev not in rights
            lefts.add(u)
            rights.add(ev)
        # Optimality by exhaustive search.
        best = 0.0
        for r in range(min(n_left, n_right, len(edges)) + 1):
            for comb in itertools.combinations(range(len(edges)), r):
                us = [edges[i][0] for i in comb]
                vs = [edges[i][1] for i in comb]
                if len(set(us)) == r and len(set(vs)) == r:
                    best = max(best, sum(weights[i] for i in comb))
        assert got_weight == pytest.approx(best)
