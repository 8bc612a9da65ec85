"""Warm-start and array-entry properties of the Hopcroft–Karp kernel.

The kernel promises: whatever warm start it is given — a stale matching,
a partial matching, or garbage — the result is a *maximum* matching of
the current graph.  These tests pit cold and warm solves against a
brute-force matcher on random multigraphs and check the alternative
entry points (endpoint arrays, adjacency rows) against the graph entry.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matching.bipartite import BipartiteMultigraph
from repro.matching.hopcroft_karp import (
    max_cardinality_matching,
    max_cardinality_matching_adjacency,
    max_cardinality_matching_arrays,
)
from tests.conftest import bipartite_edge_lists


def _graph(n_left, n_right, edges):
    g = BipartiteMultigraph(n_left, n_right)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def _brute_force_size(n_left, n_right, edges):
    best = 0
    for r in range(min(n_left, n_right, len(edges)) + 1):
        for comb in itertools.combinations(range(len(edges)), r):
            us = [edges[i][0] for i in comb]
            vs = [edges[i][1] for i in comb]
            if len(set(us)) == r and len(set(vs)) == r:
                best = max(best, r)
    return best


def _assert_valid_matching(graph, matching):
    lefts, rights = set(), set()
    for u, eid in matching.items():
        eu, ev = graph.edges[eid]
        assert eu == u, "matched edge not incident on its left vertex"
        assert u not in lefts and ev not in rights, "vertex reused"
        lefts.add(u)
        rights.add(ev)


class TestWarmStartAgainstBruteForce:
    @given(bipartite_edge_lists(max_side=3, max_edges=6), st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_warm_from_partial_matching_is_maximum(self, data, rnd):
        n_left, n_right, edges = data
        g = _graph(n_left, n_right, edges)
        best = _brute_force_size(n_left, n_right, edges)
        cold = max_cardinality_matching(g)
        assert len(cold) == best
        # Seed from a random subset of the cold matching.
        keys = sorted(cold)
        subset = {u: cold[u] for u in keys if rnd.random() < 0.5}
        warm = max_cardinality_matching(g, warm_start=subset)
        _assert_valid_matching(g, warm)
        assert len(warm) == best

    @given(bipartite_edge_lists(max_side=3, max_edges=6), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_garbage_warm_start_is_ignored(self, data, rnd):
        n_left, n_right, edges = data
        g = _graph(n_left, n_right, edges)
        best = _brute_force_size(n_left, n_right, edges)
        garbage = {
            rnd.randrange(0, n_left + 3): rnd.randrange(-2, len(edges) + 4)
            for _ in range(4)
        }
        warm = max_cardinality_matching(g, warm_start=garbage)
        _assert_valid_matching(g, warm)
        assert len(warm) == best

    def test_conflicting_entries_first_left_wins(self):
        # Both left vertices claim right vertex 0; u=0 is seeded first.
        g = _graph(2, 2, [(0, 0), (1, 0)])
        warm = max_cardinality_matching(g, warm_start={0: 0, 1: 1})
        _assert_valid_matching(g, warm)
        assert len(warm) == 1

    def test_stale_edge_id_skipped(self):
        g = _graph(2, 2, [(0, 0), (1, 1)])
        # Edge id 7 does not exist; edge 1 is not incident on left 0.
        warm = max_cardinality_matching(g, warm_start={0: 7, 1: 0})
        _assert_valid_matching(g, warm)
        assert len(warm) == 2

    def test_parallel_edge_warm_start_keeps_seeded_copy(self):
        # Edges 0, 1 and 2 are copies of (0, 0); a cold solve takes the
        # first, a warm start keeps the copy it names, by either entry.
        edges = [(0, 0), (0, 0), (0, 0), (1, 1)]
        g = _graph(2, 2, edges)
        assert max_cardinality_matching(g) == {0: 0, 1: 3}
        us = np.array([u for u, _ in edges])
        vs = np.array([v for _, v in edges])
        for eid in (1, 2):
            assert max_cardinality_matching(g, warm_start={0: eid}) == {
                0: eid,
                1: 3,
            }
            assert max_cardinality_matching_arrays(
                2, 2, us, vs, warm_start={0: eid}
            ) == {0: eid, 1: 3}


class TestWarmStartDoesLessWork:
    def test_full_warm_start_skips_augmentation(self):
        g = _graph(3, 3, [(0, 0), (1, 1), (2, 2)])
        cold_stats, warm_stats = {}, {}
        cold = max_cardinality_matching(g, stats=cold_stats)
        max_cardinality_matching(g, warm_start=cold, stats=warm_stats)
        # A complete warm start needs exactly one (empty) BFS phase.
        assert warm_stats["bfs_phases"] == 1
        assert warm_stats.get("augmentations", 0) == 0

    def test_counters_accumulate(self):
        g = _graph(2, 2, [(0, 0), (0, 1), (1, 0)])
        stats = {}
        max_cardinality_matching(g, stats=stats)
        max_cardinality_matching(g, stats=stats)
        assert stats["bfs_phases"] >= 2


class TestAlternativeEntryPoints:
    @given(bipartite_edge_lists())
    @settings(max_examples=80, deadline=None)
    def test_arrays_entry_matches_graph_entry(self, data):
        n_left, n_right, edges = data
        g = _graph(n_left, n_right, edges)
        via_graph = max_cardinality_matching(g)
        us = np.asarray([u for u, _ in edges], dtype=np.int64)
        vs = np.asarray([v for _, v in edges], dtype=np.int64)
        via_arrays = max_cardinality_matching_arrays(n_left, n_right, us, vs)
        assert via_graph == via_arrays

    @given(bipartite_edge_lists())
    @settings(max_examples=80, deadline=None)
    def test_adjacency_entry_matches_graph_entry(self, data):
        n_left, n_right, edges = data
        g = _graph(n_left, n_right, edges)
        via_graph = max_cardinality_matching(g)
        rows_v = [[] for _ in range(n_left)]
        rows_p = [[] for _ in range(n_left)]
        for eid, (u, v) in enumerate(edges):
            rows_v[u].append(v)
            rows_p[u].append(eid)
        via_rows = max_cardinality_matching_adjacency(
            n_left, n_right, rows_v, rows_p
        )
        assert via_graph == via_rows

    def test_adjacency_pair_level_warm_start(self):
        rows_v = [[0, 1], [0]]
        rows_p = [[10, 11], [12]]
        res = max_cardinality_matching_adjacency(
            2, 2, rows_v, rows_p, warm_start={0: 0}
        )
        # Warm pair (0 -> right 0) is repaired: 0 must move to right 1 so
        # left 1 (whose only neighbor is right 0) can be matched too.
        assert res == {0: 11, 1: 12}

    def test_adjacency_warm_start_ignores_missing_pairs(self):
        rows_v = [[1]]
        rows_p = [[5]]
        res = max_cardinality_matching_adjacency(
            1, 2, rows_v, rows_p, warm_start={0: 0, 7: 1}
        )
        assert res == {0: 5}


class TestDocstringContract:
    def test_returns_left_vertex_to_edge_id(self):
        """Regression for the seed docstring that claimed an
        ``{edge_id: 1}`` return shape."""
        g = _graph(2, 2, [(0, 1), (1, 0)])
        matching = max_cardinality_matching(g)
        assert set(matching.keys()) == {0, 1}
        for u, eid in matching.items():
            assert g.edges[eid][0] == u
