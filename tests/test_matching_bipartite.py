"""Unit tests for the bipartite multigraph container."""

import numpy as np
import pytest

from repro.matching.bipartite import BipartiteMultigraph


class TestConstruction:
    def test_add_edge_returns_id(self):
        g = BipartiteMultigraph(2, 2)
        assert g.add_edge(0, 1) == 0
        assert g.add_edge(1, 0, payload="f") == 1
        assert g.payloads[1] == "f"
        assert g.n_edges == 2

    def test_parallel_edges_allowed(self):
        g = BipartiteMultigraph(1, 1)
        g.add_edge(0, 0)
        g.add_edge(0, 0)
        assert g.n_edges == 2
        assert g.max_degree() == 2

    def test_out_of_range_left_rejected(self):
        with pytest.raises(ValueError):
            BipartiteMultigraph(2, 2).add_edge(2, 0)

    def test_out_of_range_right_rejected(self):
        with pytest.raises(ValueError):
            BipartiteMultigraph(2, 2).add_edge(0, 2)

    def test_from_edges_with_payloads(self):
        g = BipartiteMultigraph.from_edges(2, 2, [(0, 0), (1, 1)], ["a", "b"])
        assert g.payloads == ["a", "b"]


class TestDegreesAndAdjacency:
    def _graph(self):
        g = BipartiteMultigraph(3, 2)
        for u, v in [(0, 0), (0, 1), (1, 0), (0, 0)]:
            g.add_edge(u, v)
        return g

    def test_left_degrees(self):
        assert self._graph().left_degrees().tolist() == [3, 1, 0]

    def test_right_degrees(self):
        assert self._graph().right_degrees().tolist() == [3, 1]

    def test_max_degree(self):
        assert self._graph().max_degree() == 3

    def test_max_degree_empty(self):
        assert BipartiteMultigraph(3, 3).max_degree() == 0

    def test_subgraph(self):
        sub = self._graph().subgraph([1, 2])
        assert sub.n_edges == 2
        assert sub.edges == [(0, 1), (1, 0)]


class TestArrayBacking:
    def test_bulk_add_edges_matches_scalar(self):
        a = BipartiteMultigraph(3, 3)
        for u, v in [(0, 1), (2, 0), (0, 1)]:
            a.add_edge(u, v)
        b = BipartiteMultigraph(3, 3)
        b.add_edges(np.asarray([0, 2, 0]), np.asarray([1, 0, 1]))
        assert list(a.edges) == list(b.edges)
        assert a.src.tolist() == b.src.tolist()
        assert a.dst.tolist() == b.dst.tolist()

    def test_add_edges_validates_ranges(self):
        g = BipartiteMultigraph(2, 2)
        with pytest.raises(ValueError, match="left vertex"):
            g.add_edges([0, 2], [0, 0])
        with pytest.raises(ValueError, match="right vertex"):
            g.add_edges([0, 0], [0, 5])
        assert g.n_edges == 0  # failed bulk adds leave the graph untouched

    def test_from_arrays_with_payload_array(self):
        g = BipartiteMultigraph.from_arrays(
            2, 2, np.asarray([0, 1]), np.asarray([1, 0]),
            np.asarray([10, 11]),
        )
        assert g.payloads == [10, 11]

    def test_csr_matches_adjacency(self):
        g = BipartiteMultigraph.from_edges(
            3, 2, [(0, 0), (2, 1), (0, 1), (1, 0), (0, 0)]
        )
        indptr, eids = g.csr_left()
        # CSR is in insertion order per vertex (stable sort).
        assert indptr.tolist() == [0, 3, 4, 5]
        assert eids.tolist() == [0, 2, 4, 3, 1]

    def test_caches_invalidate_on_mutation(self):
        g = BipartiteMultigraph(2, 2)
        g.add_edge(0, 0)
        assert g.max_degree() == 1
        g.csr_left()
        g.add_edge(0, 1)
        assert g.max_degree() == 2
        indptr, _ = g.csr_left()
        assert indptr.tolist() == [0, 2, 2]

    def test_growth_beyond_initial_capacity(self):
        g = BipartiteMultigraph(1, 1)
        for _ in range(100):
            g.add_edge(0, 0)
        assert g.n_edges == 100
        assert g.max_degree() == 100
        assert g.src.tolist() == [0] * 100

    def test_edge_view_indexing_and_slicing(self):
        g = BipartiteMultigraph.from_edges(2, 2, [(0, 1), (1, 0), (1, 1)])
        assert g.edges[0] == (0, 1)
        assert g.edges[-1] == (1, 1)
        assert g.edges[1:] == [(1, 0), (1, 1)]
        with pytest.raises(IndexError):
            g.edges[3]
        assert len(g.edges) == 3

    def test_subgraph_accepts_ndarray_and_generator(self):
        g = BipartiteMultigraph.from_edges(
            2, 2, [(0, 0), (0, 1), (1, 1)], ["a", "b", "c"]
        )
        sub = g.subgraph(np.asarray([2, 0]))
        assert list(sub.edges) == [(1, 1), (0, 0)]
        assert sub.payloads == ["c", "a"]
        sub2 = g.subgraph(i for i in (1,))
        assert list(sub2.edges) == [(0, 1)]

    def test_src_dst_views_are_read_only(self):
        g = BipartiteMultigraph.from_edges(2, 2, [(0, 0)])
        with pytest.raises(ValueError):
            g.src[0] = 1
