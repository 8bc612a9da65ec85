"""Hopcroft–Karp maximum-cardinality bipartite matching.

Runs in ``O(E sqrt(V))``: repeated phases of BFS layering followed by DFS
augmentation along vertex-disjoint shortest augmenting paths.  This is the
engine behind the paper's **MaxCard** online heuristic ("at every step a
matching of maximum cardinality is extracted from G_t") and the matching
extraction inside König edge coloring.

One kernel does the work, on one adjacency row per left vertex (its
right neighbors, with an aligned payload per entry), integer BFS layers
and explicit DFS stacks — no per-call adjacency dicts, no float
distances.  Three entry points feed it:
:func:`max_cardinality_matching_adjacency` takes the rows as given (the
online simulator keeps them across rounds);
:func:`max_cardinality_matching` (a :class:`BipartiteMultigraph`, through
its cached CSR) and :func:`max_cardinality_matching_arrays` (bare endpoint
arrays) cut their CSR into rows whose payloads are edge ids.  Parallel
edges are harmless (at most one copy can ever be matched; the kernel
deterministically matches the lowest-id copy of a pair, because rows are
scanned in edge-insertion order).

A previous matching can be passed as a **warm start**: each entry point
turns its own warm-start format into seeds, the kernel claims them and
repairs the matching with augmenting phases instead of starting empty.
When the warm start is already near-maximum this collapses the phase
count to O(1) — the lever the incremental online simulator pulls, where
G_t changes by a few edges per round.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.matching.bipartite import BipartiteMultigraph

#: Integer "unreached" sentinel for BFS layers (larger than any distance).
_INF = 1 << 60


def max_cardinality_matching(
    graph: BipartiteMultigraph,
    warm_start: Optional[Dict[int, int]] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Dict[int, int]:
    """Return a maximum matching as ``{left_vertex: edge_id}``.

    Parameters
    ----------
    graph:
        The bipartite multigraph.
    warm_start:
        Optional previous matching in the same ``{left_vertex: edge_id}``
        shape this function returns.  Entries are validated against the
        *current* graph — an entry is silently skipped when its edge id is
        out of range, its edge is no longer incident on that left vertex,
        or it conflicts with an already-seeded entry (left vertices are
        seeded in ascending order; first claim on a right vertex wins).
        Surviving entries seed the match arrays and the usual augmenting
        phases repair the matching to maximum, so the result is always a
        maximum matching regardless of the warm start's quality.  Note
        that a warm start may steer the algorithm to a *different* maximum
        matching than a cold solve (maximum matchings are not unique).
    stats:
        Optional counter dict; ``"bfs_phases"`` is incremented once per
        BFS layering pass and ``"augmentations"`` once per augmenting
        path applied.  Used by benchmarks and the CI bench-smoke job to
        demonstrate warm starts doing less work than cold solves.

    Returns
    -------
    dict
        ``{left_vertex: edge_id}`` for every matched left vertex.  The
        matched edges are recovered as ``graph.edges[eid]``; payloads via
        ``graph.payloads[eid]``.  (The seed docstring advertised a
        ``{edge_id: 1}``-style set; the mapping form below is what was
        always returned.)
    """
    if graph.n_edges == 0 or graph.n_left == 0:
        return {}
    indptr, adj = graph.csr_left()
    return _match_csr(
        graph.n_left, graph.n_right, indptr, adj, graph.src, graph.dst,
        warm_start, stats,
    )


def max_cardinality_matching_arrays(
    n_left: int,
    n_right: int,
    us: np.ndarray,
    vs: np.ndarray,
    warm_start: Optional[Dict[int, int]] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Dict[int, int]:
    """:func:`max_cardinality_matching` over bare endpoint arrays.

    ``us[i]``/``vs[i]`` are the endpoints of edge ``i``; the returned
    mapping's values index into these arrays.  Semantics (traversal
    order, warm-start handling, counters) are identical to the graph
    entry point; this one skips graph construction and CSR caching for
    callers that already hold flat arrays, e.g. the simulator's
    incremental pair view.
    """
    n_edges = len(us)
    if n_edges == 0 or n_left == 0:
        return {}
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    # Vectorized CSR build (edge-insertion order per left vertex).
    indptr = np.zeros(n_left + 1, dtype=np.int64)
    np.cumsum(np.bincount(us, minlength=n_left), out=indptr[1:])
    adj = np.argsort(us, kind="stable")
    return _match_csr(n_left, n_right, indptr, adj, us, vs, warm_start, stats)


def _match_csr(
    n_left: int,
    n_right: int,
    indptr: np.ndarray,
    adj: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    warm_start: Optional[Dict[int, int]],
    stats: Optional[Dict[str, int]],
) -> Dict[int, int]:
    """The kernel over CSR adjacency, with edge ids as payloads.

    ``adj[indptr[u]:indptr[u+1]]`` are left vertex ``u``'s edge ids in
    insertion order; ``src``/``dst`` are every edge's endpoints.  Each
    row is cut from plain Python lists (elementwise indexing there is
    3-4x faster than NumPy scalar access).  An edge-level warm-start
    entry ``u: eid`` seeds ``(u, dst[eid], eid)`` when ``eid`` is an edge
    of ``u``.
    """
    bounds = indptr.tolist()
    ends = dst[adj].tolist()
    eids = adj.tolist()
    spans = list(zip(bounds, bounds[1:]))
    adj_rows = [ends[a:b] for a, b in spans]
    payload_rows = [eids[a:b] for a, b in spans]
    seeds = []
    if warm_start:
        n_edges = len(eids)
        for u in sorted(warm_start):
            eid = warm_start[u]
            if 0 <= u < n_left and 0 <= eid < n_edges and src[eid] == u:
                seeds.append((u, int(dst[eid]), eid))
    return _hk_rows(n_left, n_right, adj_rows, payload_rows, seeds, stats)


def max_cardinality_matching_adjacency(
    n_left: int,
    n_right: int,
    adj_rows: List[List[int]],
    payload_rows: List[List[int]],
    warm_start: Optional[Dict[int, int]] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Dict[int, int]:
    """Maximum matching over pre-built per-left-vertex adjacency rows.

    ``adj_rows[u]`` lists the right neighbors of left vertex ``u`` in the
    caller's tie-breaking order; ``payload_rows[u]`` carries an aligned
    opaque payload (e.g. a flow id) returned for matched edges.  This is
    the zero-copy entry for the online simulator's incremental pair view:
    the rows are maintained across rounds, so a solve allocates nothing
    but its match arrays.

    ``warm_start`` here is pair-level: ``{left_vertex: right_vertex}``
    from a previous solve.  Pairs no longer adjacent (or conflicting) are
    skipped; the rest seed the matching, which the usual phases repair to
    maximum.

    Returns
    -------
    dict
        ``{left_vertex: payload}`` for every matched left vertex.
    """
    seeds = []
    if warm_start:
        for u in sorted(warm_start):
            if not 0 <= u < n_left:
                continue
            v = warm_start[u]
            row = adj_rows[u]
            try:
                idx = row.index(v)
            except ValueError:
                continue
            seeds.append((u, v, payload_rows[u][idx]))
    return _hk_rows(n_left, n_right, adj_rows, payload_rows, seeds, stats)


def _hk_rows(
    n_left: int,
    n_right: int,
    adj_rows: List[List[int]],
    payload_rows: List[List[int]],
    seeds: List[Tuple[int, int, int]],
    stats: Optional[Dict[str, int]],
) -> Dict[int, int]:
    """The Hopcroft–Karp kernel over per-left-vertex rows.

    ``seeds`` are ``(u, v, payload)`` warm-start edges in ascending
    ``u``; a seed whose left or right vertex is already claimed is
    skipped, so the first claim on a right vertex wins.  Returns
    ``{left_vertex: payload}`` for every matched left vertex.
    """
    match_left: List[int] = [-1] * n_left
    match_right: List[int] = [-1] * n_right
    pay_left: List[int] = [-1] * n_left

    for u, v, payload in seeds:
        if match_left[u] != -1 or match_right[v] != -1:
            continue
        match_left[u] = v
        match_right[v] = u
        pay_left[u] = payload
    # Greedy first-fit extension.  From an empty matching this is exactly
    # Hopcroft–Karp's first phase (all layers zero), so cold solves skip
    # one BFS pass without changing the result; after a warm seed it fills
    # the uncovered left vertices cheaply so the repair phases start from
    # a near-maximum matching.
    for u in range(n_left):
        if match_left[u] != -1:
            continue
        i = 0
        for v in adj_rows[u]:
            if match_right[v] == -1:
                match_left[u] = v
                match_right[v] = u
                pay_left[u] = payload_rows[u][i]
                break
            i += 1

    dist: List[int] = [0] * n_left

    def bfs() -> bool:
        if stats is not None:
            stats["bfs_phases"] = stats.get("bfs_phases", 0) + 1
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            du = dist[u]
            for v in adj_rows[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = du + 1
                    queue.append(w)
        return found

    def dfs(root: int) -> bool:
        stack: List[List[int]] = [[root, 0]]
        path: List[tuple[int, int, int]] = []
        while stack:
            frame = stack[-1]
            u, idx = frame
            row = adj_rows[u]
            end = len(row)
            advanced = False
            while idx < end:
                v = row[idx]
                idx += 1
                frame[1] = idx
                w = match_right[v]
                if w == -1:
                    path.append((u, v, payload_rows[u][idx - 1]))
                    for pu, pv, pp in path:
                        match_left[pu] = pv
                        match_right[pv] = pu
                        pay_left[pu] = pp
                    return True
                if dist[w] == dist[u] + 1:
                    path.append((u, v, payload_rows[u][idx - 1]))
                    stack.append([w, 0])
                    advanced = True
                    break
            if not advanced:
                dist[u] = _INF
                stack.pop()
                if path:
                    path.pop()
        return False

    while bfs():
        for u in range(n_left):
            if match_left[u] == -1:
                if dfs(u) and stats is not None:
                    stats["augmentations"] = stats.get("augmentations", 0) + 1

    return {u: pay_left[u] for u in range(n_left) if match_left[u] != -1}


def maximum_matching_size(graph: BipartiteMultigraph) -> int:
    """Size of a maximum matching."""
    return len(max_cardinality_matching(graph))
