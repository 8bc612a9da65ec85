"""Maximum-weight bipartite matching (not necessarily perfect).

The paper's **MinRTime** and **MaxWeight** heuristics both extract a
maximum-weight matching from the waiting graph each round, with different
edge weights (flow age, and endpoint queue sizes, respectively).

Algorithm: a dense rectangular assignment solved by
:func:`scipy.optimize.linear_sum_assignment`, SciPy's compiled
shortest-augmenting-path method (Crouse, "On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016).  Maximum-weight *matching*
reduces to assignment by treating absent edges as weight 0 and discarding
zero-weight pairs afterwards: with nonnegative weights, leaving a vertex
unmatched and matching it through a weight-0 "phantom" edge are
equivalent.  Everything around the solve — input checks, the
keep-the-heaviest rule for parallel edges and the result mapping — is
array operations.  On a 2-vCPU Intel Xeon host with SciPy 1.17.1 a call
takes 0.04-0.09 ms on a 24x24 waiting graph with 81 edges and
0.9-1.5 ms on the paper's 150x150 with 3000 edges
(``benchmarks/bench_matching.py``).

When weights tie, several matchings are optimal; which one is returned is
whatever the solver picks (the paper fixes no tie rule).  The total
weight is always the optimum.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment


def solve_dense_assignment(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost rectangular assignment (rows <= cols all assigned).

    Parameters
    ----------
    cost:
        ``(n, m)`` float array with ``n <= m``; every row is assigned to a
        distinct column minimizing total cost.

    Returns
    -------
    ndarray
        ``col_of_row`` of shape ``(n,)``.

    Notes
    -----
    A thin wrapper over :func:`scipy.optimize.linear_sum_assignment`.
    With ``n <= m`` SciPy returns the rows in order ``0..n-1``, so its
    column array is ``col_of_row``.  Among tied optima the choice is
    SciPy's.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n > m:
        raise ValueError(f"need n <= m, got shape {cost.shape}")
    _, col_of_row = linear_sum_assignment(cost)
    return col_of_row


def max_weight_matching(
    n_left: int,
    n_right: int,
    edges: "Sequence[tuple[int, int]] | np.ndarray",
    weights: "Sequence[float] | np.ndarray",
) -> Dict[int, int]:
    """Maximum-weight matching of a bipartite graph.

    Parameters
    ----------
    n_left / n_right:
        Vertex counts.
    edges:
        ``(u, v)`` pairs, as a sequence of tuples or a ``(k, 2)`` integer
        array; parallel edges are allowed (the heaviest copy is the only
        one that can win, ties going to the lowest edge id).
    weights:
        Finite, nonnegative weight per edge, aligned with ``edges``.

    Returns
    -------
    dict
        ``{left_vertex: edge_index}`` (plain ``int`` keys and values) for
        every matched left vertex whose matched edge has strictly positive
        weight.
    """
    pairs = np.asarray(edges)
    w = np.asarray(weights, dtype=np.float64)
    if len(pairs) != len(w):
        raise ValueError("edges and weights must have equal length")
    if n_left == 0 or n_right == 0 or len(pairs) == 0:
        return {}
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError("edges must be integer (u, v) pairs")
    pairs = pairs.astype(np.int64, copy=False)
    bad = ~np.isfinite(w)
    if bad.any():
        raise ValueError(f"weights must be finite, got {w[bad][0]}")
    bad = w < 0
    if bad.any():
        raise ValueError(f"weights must be nonnegative, got {w[bad][0]}")
    us = pairs[:, 0]
    vs = pairs[:, 1]
    bad = (us < 0) | (us >= n_left) | (vs < 0) | (vs >= n_right)
    if bad.any():
        u, v = pairs[bad][0].tolist()
        raise ValueError(f"edge ({u}, {v}) out of range")

    # Dense weight matrix; keep the *heaviest* parallel edge and its id.
    # A stable sort by (cell, -weight) puts each cell's winner first,
    # ties in edge-id order.
    cell = us * n_right + vs
    order = np.lexsort((-w, cell))
    cell_sorted = cell[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = cell_sorted[1:] != cell_sorted[:-1]
    winners = order[first]
    weight_mat = np.zeros((n_left, n_right))
    eid_mat = np.full((n_left, n_right), -1, dtype=np.int64)
    weight_mat[us[winners], vs[winners]] = w[winners]
    eid_mat[us[winners], vs[winners]] = winners

    transposed = n_left > n_right
    mat = weight_mat.T if transposed else weight_mat
    # Maximize weight == minimize negated weight.
    assignment = solve_dense_assignment(-mat)
    rows = np.arange(len(assignment))
    u, v = (assignment, rows) if transposed else (rows, assignment)
    keep = weight_mat[u, v] > 0
    u = u[keep]
    return dict(zip(u.tolist(), eid_mat[u, v[keep]].tolist()))


def matching_weight(
    matching: Dict[int, int], weights: Sequence[float]
) -> float:
    """Total weight of a matching returned by :func:`max_weight_matching`."""
    return float(sum(weights[eid] for eid in matching.values()))
