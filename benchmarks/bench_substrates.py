"""Substrate ablations — matching, edge coloring, and LP backends.

The paper used LEMON (C++) and Gurobi; these benches document what our
from-scratch replacements cost at simulation scale (150x150 waiting
graphs, scheduling LPs) so users can judge the paper-scale runtime.

Run:  pytest benchmarks/bench_substrates.py --benchmark-only -s
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp.model import LinearProgram, port_rows
from repro.lp.solver import solve_lp
from repro.matching.bipartite import BipartiteMultigraph
from repro.matching.bvn import decompose_into_matchings
from repro.matching.edge_coloring import edge_color_bipartite
from repro.matching.hopcroft_karp import max_cardinality_matching
from repro.matching.weight_matching import max_weight_matching


def _random_graph(m: int, n_edges: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    g = BipartiteMultigraph(m, m)
    us = rng.integers(0, m, size=n_edges)
    vs = rng.integers(0, m, size=n_edges)
    for u, v in zip(us, vs):
        g.add_edge(int(u), int(v))
    return g


@pytest.mark.parametrize("m,edges", [(150, 600), (150, 2400)])
def test_bench_hopcroft_karp(benchmark, m, edges):
    """MaxCard's per-round cost at the paper's 150x150 scale."""
    g = _random_graph(m, edges)
    benchmark(lambda: max_cardinality_matching(g))


@pytest.mark.parametrize("m,edges", [(150, 600)])
def test_bench_max_weight_matching(benchmark, m, edges):
    """MinRTime/MaxWeight per-round cost (dense assignment solve)."""
    rng = np.random.default_rng(1)
    pairs = [
        (int(rng.integers(0, m)), int(rng.integers(0, m)))
        for _ in range(edges)
    ]
    weights = rng.integers(1, 50, size=edges).astype(float).tolist()
    benchmark(lambda: max_weight_matching(m, m, pairs, weights))


@pytest.mark.parametrize("m,edges", [(64, 512)])
def test_bench_edge_coloring(benchmark, m, edges):
    """Theorem 1's BvN engine."""
    g = _random_graph(m, edges, seed=2)
    benchmark(lambda: edge_color_bipartite(g))


def test_bench_bvn_decomposition(benchmark):
    g = _random_graph(64, 512, seed=3)
    benchmark(lambda: decompose_into_matchings(g))


def _scheduling_lp(n_flows: int, horizon: int, m: int, seed: int = 4):
    """A unit LP (5)-(8)-like model with per-round capacity rows."""
    rng = np.random.default_rng(seed)
    draws = [
        (rng.integers(0, m), rng.integers(0, m), rng.integers(0, horizon // 2))
        for _ in range(n_flows)
    ]
    src, dst, release = (np.array(d, dtype=np.int64) for d in zip(*draws))
    lengths = horizon - release
    flow = np.repeat(np.arange(n_flows), lengths)
    t = release[flow] + np.arange(flow.size) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    in_row, in_port = port_rows(src[flow], t)
    out_row, out_port = port_rows(dst[flow], t)
    rows = np.stack(
        [flow, n_flows + in_row, n_flows + in_port.size + out_row], axis=1
    )
    values = np.tile([-1.0, 1.0, 1.0], (flow.size, 1))
    num_rows = n_flows + in_port.size + out_port.size
    upper = np.ones(num_rows)
    upper[:n_flows] = -1.0
    cost = t - release[flow] + 0.5
    lower = np.full(num_rows, -np.inf)
    return LinearProgram.from_columns(cost, rows, values, lower, upper)


@pytest.mark.parametrize("backend", ["highs", "highs-ds"])
def test_bench_lp_backends(benchmark, backend):
    """Scheduling-LP solve cost per backend (Gurobi substitution)."""
    lp = _scheduling_lp(n_flows=60, horizon=30, m=10)
    benchmark.pedantic(
        lambda: solve_lp(lp, backend=backend), rounds=3, iterations=1
    )


def test_bench_lp_simplex_small(benchmark):
    """Our dense simplex on a small scheduling LP (cross-check backend)."""
    lp = _scheduling_lp(n_flows=12, horizon=10, m=4)
    benchmark.pedantic(
        lambda: solve_lp(lp, backend="simplex"), rounds=3, iterations=1
    )
