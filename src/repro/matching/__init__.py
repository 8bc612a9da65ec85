"""Bipartite graph algorithms (the paper used the LEMON C++ library).

Everything the scheduling algorithms need from graph theory, implemented
from scratch except the dense assignment solve, which is SciPy's:

* :mod:`repro.matching.bipartite` — bipartite (multi)graph container;
* :mod:`repro.matching.hopcroft_karp` — maximum-cardinality matching
  (used by the MaxCard heuristic and by König edge coloring);
* :mod:`repro.matching.batch_hk` — trials-axis batched Hopcroft–Karp
  over stacked block-diagonal graphs (used by the trial-batched online
  engine);
* :mod:`repro.matching.weight_matching` — maximum-weight bipartite
  matching as a dense assignment solved by SciPy's compiled
  shortest-augmenting-path method (used by the MinRTime and MaxWeight
  heuristics);
* :mod:`repro.matching.edge_coloring` — König Δ-edge-coloring of bipartite
  multigraphs (the constructive Birkhoff–von Neumann step of Theorem 1);
* :mod:`repro.matching.bvn` — Birkhoff–von-Neumann-style decomposition of
  degree-bounded bipartite multigraphs into matchings;
* :mod:`repro.matching.b_matching` — the port-replication reduction from
  b-matchings to matchings used in the general-capacity case of Theorem 1.
"""

from repro.matching.bipartite import BipartiteMultigraph, EdgeView
from repro.matching.hopcroft_karp import (
    max_cardinality_matching,
    max_cardinality_matching_adjacency,
    max_cardinality_matching_arrays,
)
from repro.matching.batch_hk import max_cardinality_matching_batch
from repro.matching.weight_matching import max_weight_matching
from repro.matching.edge_coloring import edge_color_bipartite
from repro.matching.bvn import decompose_into_matchings
from repro.matching.b_matching import replicate_ports, project_coloring
from repro.matching.vertex_cover import (
    certify_maximum_matching,
    is_vertex_cover,
    minimum_vertex_cover,
)

__all__ = [
    "minimum_vertex_cover",
    "is_vertex_cover",
    "certify_maximum_matching",
    "BipartiteMultigraph",
    "EdgeView",
    "max_cardinality_matching",
    "max_cardinality_matching_adjacency",
    "max_cardinality_matching_arrays",
    "max_cardinality_matching_batch",
    "max_weight_matching",
    "edge_color_bipartite",
    "decompose_into_matchings",
    "replicate_ports",
    "project_coloring",
]
