"""An array-native bipartite multigraph container.

Vertices are integers ``0..n_left-1`` on the left and ``0..n_right-1`` on
the right.  Parallel edges are allowed (the Theorem 1 conversion produces
multigraphs: several unit flows between the same port pair within one
window).  Edges carry an opaque payload (typically a flow id) so matchings
and colorings can be mapped back to flows.

Storage is columnar: two append-buffered ``int64`` arrays (``src``/``dst``,
grown geometrically) plus a payload list, with derived structure —
degrees, Δ, and a CSR adjacency over the left vertices — built lazily on
first use and invalidated by any mutation.  This keeps ``add_edge`` O(1) amortized,
degree queries a single ``np.bincount``, and lets the matching/coloring
kernels and the online simulator consume flat arrays instead of Python
tuple lists.

Back-compat: ``graph.edges`` is a sequence view producing ``(u, v)``
tuples (indexable, iterable, comparable to a list), and ``graph.payloads``
is the payload list, so all pre-existing call sites keep working.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_INITIAL_CAPACITY = 16


class EdgeView:
    """Read-only sequence view of a graph's edges as ``(u, v)`` tuples."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "BipartiteMultigraph"):
        self._graph = graph

    def __len__(self) -> int:
        return self._graph.n_edges

    def __getitem__(self, eid):
        g = self._graph
        if isinstance(eid, slice):
            return [
                (int(u), int(v))
                for u, v in zip(g.src[eid], g.dst[eid])
            ]
        n = g.n_edges
        if eid < 0:
            eid += n
        if not 0 <= eid < n:
            raise IndexError(f"edge id {eid} out of range [0, {n})")
        return (int(g._src[eid]), int(g._dst[eid]))

    def __iter__(self):
        g = self._graph
        return zip(g._src[: g.n_edges].tolist(), g._dst[: g.n_edges].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeView):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeView({list(self)})"


class BipartiteMultigraph:
    """Array-backed bipartite multigraph with lazy CSR adjacency.

    Attributes
    ----------
    n_left / n_right:
        Vertex counts of the two sides.
    edges:
        Sequence view of ``(u, v)`` pairs; index into it is the edge id.
    payloads:
        ``payloads[eid]`` is caller data attached to edge ``eid``.
    src / dst:
        The underlying ``int64`` endpoint arrays (read-only views of the
        live prefix of the append buffers).
    """

    __slots__ = (
        "n_left",
        "n_right",
        "_src",
        "_dst",
        "_n_edges",
        "_payloads",
        "_csr_left",
        "_degrees",
    )

    def __init__(self, n_left: int, n_right: int):
        self.n_left = int(n_left)
        self.n_right = int(n_right)
        self._src = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._dst = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._n_edges = 0
        self._payloads: List[Any] = []
        self._csr_left: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._degrees: Optional[Tuple[np.ndarray, np.ndarray, int]] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _invalidate(self) -> None:
        self._csr_left = None
        self._degrees = None

    def _reserve(self, extra: int) -> None:
        need = self._n_edges + extra
        cap = self._src.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        self._src = np.resize(self._src, cap)
        self._dst = np.resize(self._dst, cap)

    def add_edge(self, u: int, v: int, payload: Any = None) -> int:
        """Append edge ``(u, v)``; returns its edge id."""
        if not 0 <= u < self.n_left:
            raise ValueError(f"left vertex {u} out of range [0, {self.n_left})")
        if not 0 <= v < self.n_right:
            raise ValueError(f"right vertex {v} out of range [0, {self.n_right})")
        self._reserve(1)
        eid = self._n_edges
        self._src[eid] = u
        self._dst[eid] = v
        self._payloads.append(payload)
        self._n_edges = eid + 1
        self._invalidate()
        return eid

    def add_edges(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        payloads: Optional[Sequence[Any]] = None,
    ) -> None:
        """Bulk-append edges from endpoint arrays (vectorized validation).

        ``payloads`` may be any sequence aligned with ``us``/``vs`` (a
        NumPy array of flow ids included); omitted payloads are ``None``.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise ValueError("us and vs must be equal-length 1-D arrays")
        k = us.shape[0]
        if k == 0:
            return
        if us.min() < 0 or us.max() >= self.n_left:
            bad = int(us[(us < 0) | (us >= self.n_left)][0])
            raise ValueError(f"left vertex {bad} out of range [0, {self.n_left})")
        if vs.min() < 0 or vs.max() >= self.n_right:
            bad = int(vs[(vs < 0) | (vs >= self.n_right)][0])
            raise ValueError(f"right vertex {bad} out of range [0, {self.n_right})")
        if payloads is not None and len(payloads) != k:
            raise ValueError("payloads must align with us/vs")
        self._append_unchecked(us, vs, payloads)

    def _append_unchecked(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        payloads: Optional[Sequence[Any]],
    ) -> None:
        k = us.shape[0]
        self._reserve(k)
        n = self._n_edges
        self._src[n : n + k] = us
        self._dst[n : n + k] = vs
        if payloads is None:
            self._payloads.extend([None] * k)
        elif isinstance(payloads, np.ndarray):
            self._payloads.extend(payloads.tolist())
        else:
            self._payloads.extend(payloads)
        self._n_edges = n + k
        self._invalidate()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n_edges(self) -> int:
        """Number of edges (with multiplicity)."""
        return self._n_edges

    @property
    def src(self) -> np.ndarray:
        """Left endpoint per edge id (live prefix of the append buffer)."""
        view = self._src[: self._n_edges]
        view.flags.writeable = False
        return view

    @property
    def dst(self) -> np.ndarray:
        """Right endpoint per edge id (live prefix of the append buffer)."""
        view = self._dst[: self._n_edges]
        view.flags.writeable = False
        return view

    @property
    def edges(self) -> EdgeView:
        """``(u, v)`` tuple view; index into it is the edge id."""
        return EdgeView(self)

    @property
    def payloads(self) -> List[Any]:
        """Caller data per edge id (mutate via ``add_edge`` only)."""
        return self._payloads

    # ------------------------------------------------------------------
    # Degrees (cached, one bincount pass per side)
    # ------------------------------------------------------------------

    def _degree_cache(self) -> Tuple[np.ndarray, np.ndarray, int]:
        if self._degrees is None:
            n = self._n_edges
            left = np.bincount(self._src[:n], minlength=self.n_left)
            right = np.bincount(self._dst[:n], minlength=self.n_right)
            delta = 0
            if n:
                delta = int(max(left.max(), right.max()))
            self._degrees = (left, right, delta)
        return self._degrees

    def left_degrees(self) -> np.ndarray:
        """Degree (with multiplicity) of each left vertex."""
        return self._degree_cache()[0]

    def right_degrees(self) -> np.ndarray:
        """Degree (with multiplicity) of each right vertex."""
        return self._degree_cache()[1]

    def max_degree(self) -> int:
        """Δ over both sides (0 when edgeless).

        Single pass over the edge arrays, cached until the next mutation
        (the seed implementation re-derived both degree vectors on every
        call).
        """
        if self._n_edges == 0:
            return 0
        return self._degree_cache()[2]

    # ------------------------------------------------------------------
    # Adjacency (lazy CSR, invalidated by mutation)
    # ------------------------------------------------------------------

    def csr_left(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency over left vertices: ``(indptr, eids)``.

        ``eids[indptr[u]:indptr[u+1]]`` are the edge ids incident on left
        vertex ``u``, in **edge-insertion order** (stable sort) — the
        traversal order every kernel in this package relies on for
        deterministic tie-breaking.
        """
        if self._csr_left is None:
            self._csr_left = self._build_csr(
                self._src[: self._n_edges], self.n_left
            )
        return self._csr_left

    @staticmethod
    def _build_csr(keys: np.ndarray, n_vertices: int) -> Tuple[np.ndarray, np.ndarray]:
        counts = np.bincount(keys, minlength=n_vertices)
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
        return indptr, order

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def subgraph(self, edge_ids: Iterable[int]) -> "BipartiteMultigraph":
        """Graph on the same vertex sets containing only ``edge_ids``.

        O(k) for k selected edges: endpoints are gathered with one fancy
        index per side, with no per-edge range revalidation (the ids index
        an already-validated graph).
        """
        if isinstance(edge_ids, np.ndarray):
            ids = edge_ids.astype(np.int64, copy=False).reshape(-1)
        else:
            ids = np.fromiter(edge_ids, dtype=np.int64)
        sub = BipartiteMultigraph(self.n_left, self.n_right)
        if ids.size == 0:
            return sub
        if ids.min() < 0 or ids.max() >= self._n_edges:
            raise IndexError("edge id out of range in subgraph selection")
        payloads = self._payloads
        sub._append_unchecked(
            self._src[ids], self._dst[ids], [payloads[i] for i in ids.tolist()]
        )
        return sub

    @staticmethod
    def from_arrays(
        n_left: int,
        n_right: int,
        us: np.ndarray,
        vs: np.ndarray,
        payloads: Optional[Sequence[Any]] = None,
    ) -> "BipartiteMultigraph":
        """Build a graph from endpoint arrays (vectorized ``from_edges``)."""
        g = BipartiteMultigraph(n_left, n_right)
        g.add_edges(us, vs, payloads)
        return g

    @staticmethod
    def from_edges(
        n_left: int,
        n_right: int,
        edges: Iterable[tuple[int, int]],
        payloads: Optional[Iterable[Any]] = None,
    ) -> "BipartiteMultigraph":
        """Build a graph from an edge iterable (payloads optional)."""
        pairs = list(edges)
        g = BipartiteMultigraph(n_left, n_right)
        if payloads is not None:
            # zip semantics of the scalar path: the shorter sequence wins.
            plist = list(payloads)
            pairs = pairs[: len(plist)]
            plist = plist[: len(pairs)]
        if not pairs:
            return g
        arr = np.asarray(pairs, dtype=np.int64)
        g.add_edges(arr[:, 0], arr[:, 1], plist if payloads is not None else None)
        return g

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BipartiteMultigraph({self.n_left}+{self.n_right} vertices, "
            f"{self.n_edges} edges, Δ={self.max_degree()})"
        )
