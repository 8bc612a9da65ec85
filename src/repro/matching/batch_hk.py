"""Trials-axis batched Hopcroft–Karp (stacked block-diagonal solves).

The trial-batched online engine (:mod:`repro.online.batch`) stacks N
disjoint per-trial matching problems onto the virtual ports of one tiled
switch.  The resulting bipartite graph is **block diagonal** — edges
never cross trial blocks — so one stacked solve with per-trial masks can
replace N independent Hopcroft–Karp runs: every BFS layering and every
greedy-seed round becomes a handful of NumPy passes over the whole
stack, and only the (rare, short) augmenting-path walks stay in Python.

:func:`max_cardinality_matching_batch` is byte-identical, per trial
block, to running :func:`repro.matching.hopcroft_karp.
max_cardinality_matching_adjacency` on that trial's rows:

* the **greedy first-fit seed** (each free left vertex takes its first
  free neighbor, in ascending vertex order) is reformulated as greedy
  edge matching over CSR-ordered edges and executed as parallel rounds
  of the reversed-scatter first-occurrence trick — the same
  parallel-greedy argument the batched packing kernels use, so the
  union over rounds equals the sequential scan exactly;
* the **BFS phase** is level-synchronous over the whole stack: the
  frontier starts at every free left vertex of every still-active
  trial, and one gather per level advances all trials at once.  Level-
  synchronous exploration assigns the same shortest-path layers as the
  sequential queue-based BFS, so the DFS sees identical ``dist``
  labels;
* a trial **drops out of the frontier** the first phase its BFS finds
  no augmenting path (its matching is maximum) — exactly when its solo
  loop would terminate — which also makes ``bfs_phases`` and
  ``augmentations`` attributable per trial;
* **warm starts** seed per-trial ``{left: right}`` pairs with the same
  validate-then-claim order as the solo kernel (ascending left vertex,
  first claim on a right vertex wins).

Because the blocks are disjoint, interleaving trials changes nothing:
every per-trial projection of the stacked state equals the state of
that trial's solo solve after the same number of steps.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.matching.hopcroft_karp import _INF


def max_cardinality_matching_batch(
    n_left: int,
    n_right: int,
    us: np.ndarray,
    vs: np.ndarray,
    trial_of_left: np.ndarray,
    trial_of_right: np.ndarray,
    n_trials: int,
    warm_start: Optional[Dict[int, int]] = None,
    bfs_phases: Optional[np.ndarray] = None,
    augmentations: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Maximum-cardinality matching of a stacked block-diagonal graph.

    Parameters
    ----------
    n_left / n_right:
        Total (stacked) left/right vertex counts.
    us / vs:
        Edge endpoint arrays.  Edges incident on the same left vertex
        must appear in that vertex's adjacency (tie-breaking) order;
        the CSR build below preserves it with a stable sort.  Every
        edge must stay inside one trial block
        (``trial_of_left[us[i]] == trial_of_right[vs[i]]``).
    trial_of_left / trial_of_right:
        Owning trial per stacked left/right vertex.
    n_trials:
        Number of trial blocks.
    warm_start:
        Optional merged ``{left_vertex: right_vertex}`` seed (pair
        level, like the adjacency solo entry point).  Entries whose
        pair is no longer adjacent, or that conflict with an earlier
        seeded entry, are silently skipped — identical validation
        order to the solo kernel.
    bfs_phases / augmentations:
        Optional ``int64[n_trials]`` accumulators.  For each trial that
        owns at least one edge, incremented exactly as that trial's
        solo ``stats`` dict would be (one per BFS layering pass, one
        per augmenting path applied).  Trials with no edges are not
        touched — their solo solve would never have been invoked.

    Returns
    -------
    np.ndarray
        ``int64[n_left]``: the matched edge's index into ``us``/``vs``
        per left vertex, ``-1`` where unmatched.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    edge_left = np.full(n_left, -1, dtype=np.int64)
    if us.size == 0 or n_left == 0:
        return edge_left

    # CSR over the stack; stable sort keeps each row in input order.
    order = np.argsort(us, kind="stable")
    csr_u = us[order]
    csr_v = vs[order]
    csr_e = order
    indptr = np.zeros(n_left + 1, dtype=np.int64)
    np.cumsum(np.bincount(us, minlength=n_left), out=indptr[1:])

    match_left = np.full(n_left, -1, dtype=np.int64)
    match_right = np.full(n_right, -1, dtype=np.int64)

    if warm_start:
        # Ascending left vertex = per-trial ascending order (blocks are
        # disjoint), mirroring the solo kernel's seeding sequence.
        for u in sorted(warm_start):
            if not 0 <= u < n_left:
                continue
            v = warm_start[u]
            s, e = int(indptr[u]), int(indptr[u + 1])
            hits = np.flatnonzero(csr_v[s:e] == v)
            if hits.size == 0:
                continue
            if match_left[u] != -1 or match_right[v] != -1:
                continue
            match_left[u] = v
            match_right[v] = u
            edge_left[u] = csr_e[s + int(hits[0])]

    # ------------------------------------------------------------------
    # Vectorized greedy first-fit seed.  Sequential first-fit (ascending
    # u, first free neighbor in row order) equals greedy *edge* matching
    # over slots sorted by (u, row position) — i.e. ascending CSR slot —
    # which parallelizes as rounds of "take every slot that is first
    # among the remaining on both its endpoints" (reversed-scatter
    # first-occurrence), exactly like the unit packing kernel.
    # ------------------------------------------------------------------
    cand = np.flatnonzero(
        (match_left[csr_u] == -1) & (match_right[csr_v] == -1)
    )
    slot_l = np.empty(n_left, dtype=np.int64)
    slot_r = np.empty(n_right, dtype=np.int64)
    while cand.size:
        uu = csr_u[cand]
        vv = csr_v[cand]
        idx = np.arange(cand.size, dtype=np.int64)
        rev = idx[::-1]
        slot_l[uu[::-1]] = rev
        slot_r[vv[::-1]] = rev
        take = (slot_l[uu] == idx) & (slot_r[vv] == idx)
        tslots = cand[take]
        match_left[csr_u[tslots]] = csr_v[tslots]
        match_right[csr_v[tslots]] = csr_u[tslots]
        edge_left[csr_u[tslots]] = csr_e[tslots]
        slot_l[uu[take]] = -1
        slot_r[vv[take]] = -1
        cand = cand[(slot_l[uu] >= 0) & (slot_r[vv] >= 0)]

    # Trials owning at least one edge participate; the rest are never
    # entered (their solo solve would not have been called).
    active = np.zeros(n_trials, dtype=bool)
    active[trial_of_left[us]] = True

    # Lazily converted CSR lists for the Python DFS walks.
    indptr_l = csr_v_l = csr_e_l = None
    tol_list: Optional[list] = None

    while active.any():
        if bfs_phases is not None:
            bfs_phases[active] += 1
        # --------------------------------------------------------------
        # Level-synchronous BFS across all active trials.  Shortest-path
        # layers are order-independent, so the stacked dist labels equal
        # each trial's solo queue-based BFS labels exactly.
        # --------------------------------------------------------------
        dist = np.full(n_left, _INF, dtype=np.int64)
        frontier = np.flatnonzero(
            (match_left == -1) & active[trial_of_left]
        )
        dist[frontier] = 0
        found = np.zeros(n_trials, dtype=bool)
        level = 0
        while frontier.size:
            counts = indptr[frontier + 1] - indptr[frontier]
            nz = counts > 0
            fr = frontier[nz]
            cnt = counts[nz]
            if fr.size == 0:
                break
            # Gather all CSR slots of the frontier in one pass.
            starts = indptr[fr]
            total = int(cnt.sum())
            step = np.ones(total, dtype=np.int64)
            step[0] = starts[0]
            cum = np.cumsum(cnt)
            step[cum[:-1]] = starts[1:] - (starts[:-1] + cnt[:-1]) + 1
            slots = np.cumsum(step)
            vv = csr_v[slots]
            ww = match_right[vv]
            free_right = ww == -1
            if free_right.any():
                found[trial_of_right[vv[free_right]]] = True
            nxt = ww[~free_right]
            nxt = nxt[dist[nxt] == _INF]
            if nxt.size == 0:
                break
            dist[nxt] = level + 1
            frontier = np.unique(nxt)
            level += 1

        active = found
        if not found.any():
            break
        # --------------------------------------------------------------
        # Layered DFS augmentation, Python, only over the free left
        # vertices of trials whose BFS found a path.  Ascending stacked
        # vertex order = per-trial ascending order.  Other trials' free
        # vertices have dist == _INF frontier exclusion, so the walks
        # can never cross blocks.
        # --------------------------------------------------------------
        if indptr_l is None:
            indptr_l = indptr.tolist()
            csr_v_l = csr_v.tolist()
            csr_e_l = csr_e.tolist()
            tol_list = trial_of_left.tolist()
        dist_l = dist.tolist()
        targets = np.flatnonzero(
            (match_left == -1) & found[trial_of_left]
        )
        for root in targets.tolist():
            if _dfs_augment(
                root, indptr_l, csr_v_l, csr_e_l,
                match_left, match_right, edge_left, dist_l,
            ) and augmentations is not None:
                augmentations[tol_list[root]] += 1

    return edge_left


def _dfs_augment(
    root: int,
    indptr: list,
    csr_v: list,
    csr_e: list,
    match_left: np.ndarray,
    match_right: np.ndarray,
    edge_left: np.ndarray,
    dist: list,
) -> bool:
    """One augmenting walk — the solo kernel's iterative DFS, walking the
    stacked CSR by cursor instead of per-vertex rows (match arrays stay
    NumPy: walks are short and rare, so scalar access is off the hot
    path)."""
    stack = [[root, indptr[root]]]
    path = []  # (u, v, slot) tentative augments
    while stack:
        frame = stack[-1]
        u, idx = frame
        end = indptr[u + 1]
        advanced = False
        while idx < end:
            v = csr_v[idx]
            slot = idx
            idx += 1
            frame[1] = idx
            w = int(match_right[v])
            if w == -1:
                path.append((u, v, slot))
                for pu, pv, pslot in path:
                    match_left[pu] = pv
                    match_right[pv] = pu
                    edge_left[pu] = csr_e[pslot]
                return True
            if dist[w] == dist[u] + 1:
                path.append((u, v, slot))
                stack.append([w, indptr[w]])
                advanced = True
                break
        if not advanced:
            dist[u] = _INF
            stack.pop()
            if path:
                path.pop()
    return False
