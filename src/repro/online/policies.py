"""Online scheduling policies (paper §5.2.1).

The three heuristics the paper evaluates, plus a FIFO baseline:

* **MaxCard** — extract a maximum-cardinality matching from ``G_t``:
  "guaranteed to keep the largest number of ports busy during each step";
* **MinRTime** — maximum-weight matching with edge weight ``t - r_e``
  (the flow's waiting time), prioritizing long-waiting flows;
* **MaxWeight** — maximum-weight matching with edge weight equal to the
  sum of queue sizes at the flow's two endpoints;
* **FIFO** — greedily pack flows in release order (baseline; FIFO is the
  classical (3 - 2/m)-competitive rule for max response on machines).

For unit capacities and unit demands the policies use the exact matching
algorithms from :mod:`repro.matching`.  For general capacities/demands
each policy falls back to a greedy weight-ordered packing of the same
edge weights (documented extension — the paper's experiments are all
unit-capacity).

Every policy implements ``select(t, queue, instance)`` against the
simulator's incremental :class:`~repro.online.simulator.FlowQueue` and
returns the chosen fids as an int64 array.  Weights are computed
vectorized over the queue arrays, and the matching policies first
**deduplicate parallel flows per port pair** (at most one copy of a pair
can be matched; the kernels deterministically match the earliest-arrived
copy), so the matching kernel runs on a graph bounded by ``m * m'``
edges regardless of queue depth.  The selections are identical to the
seed's per-flow implementation — same flows, same rounds — which
``tests/test_simulator_equivalence.py`` keeps as the reference.

``MaxCardPolicy(warm_start=True)`` additionally carries the matched port
pairs over to the next round and repairs them instead of re-solving from
an empty matching.  Warm starts change which maximum matching is chosen
when several exist, so this mode is opt-in; the default remains
byte-identical to the seed simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.instance import Instance
from repro.matching.hopcroft_karp import max_cardinality_matching_adjacency
from repro.matching.weight_matching import max_weight_matching
from repro.utils.timing import measure


class OnlinePolicy:
    """Interface: per-round selection of waiting flows to schedule."""

    #: Display name used in experiment tables (overridden per subclass).
    name = "abstract"

    #: Counter sink bound by the simulator (optional).
    _stats: Optional[Dict[str, int]] = None

    def reset(self, instance: Instance) -> None:
        """Called once before a simulation starts."""

    def bind_runtime(self, stats: Optional[Dict[str, int]]) -> None:
        """Attach the simulator's counter sink (may be ``None``)."""
        self._stats = stats

    def select(self, t: int, queue, instance: Instance) -> np.ndarray:
        """Return the fids to schedule in round ``t`` (must be feasible).

        ``queue`` is the simulator's :class:`~repro.online.simulator.
        FlowQueue` of waiting flows (arrival-ordered fid arrays plus the
        incremental pair view and per-port counts).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _bump(self, name: str, k: int = 1) -> None:
        if self._stats is not None:
            self._stats[name] = self._stats.get(name, 0) + k

    def _weights(
        self, t: int, fids: np.ndarray, queue, instance: Instance
    ) -> np.ndarray:
        """Edge weights of the waiting flows ``fids`` (policy-specific)."""
        raise NotImplementedError

    def _pair_weights(
        self, t: int, heads: np.ndarray, queue, instance: Instance
    ) -> np.ndarray:
        """Weights of the per-pair representative flows (vectorized)."""
        raise NotImplementedError

    def _select_matching(
        self, t: int, queue, instance: Instance
    ) -> np.ndarray:
        """Max-weight matching over the queue's incremental pair view.

        The pair representative (earliest-arrived copy) is exactly the
        copy the seed's dense-matrix construction kept — the heaviest,
        ties to the lowest edge id — because every built-in weight is
        non-increasing in arrival time within a pair.  So the assignment
        solve sees the same matrix and selects the same flows, at
        O(#pairs) instead of O(queue) per round.
        """
        heads = queue.pair_heads()
        w = self._pair_weights(t, heads, queue, instance)
        us = queue.srcs[heads]
        vs = queue.dsts[heads]
        with measure("matching_solve"):
            matching = max_weight_matching(
                instance.switch.num_inputs,
                instance.switch.num_outputs,
                np.column_stack((us, vs)),
                w,
            )
        self._bump("matching_solves")
        if not matching:
            return np.empty(0, dtype=np.int64)
        local = np.fromiter(matching.values(), dtype=np.int64, count=len(matching))
        return heads[local]

    def _select_packing(
        self, t: int, queue, instance: Instance
    ) -> np.ndarray:
        """Greedy weight-ordered packing for general capacities
        (vectorized weights; the loop runs only over the order)."""
        fids = queue.alive_fids()
        w = self._weights(t, fids, queue, instance)
        order = np.argsort(-w, kind="stable")
        srcs = queue.srcs[fids].tolist()
        dsts = queue.dsts[fids].tolist()
        demands = queue.demands[fids].tolist()
        weights = w.tolist()
        fid_list = fids.tolist()
        in_res = instance.switch.input_capacities.tolist()
        out_res = instance.switch.output_capacities.tolist()
        chosen: List[int] = []
        for idx in order.tolist():
            if weights[idx] <= 0:
                continue
            s, d, dem = srcs[idx], dsts[idx], demands[idx]
            if in_res[s] >= dem and out_res[d] >= dem:
                in_res[s] -= dem
                out_res[d] -= dem
                chosen.append(fid_list[idx])
        return np.asarray(chosen, dtype=np.int64)

    def _select_by_weight(
        self, t: int, queue, instance: Instance
    ) -> np.ndarray:
        """Dispatch between matching (unit) and packing (general)."""
        if queue.unit_capacity:
            return self._select_matching(t, queue, instance)
        return self._select_packing(t, queue, instance)


class MaxCardPolicy(OnlinePolicy):
    """Maximum-cardinality matching each round (paper's MaxCard).

    Parameters
    ----------
    warm_start:
        When True, the matched port pairs of the previous round seed the
        next round's Hopcroft–Karp solve (pairs that still have waiting
        flows are kept and repaired instead of re-derived).  The result
        is still a maximum matching every round, but possibly a
        *different* one than a cold solve when several exist — so this is
        opt-in; the default is byte-identical to the seed simulator.
    """

    name = "MaxCard"

    def __init__(self, warm_start: bool = False):
        self.warm_start = warm_start
        self._prev_pairs: Dict[int, int] = {}

    def reset(self, instance: Instance) -> None:
        self._prev_pairs = {}

    def select(self, t, queue, instance):
        if not queue.unit_capacity:
            # Packing with unit weights greedily keeps ports busy.
            return self._select_packing(t, queue, instance)
        adj_rows, head_rows = queue.pair_adjacency()
        warm = None
        if self.warm_start and self._prev_pairs:
            warm = self._prev_pairs
            self._bump("warm_start_seeds", len(warm))
        with measure("matching_solve"):
            matching = max_cardinality_matching_adjacency(
                instance.switch.num_inputs,
                instance.switch.num_outputs,
                adj_rows,
                head_rows,
                warm_start=warm,
                stats=self._stats,
            )
        self._bump("matching_solves")
        if not matching:
            return np.empty(0, dtype=np.int64)
        chosen = np.fromiter(
            matching.values(), dtype=np.int64, count=len(matching)
        )
        if self.warm_start:
            self._prev_pairs = dict(
                zip(matching.keys(), queue.dsts[chosen].tolist())
            )
        return chosen

    def _weights(self, t, fids, queue, instance):
        return np.ones(fids.size)


class MinRTimePolicy(OnlinePolicy):
    """Max-weight matching by waiting time (paper's MinRTime).

    The paper assigns weight ``t - r_e``; we use ``t - r_e + 1`` so that
    freshly released flows (weight 0 otherwise) remain matchable —
    with the paper's literal weights a round-1 arrival could never be
    scheduled in its arrival round, inflating response times by 1
    across the board.
    """

    name = "MinRTime"

    def select(self, t, queue, instance):
        return self._select_by_weight(t, queue, instance)

    def _weights(self, t, fids, queue, instance):
        return (t - queue.releases[fids] + 1).astype(np.float64)

    def _pair_weights(self, t, heads, queue, instance):
        # The representative is the pair's oldest waiting flow, i.e. the
        # heaviest copy under the age weight — matching the seed's
        # keep-the-heaviest dedup rule.
        return (t - queue.releases[heads] + 1).astype(np.float64)


class MaxWeightPolicy(OnlinePolicy):
    """Max-weight matching by endpoint queue lengths (paper's MaxWeight)."""

    name = "MaxWeight"

    def select(self, t, queue, instance):
        return self._select_by_weight(t, queue, instance)

    def _weights(self, t, fids, queue, instance):
        us = queue.srcs[fids]
        vs = queue.dsts[fids]
        return (np.bincount(us)[us] + np.bincount(vs)[vs]).astype(np.float64)

    def _pair_weights(self, t, heads, queue, instance):
        # Queue-length weights are identical across a pair's copies, so
        # the pair representative carries the pair's (unique) weight.
        in_q, out_q = queue.port_queue_lengths()
        return (
            in_q[queue.srcs[heads]] + out_q[queue.dsts[heads]]
        ).astype(np.float64)


class RandomPolicy(OnlinePolicy):
    """Random maximal matching/packing (scientific control baseline).

    Not in the paper; included as the null hypothesis for the heuristic
    comparisons — any policy worth its table row should beat it.
    Deterministic per (seed, round) so simulations stay reproducible.
    """

    name = "Random"

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self, instance: Instance) -> None:
        self._rng = np.random.default_rng(self._seed)

    def select(self, t, queue, instance):
        return self._select_packing(t, queue, instance)

    def _weights(self, t, fids, queue, instance):
        # Random priorities in (0, 1]; packing keeps the result maximal.
        # One vector of len(waiting) uniforms per round.
        return self._rng.random(fids.size) + 1e-9


class FifoPolicy(OnlinePolicy):
    """Greedy earliest-release packing (baseline, not in the paper's trio)."""

    name = "FIFO"

    def select(self, t, queue, instance):
        return self._select_packing(t, queue, instance)

    def _weights(self, t, fids, queue, instance):
        # Older flows get strictly larger weight; +1 keeps weights positive.
        return (t - queue.releases[fids] + 1).astype(np.float64)


#: Name → constructor registry used by the experiment harness and CLI.
POLICY_REGISTRY = {
    "MaxCard": MaxCardPolicy,
    "MinRTime": MinRTimePolicy,
    "MaxWeight": MaxWeightPolicy,
    "FIFO": FifoPolicy,
    "Random": RandomPolicy,
}


def make_policy(name: str) -> OnlinePolicy:
    """Instantiate a policy by registry name."""
    try:
        return POLICY_REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {sorted(POLICY_REGISTRY)}"
        ) from None
