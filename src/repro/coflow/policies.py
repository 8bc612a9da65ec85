"""Co-flow-aware online policies.

All policies here are flow-level :class:`~repro.online.policies.
OnlinePolicy` implementations parameterized by a co-flow *ordering*;
each round they pack waiting flows greedily in priority order (strict
priority between co-flows, arbitrary within), which concentrates switch
capacity on the highest-priority co-flow — the scheduling discipline of
Varys.

* **SEBF** (smallest effective bottleneck first) — priority =
  the co-flow's remaining bottleneck (Varys' heuristic; analogous to
  SRPT at the co-flow granularity);
* **CoflowFIFO** — priority = co-flow release (then id): fairness
  baseline;
* co-flow-*oblivious* baselines come straight from
  :mod:`repro.online.policies` (e.g. MaxCard), which maximize port
  utilization but interleave co-flows and hence delay completions.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.coflow.model import CoflowInstance
from repro.online.policies import OnlinePolicy


class _CoflowOrderedPolicy(OnlinePolicy):
    """Greedy packing by a per-round co-flow priority (lower = first).

    Priorities are computed vectorized over the waiting-flow arrays,
    flows sorted with one ``np.lexsort`` on the ``(priority, cid, fid)``
    key, and the greedy packing loop runs over plain int lists.
    """

    name = "coflow-ordered"

    def __init__(self, cf: CoflowInstance):
        self._cf = cf

    def _coflow_priorities(
        self, t: int, fids: np.ndarray, queue
    ) -> np.ndarray:
        """Priority per co-flow id (full vector; only waiting cids used)."""
        raise NotImplementedError

    def select(self, t, queue, instance):
        fids = queue.alive_fids()
        cids = self._cf.coflow_of[fids]
        prio = self._coflow_priorities(t, fids, queue)
        order = np.lexsort((fids, cids, prio[cids]))
        srcs = queue.srcs[fids].tolist()
        dsts = queue.dsts[fids].tolist()
        demands = queue.demands[fids].tolist()
        fid_list = fids.tolist()
        in_res = instance.switch.input_capacities.tolist()
        out_res = instance.switch.output_capacities.tolist()
        chosen: List[int] = []
        for idx in order.tolist():
            s, d, dem = srcs[idx], dsts[idx], demands[idx]
            if in_res[s] >= dem and out_res[d] >= dem:
                in_res[s] -= dem
                out_res[d] -= dem
                chosen.append(fid_list[idx])
        return np.asarray(chosen, dtype=np.int64)


class CoflowSebfPolicy(_CoflowOrderedPolicy):
    """Smallest Effective Bottleneck First (Varys-style).

    Priority of a co-flow = its *remaining* bottleneck: the max over
    ports of the waiting demand on that port divided by capacity.  SRPT
    intuition: finishing almost-done co-flows first minimizes average
    co-flow response.
    """

    name = "SEBF"

    def _coflow_priorities(self, t, fids, queue):
        # Max over ports of load/capacity, via two bincounts over
        # (cid, port) keys.
        cf = self._cf
        switch = cf.switch
        n_cf = cf.num_coflows
        cids = cf.coflow_of[fids]
        demands = queue.demands[fids]
        m_in = switch.num_inputs
        m_out = switch.num_outputs
        in_load = np.bincount(
            cids * m_in + queue.srcs[fids],
            weights=demands,
            minlength=n_cf * m_in,
        ).reshape(n_cf, m_in)
        out_load = np.bincount(
            cids * m_out + queue.dsts[fids],
            weights=demands,
            minlength=n_cf * m_out,
        ).reshape(n_cf, m_out)
        prio_in = (in_load / switch.input_capacities).max(axis=1)
        prio_out = (out_load / switch.output_capacities).max(axis=1)
        return np.maximum(prio_in, prio_out)


class CoflowFifoPolicy(_CoflowOrderedPolicy):
    """First-released co-flow first (head-of-line discipline)."""

    name = "CoflowFIFO"

    def _coflow_priorities(self, t, fids, queue):
        return self._cf.releases().astype(np.float64)


#: Name → constructor (taking the CoflowInstance) registry.
COFLOW_POLICY_REGISTRY = {
    "SEBF": CoflowSebfPolicy,
    "CoflowFIFO": CoflowFifoPolicy,
}


def make_coflow_policy(name: str, cf: CoflowInstance) -> OnlinePolicy:
    """Instantiate a co-flow policy by name for instance ``cf``."""
    try:
        return COFLOW_POLICY_REGISTRY[name](cf)
    except KeyError:
        raise ValueError(
            f"unknown coflow policy {name!r}; "
            f"available: {sorted(COFLOW_POLICY_REGISTRY)}"
        ) from None
