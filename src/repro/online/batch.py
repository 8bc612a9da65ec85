"""Trial-batched online simulation (structure-of-arrays sweeps).

A Figure-6/7 cell averages N trials of the *same* (M, T) configuration;
running them one :func:`~repro.online.simulator.simulate` call at a time
pays the per-round python/numpy dispatch overhead N times.  This module
executes a cell as **one** merged simulation via virtual-port stacking:

* trial ``i``'s port ``p`` becomes virtual port ``i * m + p`` and its
  flow ``f`` becomes global fid ``offset_i + f``, so the N disjoint
  instances concatenate into a single instance-shaped view over a tiled
  switch (``N*m`` ports, per-trial capacities repeated);
* every per-round kernel — pair dedup, greedy packing, and the
  Hopcroft–Karp matching itself (:func:`~repro.matching.batch_hk.
  max_cardinality_matching_batch`, which exploits the block-diagonal
  structure with per-trial frontier masks) — runs vectorized over the
  merged arrays, one pass per round covering every trial at once;
* because the virtual port sets are disjoint and every kernel breaks
  ties by (stable) fid order, each trial's selections are **byte
  identical** to its solo run: same assignments, same queue history,
  same aggregate metrics, same per-trial stats counters (including the
  Hopcroft–Karp ``bfs_phases`` / ``augmentations`` / ``matching_solves``
  diagnostics, which the stacked solve attributes per trial).

The merged run goes through the same round loop as a solo run
(:func:`repro.online.simulator._run_rounds`) over a plain
:class:`~repro.online.simulator.FlowQueue` of the stacked trials.  This
module supplies only what differs: the stacked arrival rounds, per-trial
round limits, the merged selection kernel, and a per-round record of
per-trial *shadow counters* (queue depth, compactions, matching solves,
drain round) that reproduce each solo run's history and stats.

Batched fast paths exist for FIFO, Random, MaxCard (cold or warm start,
uniform across the batch) and the co-flow SEBF/CoflowFIFO orderings on
any switch, plus MinRTime/MaxWeight on non-unit switches (their unit
path is a per-trial dense assignment solve, and the optimum SciPy picks
among ties on a merged matrix is not guaranteed to project per trial,
so it stays on the fallback).  Every other policy — and any subclass,
mixed-policy batch, or mismatched-switch cell — falls back to per-trial
:func:`simulate` calls with identical results.

When capacities bind (load >= 1, non-unit demands), selection goes
through :func:`_vectorized_capacitated_pack`: greedy residual-capacity
packing reformulated as parallel rounds of segmented prefix sums over
the candidate order, so high-load cells stay off per-flow python loops.

The engine records per-phase events alongside ``sim_round``:
``batch_match`` (the stacked Hopcroft–Karp solve) and ``batch_pack``
(vectorized packing kernels) as phases, and ``batch_select`` (whole-round
selection) as a per-round aggregate on the active Timer only
(:mod:`repro.utils.timing`); batched *generation* is timed by the runner
as ``batch_generate``.  Timings are excluded from the equivalence
contract.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.coflow.policies import CoflowFifoPolicy, CoflowSebfPolicy
from repro.core.instance import Instance
from repro.core.metrics import ScheduleMetrics
from repro.core.schedule import Schedule
from repro.core.switch import Switch
from repro.matching.batch_hk import max_cardinality_matching_batch
from repro.online.policies import (
    FifoPolicy,
    MaxCardPolicy,
    MaxWeightPolicy,
    MinRTimePolicy,
    OnlinePolicy,
    RandomPolicy,
)
from repro.online.simulator import (
    FlowQueue,
    SimulationResult,
    _arrival_rounds,
    _run_rounds,
    simulate,
)
from repro.utils.timing import current_timer, measure


class _BatchView:
    """Instance-shaped view over N stacked trials.

    Duck-types the :class:`~repro.core.instance.Instance` surface the
    simulator and the policies consume (``num_flows``, the four
    attribute vectors, ``.switch``): srcs/dsts are lifted to virtual
    ports, the switch is the per-trial switch tiled N times.
    """

    __slots__ = (
        "switch",
        "num_flows",
        "offsets",
        "trial_of",
        "m_in",
        "m_out",
        "n_trials",
        "_srcs",
        "_dsts",
        "_demands",
        "_releases",
    )

    def __init__(self, instances: Sequence[Instance]):
        base = instances[0].switch
        n = len(instances)
        self.n_trials = n
        self.m_in = base.num_inputs
        self.m_out = base.num_outputs
        self.switch = Switch(
            base.num_inputs * n,
            base.num_outputs * n,
            np.tile(base.input_capacities, n),
            np.tile(base.output_capacities, n),
        )
        counts = np.asarray([inst.num_flows for inst in instances], dtype=np.int64)
        self.offsets = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        self.num_flows = int(self.offsets[-1])
        self.trial_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        self._srcs = np.concatenate(
            [inst.srcs() + i * self.m_in for i, inst in enumerate(instances)]
        )
        self._dsts = np.concatenate(
            [inst.dsts() + i * self.m_out for i, inst in enumerate(instances)]
        )
        self._demands = np.concatenate([inst.demands() for inst in instances])
        self._releases = np.concatenate([inst.releases() for inst in instances])

    def srcs(self) -> np.ndarray:
        return self._srcs

    def dsts(self) -> np.ndarray:
        return self._dsts

    def demands(self) -> np.ndarray:
        return self._demands

    def releases(self) -> np.ndarray:
        return self._releases


def batch_kernel_name(
    instances: Sequence[Instance], policies: Sequence[OnlinePolicy]
) -> Optional[str]:
    """Which merged kernel (if any) a batch would run.

    ``None`` means :func:`simulate_batch` will fall back to per-trial
    :func:`simulate` calls: unbatchable policy (no kernel, subclass,
    MaxCard with *mixed* warm-start flags, unit-capacity MinRTime/
    MaxWeight), mixed policy types, mismatched switches, or a batch too
    small to merge.  Exposed so tests and benchmarks can assert which
    path a configuration takes.
    """
    if len(instances) < 2 or len(instances) != len(policies):
        return None
    cls = type(policies[0])
    if any(type(p) is not cls for p in policies):
        return None
    switch = instances[0].switch
    if any(inst.switch != switch for inst in instances[1:]):
        return None
    if cls is FifoPolicy:
        return "fifo"
    if cls is MaxCardPolicy:
        # Warm starts batch fine (the stacked solve seeds per trial),
        # but only when the whole batch agrees on the mode.
        warm = policies[0].warm_start
        if any(p.warm_start != warm for p in policies[1:]):
            return None
        return "maxcard"
    if cls is MinRTimePolicy:
        # Unit capacity runs a per-trial assignment solve; the optimum
        # picked among ties on a merged matrix need not project per trial.
        return None if switch.is_unit_capacity else "minrtime"
    if cls is MaxWeightPolicy:
        return None if switch.is_unit_capacity else "maxweight"
    if cls is RandomPolicy:
        return "random"
    if cls in (CoflowSebfPolicy, CoflowFifoPolicy):
        for policy, inst in zip(policies, instances):
            cf = policy._cf
            if cf.instance is not inst and cf.instance.digest() != inst.digest():
                return None
        return "coflow"
    return None


def _first_occurrence_mask(keys: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Boolean mask selecting the first occurrence of each key, in order.

    Sort-free: a *reversed* fancy assignment leaves each key's first
    position in ``slot`` (duplicate scatter indices keep the last write,
    and reversing makes the first occurrence the last write).  Only the
    positions just written are read back, so the scratch buffer never
    needs clearing between calls.
    """
    idx = np.arange(keys.size, dtype=np.int64)
    slot[keys[::-1]] = idx[::-1]
    return slot[keys] == idx


def _vectorized_unit_pack(
    cand: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    slot_in: np.ndarray,
    slot_out: np.ndarray,
) -> np.ndarray:
    """Greedy unit-capacity packing of ``cand`` (in greedy order),
    vectorized as parallel rounds.

    Sequential greedy takes a flow iff no earlier-*taken* flow used one
    of its ports — the greedy independent set of the port-conflict
    graph.  Each round here takes every candidate that precedes all its
    remaining conflicts (first in order on both its src and dst, via the
    reversed-scatter trick of :func:`_first_occurrence_mask`), then
    drops candidates whose ports the taken set consumed; by the standard
    parallel-greedy-MIS argument the union over rounds equals the
    sequential walk exactly.  Random instances converge in a handful of
    rounds, so the per-flow python loop disappears.

    ``slot_in``/``slot_out`` are reusable int64 scratch buffers of size
    ``n_in``/``n_out``; stale contents are fine (see above).
    """
    parts: List[np.ndarray] = []
    while cand.size:
        s = srcs[cand]
        d = dsts[cand]
        idx = np.arange(cand.size, dtype=np.int64)
        rev = idx[::-1]
        slot_in[s[::-1]] = rev
        slot_out[d[::-1]] = rev
        take = (slot_in[s] == idx) & (slot_out[d] == idx)
        parts.append(cand[take])
        # Consume the taken ports in place; a candidate survives iff
        # both its slots still hold a non-negative first-position.
        slot_in[s[take]] = -1
        slot_out[d[take]] = -1
        cand = cand[(slot_in[s] >= 0) & (slot_out[d] >= 0)]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def _pack_side(
    ports: np.ndarray,
    dem: np.ndarray,
    taken: np.ndarray,
    caps: np.ndarray,
):
    """Per-candidate take/eliminate predicates for one port side.

    Over the still-live candidates (``taken`` or undecided, in greedy
    order) compute, per candidate ``c`` on port ``p``, via one stable
    sort by port and segmented cumulative sums:

    * ``P_all(c)``  — inclusive prefix demand of *all* live candidates
      on ``p`` up to and including ``c``;
    * ``P_tk(c)``   — exclusive prefix demand of *confirmed-taken*
      candidates on ``p`` before ``c``.

    ``ok = P_all(c) <= cap_p`` certifies the sequential greedy takes
    ``c`` on this side (even if every live predecessor is eventually
    taken, capacity suffices); ``bad = dem_c > cap_p - P_tk(c)``
    certifies it skips ``c`` (already-confirmed predecessors alone
    exhaust the residual).  The two can never both hold.
    """
    order = np.argsort(ports, kind="stable")
    p = ports[order]
    dd = dem[order]
    tk_dd = np.where(taken[order], dd, 0)
    cum_all = np.cumsum(dd)
    cum_tk = np.cumsum(tk_dd)
    seg = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
    lens = np.diff(np.r_[seg, p.size])
    base_all = np.repeat(np.r_[0, cum_all[seg[1:] - 1]], lens)
    base_tk = np.repeat(np.r_[0, cum_tk[seg[1:] - 1]], lens)
    cap = caps[p]
    ok = cum_all - base_all <= cap
    bad = dd > cap - (cum_tk - base_tk - tk_dd)
    ok_out = np.empty(p.size, dtype=bool)
    bad_out = np.empty(p.size, dtype=bool)
    ok_out[order] = ok
    bad_out[order] = bad
    return ok_out, bad_out


def _vectorized_capacitated_pack(
    cand: np.ndarray,
    queue: FlowQueue,
    switch: Switch,
) -> np.ndarray:
    """Greedy residual-capacity packing of ``cand`` (in greedy order),
    vectorized as parallel rounds of segmented prefix sums.

    Byte-identical to the sequential walk of
    ``OnlinePolicy._select_packing`` / the co-flow ordered packing:
    take a candidate iff both its ports still hold its demand at its
    turn.  Each round classifies every undecided candidate through
    :func:`_pack_side`: *taken* when even the most pessimistic prefix
    fits on both sides, *eliminated* when confirmed takes alone already
    overflow either side.  The first undecided candidate always
    satisfies one of the two (its live predecessors are all confirmed),
    so every round makes progress and the loop terminates; because
    takes/eliminations are exactly sequential-greedy takes/skips, the
    fixed point equals the sequential result.

    High-load cells (capacities binding every round) converge in a few
    rounds, replacing the per-flow python loop that previously made
    capacitated batches fall back to serial-speed selection.
    """
    s = queue.srcs[cand]
    d = queue.dsts[cand]
    dem = queue.demands[cand]
    in_caps = switch.input_capacities
    out_caps = switch.output_capacities
    n = cand.size
    taken = np.zeros(n, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    while undecided.any():
        act = np.flatnonzero(taken | undecided)
        ok_in, bad_in = _pack_side(s[act], dem[act], taken[act], in_caps)
        ok_out, bad_out = _pack_side(d[act], dem[act], taken[act], out_caps)
        und = undecided[act]
        take = und & ok_in & ok_out
        drop = und & (bad_in | bad_out)
        taken[act[take]] = True
        undecided[act[take | drop]] = False
    return cand[taken]


def simulate_batch(
    instances: Sequence[Instance],
    policies: Sequence[OnlinePolicy],
    max_rounds: Optional[int] = None,
    verify: bool = False,
) -> List[SimulationResult]:
    """Run ``policies[i]`` over ``instances[i]`` for every trial.

    The trial-axis sibling of :func:`~repro.online.simulator.simulate`:
    when every trial runs the same batchable policy on the same switch,
    the whole batch executes as one merged simulation (see the module
    docstring); otherwise each trial falls back to a solo ``simulate``
    call.  Either way the returned list is positionally aligned with
    ``instances`` and each element is byte-identical (schedule, queue
    history, metrics, stats) to the corresponding solo run.

    ``max_rounds``/``verify`` behave as in :func:`simulate`; timer
    events are per *merged* round, so timing totals differ from N solo
    runs (timings are excluded from the equivalence contract).
    """
    if len(instances) != len(policies):
        raise ValueError(
            f"got {len(instances)} instances but {len(policies)} policies"
        )
    if not instances:
        return []
    kernel = batch_kernel_name(instances, policies)
    live = [i for i in range(len(instances)) if instances[i].num_flows > 0]
    if kernel is None or len(live) < 2:
        return [
            simulate(inst, pol, max_rounds=max_rounds, verify=verify)
            for inst, pol in zip(instances, policies)
        ]
    results: List[Optional[SimulationResult]] = [None] * len(instances)
    for i in range(len(instances)):
        if instances[i].num_flows == 0:
            results[i] = simulate(instances[i], policies[i])
    merged = _simulate_merged(
        [instances[i] for i in live],
        [policies[i] for i in live],
        kernel,
        max_rounds,
    )
    for i, result in zip(live, merged):
        results[i] = result
    if verify:
        from repro.verify import check_online_run

        for result in results:
            if result.schedule.instance.num_flows:
                check_online_run(result).raise_if_failed()
    return results


def _make_select(kernel, queue, view, instances, policies, hk_stats):
    """Build the per-round merged selection callable for ``kernel``."""
    n_in = view.switch.num_inputs
    n_out = view.switch.num_outputs
    m_in, m_out = view.m_in, view.m_out
    n_trials = view.n_trials
    unit = queue.unit_capacity
    trial_of = view.trial_of
    slot_in = np.empty(n_in, dtype=np.int64)
    slot_out = np.empty(n_out, dtype=np.int64)
    slot_key = np.empty(n_in * m_out, dtype=np.int64)

    if kernel == "fifo" and unit:
        # FIFO's greedy order (descending age, stable) over the alive
        # list *is* the alive list itself: it is kept sorted by
        # (release, insertion).  Pair-dedup: only a pair's first copy
        # can ever be taken (later copies share both ports with an
        # earlier, still-waiting one), so keep exactly the first
        # occurrence per pair key — no per-flow python at all.
        def select_fifo(t: int) -> np.ndarray:
            fids = queue.alive_fids()
            keys = queue.srcs[fids] * m_out + queue.dsts[fids] % m_out
            cand = fids[_first_occurrence_mask(keys, slot_key)]
            with measure("batch_pack"):
                return _vectorized_unit_pack(
                    cand, queue.srcs, queue.dsts, slot_in, slot_out
                )

        return select_fifo

    if kernel == "maxcard" and unit:
        # Stacked Hopcroft–Karp over the per-pair head graph.  Heads are
        # rebuilt per round from the alive list (first waiting copy per
        # pair, in arrival order) instead of initializing the queue's
        # incremental pair view: the views agree — adjacency rows are
        # kept sorted by the *current* head's (release, fid), which is
        # exactly the alive-order first occurrence — and skipping the
        # view keeps ``arrive``/``remove`` pure array operations.
        warm_mode = bool(policies[0].warm_start)
        prev_pairs: List[Dict[int, int]] = [{} for _ in range(n_trials)]
        trial_of_left = np.repeat(
            np.arange(n_trials, dtype=np.int64), m_in
        )
        trial_of_right = np.repeat(
            np.arange(n_trials, dtype=np.int64), m_out
        )
        bfs_arr = hk_stats["bfs_phases"]
        aug_arr = hk_stats["augmentations"]
        seed_arr = hk_stats["warm_start_seeds"]

        def select_maxcard(t: int) -> np.ndarray:
            fids = queue.alive_fids()
            keys = queue.srcs[fids] * m_out + queue.dsts[fids] % m_out
            heads = fids[_first_occurrence_mask(keys, slot_key)]
            warm = None
            part: List[int] = []
            if warm_mode:
                part = np.unique(trial_of[heads]).tolist()
                warm = {}
                for i in part:
                    pp = prev_pairs[i]
                    if pp:
                        seed_arr[i] += len(pp)
                        warm.update(pp)
                if not warm:
                    warm = None
            with measure("batch_match"):
                edge_left = max_cardinality_matching_batch(
                    n_in,
                    n_out,
                    queue.srcs[heads],
                    queue.dsts[heads],
                    trial_of_left,
                    trial_of_right,
                    n_trials,
                    warm_start=warm,
                    bfs_phases=bfs_arr,
                    augmentations=aug_arr,
                )
            matched_us = np.flatnonzero(edge_left >= 0)
            chosen = heads[edge_left[matched_us]]
            if warm_mode:
                # Mirror the solo policy: every trial that solved this
                # round replaces its carried pairs with this round's
                # matching; idle trials keep theirs.
                for i in part:
                    prev_pairs[i] = {}
                for u, v in zip(
                    matched_us.tolist(), queue.dsts[chosen].tolist()
                ):
                    prev_pairs[u // m_in][u] = v
            return chosen

        return select_maxcard

    if kernel in ("fifo", "minrtime", "maxcard"):
        # Non-unit capacities: greedy packing in the policy's weight
        # order.  FIFO and MinRTime share the age weight ``t - r + 1``
        # and MaxCard packs with unit weights — in all three cases the
        # stable descending-weight order *is* the alive list (kept
        # sorted by (release, insertion)), so no argsort is needed.
        def select_aged_pack(t: int) -> np.ndarray:
            with measure("batch_pack"):
                return _vectorized_capacitated_pack(
                    queue.alive_fids(), queue, view.switch
                )

        return select_aged_pack

    if kernel == "maxweight":
        # Non-unit capacities: queue-length weights.  Virtual ports are
        # per trial, so the merged bincounts equal each trial's own, and
        # the merged stable argsort projects to each trial's order.
        def select_maxweight(t: int) -> np.ndarray:
            fids = queue.alive_fids()
            us = queue.srcs[fids]
            vs = queue.dsts[fids]
            w = (np.bincount(us)[us] + np.bincount(vs)[vs]).astype(
                np.float64
            )
            order = np.argsort(-w, kind="stable")
            with measure("batch_pack"):
                return _vectorized_capacitated_pack(
                    fids[order], queue, view.switch
                )

        return select_maxweight

    if kernel == "random":
        for policy, inst in zip(policies, instances):
            policy.reset(inst)
        rngs = [policy._rng for policy in policies]

        def select_random(t: int) -> np.ndarray:
            fids = queue.alive_fids()
            trials = trial_of[fids]
            w = np.empty(fids.size, dtype=np.float64)
            order = np.argsort(trials, kind="stable")
            uniq, starts = np.unique(trials[order], return_index=True)
            ends = np.append(starts[1:], trials.size)
            # One draw vector per trial with waiting flows, in that
            # trial's arrival order — the exact shape and sequence its
            # solo run consumes from the same seeded generator.
            for u, s, e in zip(uniq.tolist(), starts.tolist(), ends.tolist()):
                w[order[s:e]] = rngs[u].random(e - s) + 1e-9
            pack_order = np.argsort(-w, kind="stable")
            ordered = fids[pack_order]
            if not unit:
                with measure("batch_pack"):
                    return _vectorized_capacitated_pack(
                        ordered, queue, view.switch
                    )
            # Pair-dedup by weight: only the heaviest copy of a pair can
            # be taken (earlier copies in weight order share its ports).
            keys = (
                queue.srcs[ordered] * m_out + queue.dsts[ordered] % m_out
            )
            cand = ordered[_first_occurrence_mask(keys, slot_key)]
            with measure("batch_pack"):
                return _vectorized_unit_pack(
                    cand, queue.srcs, queue.dsts, slot_in, slot_out
                )

        return select_random

    # kernel == "coflow"
    cfs = [policy._cf for policy in policies]
    ncf_off = np.concatenate(
        ([0], np.cumsum([cf.num_coflows for cf in cfs]))
    ).astype(np.int64)
    ncf_total = int(ncf_off[-1])
    vcid_of = np.concatenate(
        [cf.coflow_of + off for cf, off in zip(cfs, ncf_off[:-1].tolist())]
    )
    in_caps = instances[0].switch.input_capacities
    out_caps = instances[0].switch.output_capacities
    sebf = type(policies[0]) is CoflowSebfPolicy
    if not sebf:
        static_prio = np.concatenate(
            [cf.releases().astype(np.float64) for cf in cfs]
        )

    def select_coflow(t: int) -> np.ndarray:
        fids = queue.alive_fids()
        cids = vcid_of[fids]
        if sebf:
            demands = queue.demands[fids]
            in_load = np.bincount(
                cids * m_in + queue.srcs[fids] % m_in,
                weights=demands,
                minlength=ncf_total * m_in,
            ).reshape(ncf_total, m_in)
            out_load = np.bincount(
                cids * m_out + queue.dsts[fids] % m_out,
                weights=demands,
                minlength=ncf_total * m_out,
            ).reshape(ncf_total, m_out)
            prio = np.maximum(
                (in_load / in_caps).max(axis=1),
                (out_load / out_caps).max(axis=1),
            )
        else:
            prio = static_prio
        order = np.lexsort((fids, cids, prio[cids]))
        with measure("batch_pack"):
            return _vectorized_capacitated_pack(
                fids[order], queue, view.switch
            )

    return select_coflow


def _simulate_merged(
    instances: Sequence[Instance],
    policies: Sequence[OnlinePolicy],
    kernel: str,
    max_rounds: Optional[int],
) -> List[SimulationResult]:
    """The merged lockstep engine (all trials non-empty, same switch)."""
    n_trials = len(instances)
    counts = np.asarray([inst.num_flows for inst in instances], dtype=np.int64)
    total = int(counts.sum())
    view = _BatchView(instances)
    if max_rounds is None:
        # Vectorized ``2 * horizon_bound() + 1`` per trial: every merged
        # trial is non-empty, so reduceat segments are never empty and
        # max_release is just the segment max of the stacked releases.
        rel_max = np.maximum.reduceat(view.releases(), view.offsets[:-1])
        caps = 2 * (rel_max + counts + 1) + 1
    else:
        caps = np.full(n_trials, max_rounds, dtype=np.int64)

    queue = FlowQueue(view)
    trial_of = view.trial_of
    track_solves = kernel == "maxcard" and queue.unit_capacity
    hk_stats: Optional[Dict[str, np.ndarray]] = None
    if track_solves:
        hk_stats = {
            "bfs_phases": np.zeros(n_trials, dtype=np.int64),
            "augmentations": np.zeros(n_trials, dtype=np.int64),
            "warm_start_seeds": np.zeros(n_trials, dtype=np.int64),
        }
    kernel_select = _make_select(
        kernel, queue, view, instances, policies, hk_stats
    )
    timer = current_timer()

    def select(t: int) -> np.ndarray:
        if timer is None:
            return kernel_select(t)
        sel_start = time.perf_counter()
        chosen = kernel_select(t)
        timer.add("batch_select", time.perf_counter() - sel_start)
        return chosen

    policy_name = policies[0].name
    releases = view.releases()
    assignment = np.full(total, -1, dtype=np.int64)
    # Shadow counters: exact per-trial mirrors of each solo FlowQueue's
    # bookkeeping, maintained vectorized over the trial axis.
    sh_pos = np.zeros(n_trials, dtype=np.int64)  # solo _n_pos
    sh_alive = np.zeros(n_trials, dtype=np.int64)  # solo _n_alive
    sh_comp = np.zeros(n_trials, dtype=np.int64)  # solo compactions
    solves = np.zeros(n_trials, dtype=np.int64)
    sched_per = np.zeros(n_trials, dtype=np.int64)
    rounds_of = np.full(n_trials, -1, dtype=np.int64)
    history_rows: List[np.ndarray] = []

    def arrivals():
        nonlocal sh_pos, sh_alive
        for arriving in _arrival_rounds(releases):
            if arriving.size:
                cnt = np.bincount(trial_of[arriving], minlength=n_trials)
                sh_pos += cnt
                sh_alive += cnt
            yield arriving

    def limit(t: int) -> None:
        overdue = (sched_per < counts) & (t >= caps)
        if overdue.any():
            i = int(np.flatnonzero(overdue)[0])
            raise RuntimeError(
                f"policy {policy_name} exceeded {int(caps[i])} rounds with "
                f"{int(counts[i] - sched_per[i])} flows unscheduled"
            )

    def record(t: int, chosen: np.ndarray) -> None:
        nonlocal solves, sched_per, sh_alive, sh_comp
        history_rows.append(sh_alive.copy())
        if track_solves:
            # One Hopcroft–Karp solve per solo round with a non-empty
            # queue.
            solves += sh_alive > 0
        if chosen.size:
            assignment[chosen] = t
            rcnt = np.bincount(trial_of[chosen], minlength=n_trials)
            sched_per += rcnt
            sh_alive -= rcnt
            # Solo compaction trigger, checked only on rounds where that
            # trial's remove() ran (rcnt > 0).
            dead = sh_pos - sh_alive
            compacted = (rcnt > 0) & (dead > 32) & (dead > sh_alive)
            sh_comp += compacted
            sh_pos[compacted] = sh_alive[compacted]
            done = (sched_per == counts) & (rounds_of < 0)
            if done.any():
                rounds_of[done] = t + 1

    _run_rounds(
        queue, view.switch, policy_name, arrivals(), limit, select, record
    )

    history = np.stack(history_rows) if history_rows else np.zeros(
        (0, n_trials), dtype=np.int64
    )
    offsets = view.offsets

    # ------------------------------------------------------------------
    # Vectorized cross-trial finalization.  Every ScheduleMetrics field
    # is integer-exact, so computing them over the stacked arrays (flows
    # are contiguous per trial — reduceat segments) reproduces the
    # per-trial ``ScheduleMetrics.of`` values bit for bit; float64
    # bincount sums stay exact far below 2**53.
    # ------------------------------------------------------------------
    comp = assignment + 1
    rho = comp - releases
    seg = offsets[:-1]
    tot_resp = np.add.reduceat(rho, seg)
    max_resp = np.maximum.reduceat(rho, seg)
    makespans = np.maximum.reduceat(comp, seg)
    H = int(comp.max())
    in_peak = (
        np.bincount(
            view.srcs() * H + assignment,
            weights=view.demands(),
            minlength=view.switch.num_inputs * H,
        )
        .reshape(view.switch.num_inputs, H)
        .max(axis=1)
    )
    out_peak = (
        np.bincount(
            view.dsts() * H + assignment,
            weights=view.demands(),
            minlength=view.switch.num_outputs * H,
        )
        .reshape(view.switch.num_outputs, H)
        .max(axis=1)
    )
    in_exc = (
        (in_peak - view.switch.input_capacities)
        .reshape(n_trials, view.m_in)
        .max(axis=1)
    )
    out_exc = (
        (out_peak - view.switch.output_capacities)
        .reshape(n_trials, view.m_out)
        .max(axis=1)
    )
    max_aug = np.maximum(np.maximum(in_exc, out_exc), 0).astype(np.int64)

    results: List[SimulationResult] = []
    for i in range(n_trials):
        rounds_i = int(rounds_of[i])
        n_i = int(counts[i])
        sub = assignment[offsets[i] : offsets[i + 1]].copy()
        schedule = Schedule(instances[i], sub)
        metrics = ScheduleMetrics(
            num_flows=n_i,
            total_response=int(tot_resp[i]),
            average_response=int(tot_resp[i]) / n_i,
            max_response=int(max_resp[i]),
            makespan=int(makespans[i]),
            max_augmentation=int(max_aug[i]),
        )
        stats: Dict[str, int] = {
            "sim_rounds": rounds_i,
            "compactions": int(sh_comp[i]),
        }
        if track_solves:
            # Reproduce the solo stats dict: counter keys appear only
            # once their first bump happens.
            if hk_stats["bfs_phases"][i]:
                stats["bfs_phases"] = int(hk_stats["bfs_phases"][i])
            stats["matching_solves"] = int(solves[i])
            if hk_stats["augmentations"][i]:
                stats["augmentations"] = int(hk_stats["augmentations"][i])
            if hk_stats["warm_start_seeds"][i]:
                stats["warm_start_seeds"] = int(
                    hk_stats["warm_start_seeds"][i]
                )
        results.append(
            SimulationResult(
                schedule,
                metrics,
                rounds=rounds_i,
                queue_history=history[:rounds_i, i].copy(),
                stats=stats,
            )
        )
    return results
