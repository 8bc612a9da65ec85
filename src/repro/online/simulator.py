"""Round-based online switch simulator (paper §5.2.1).

Reimplements the paper's in-house simulator: the simulator maintains the
bipartite graph ``G_t`` of released-but-unscheduled flows; each round the
plugged-in policy extracts a feasible set (a matching, for unit
capacities) which is assigned to run in window ``[t, t+1)``.  Queues are
*open*: any waiting flow at a port may be selected, not just the head.

``G_t`` is maintained **incrementally** in a :class:`FlowQueue`: arrivals
append to flat arrays, scheduled flows are tombstoned, and the buffer is
compacted once tombstones outnumber live entries.  On top of the flat
arrays the queue keeps two incremental indices the matching policies
consume directly:

* a **pair view** — one FIFO of waiting flows per (src, dst) port pair,
  with lazily popped tombstones.  The matching policies only ever need
  one representative flow per pair (the earliest arrival: it is both the
  copy the seed kernels deterministically matched and the heaviest copy
  under the age/queue-length weights), so each round's matching problem
  has at most ``m * m'`` edges regardless of queue depth, and assembling
  it costs O(#pairs + churn), not O(queue).
* **per-port waiting counts**, updated by ``np.bincount`` on arrivals and
  removals (MaxWeight's edge weights).

Policies read these structures through ``select(t, queue, instance)``
and return the chosen fids as an array.

The engine enforces feasibility (capacity and release constraints) on
whatever the policy returns — now with one ``np.bincount`` per side
instead of per-flow dict updates — so buggy policies fail loudly rather
than producing invalid statistics.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.instance import Instance
from repro.core.metrics import ScheduleMetrics
from repro.core.schedule import Schedule, ScheduleError
from repro.online.policies import OnlinePolicy
from repro.utils.timing import Timer


class FlowQueue:
    """Array-backed incremental view of ``G_t`` (waiting flows).

    Positions are arrival-ordered: arrivals append, scheduled flows are
    tombstoned in place, and the buffer compacts (preserving order) once
    dead entries outnumber live ones — identical iteration order to the
    seed's insertion-ordered waiting dict, at O(churn) amortized cost per
    round.

    Attributes
    ----------
    srcs / dsts / demands / releases:
        Fid-indexed instance attribute arrays (shared, read-only use).
    compactions:
        Number of compaction passes performed (exposed in simulation
        stats).
    """

    __slots__ = (
        "srcs",
        "dsts",
        "demands",
        "releases",
        "n_inputs",
        "n_outputs",
        "unit_capacity",
        "_fids",
        "_alive",
        "_pos_of",
        "_n_pos",
        "_n_alive",
        "_cache",
        "_keys",
        "_pairs",
        "_head_arr",
        "_adj_v",
        "_adj_f",
        "_adj_key",
        "_key_mult",
        "_rel_list",
        "_src_list",
        "_dst_list",
        "_waiting_set",
        "_port_in",
        "_port_out",
        "compactions",
    )

    def __init__(self, instance: Instance):
        n = instance.num_flows
        self.srcs = instance.srcs()
        self.dsts = instance.dsts()
        self.demands = instance.demands()
        self.releases = instance.releases()
        self.n_inputs = instance.switch.num_inputs
        self.n_outputs = instance.switch.num_outputs
        self.unit_capacity = bool(instance.switch.is_unit_capacity)
        self._fids = np.empty(n, dtype=np.int64)
        self._alive = np.zeros(n, dtype=bool)
        self._pos_of = np.full(n, -1, dtype=np.int64)
        self._n_pos = 0
        self._n_alive = 0
        self._cache: Optional[np.ndarray] = None
        self._keys: Optional[List[int]] = None
        self._pairs: Optional[Dict[int, Deque[int]]] = None
        self._head_arr: Optional[np.ndarray] = None
        self._adj_v: Optional[List[List[int]]] = None
        self._adj_f: Optional[List[List[int]]] = None
        self._adj_key: Optional[List[List[int]]] = None
        self._key_mult = max(n, 1)
        self._rel_list: Optional[List[int]] = None
        self._src_list: Optional[List[int]] = None
        self._dst_list: Optional[List[int]] = None
        self._waiting_set: Optional[set] = None
        self._port_in: Optional[np.ndarray] = None
        self._port_out: Optional[np.ndarray] = None
        self.compactions = 0

    @property
    def n_alive(self) -> int:
        """Number of waiting flows."""
        return self._n_alive

    def arrive(self, fids: np.ndarray) -> None:
        """Append newly released flows (in arrival order)."""
        k = fids.size
        if k == 0:
            return
        p = self._n_pos
        self._fids[p : p + k] = fids
        self._alive[p : p + k] = True
        self._pos_of[fids] = np.arange(p, p + k, dtype=np.int64)
        self._n_pos = p + k
        self._n_alive += k
        self._cache = None
        if self._pairs is not None:
            pairs, heads, keys = self._pairs, self._head_arr, self._keys
            adj_v, adj_f, adj_key = self._adj_v, self._adj_f, self._adj_key
            rel = self._rel_list
            srcl, dstl = self._src_list, self._dst_list
            mult = self._key_mult
            fid_list = fids.tolist()
            self._waiting_set.update(fid_list)
            for fid in fid_list:
                key = keys[fid]
                dq = pairs.get(key)
                if dq is None:
                    pairs[key] = deque((fid,))
                    heads[key] = fid
                    # A brand-new pair's head is this round's arrival, so
                    # it sorts after every existing head of the row.
                    u = srcl[fid]
                    adj_v[u].append(dstl[fid])
                    adj_f[u].append(fid)
                    adj_key[u].append(rel[fid] * mult + fid)
                else:
                    dq.append(fid)
        if self._port_in is not None:
            np.add.at(self._port_in, self.srcs[fids], 1)
            np.add.at(self._port_out, self.dsts[fids], 1)

    def remove(self, fids: np.ndarray) -> None:
        """Tombstone scheduled flows; compact when mostly dead.

        Pair-FIFO upkeep is O(churn) amortized: only removed *heads*
        advance their FIFO (skipping tombstones left by earlier non-head
        removals); removing a non-head flow just tombstones it.
        """
        if fids.size == 0:
            return
        pos = self._pos_of[fids]
        self._alive[pos] = False
        self._pos_of[fids] = -1
        self._n_alive -= fids.size
        self._cache = None
        if self._pairs is not None:
            pairs, heads, keys = self._pairs, self._head_arr, self._keys
            alive = self._waiting_set
            fid_list = fids.tolist()
            alive.difference_update(fid_list)
            adj_v, adj_f, adj_key = self._adj_v, self._adj_f, self._adj_key
            rel = self._rel_list
            srcl, dstl = self._src_list, self._dst_list
            mult = self._key_mult
            for fid in fid_list:
                key = keys[fid]
                if heads[key] != fid:
                    continue
                dq = pairs[key]
                dq.popleft()
                while dq and dq[0] not in alive:
                    dq.popleft()
                u = srcl[fid]
                row_f = adj_f[u]
                idx = row_f.index(fid)
                del adj_v[u][idx]
                del row_f[idx]
                del adj_key[u][idx]
                if dq:
                    head = dq[0]
                    heads[key] = head
                    # Re-insert the pair at its new head's arrival rank.
                    k = rel[head] * mult + head
                    row_k = adj_key[u]
                    pos = bisect_left(row_k, k)
                    row_k.insert(pos, k)
                    adj_v[u].insert(pos, dstl[head])
                    row_f.insert(pos, head)
                else:
                    heads[key] = -1
                    del pairs[key]
        if self._port_in is not None:
            np.add.at(self._port_in, self.srcs[fids], -1)
            np.add.at(self._port_out, self.dsts[fids], -1)
        dead = self._n_pos - self._n_alive
        if dead > 32 and dead > self._n_alive:
            self.compact()

    def compact(self) -> None:
        """Drop tombstones, preserving arrival order."""
        keep = np.flatnonzero(self._alive[: self._n_pos])
        k = keep.size
        self._fids[:k] = self._fids[keep]
        self._alive[: self._n_pos] = False
        self._alive[:k] = True
        self._pos_of[self._fids[:k]] = np.arange(k, dtype=np.int64)
        self._n_pos = k
        self.compactions += 1
        self._cache = None

    def alive_fids(self) -> np.ndarray:
        """Fids of waiting flows in arrival order (cached per round)."""
        if self._cache is None:
            self._cache = self._fids[: self._n_pos][self._alive[: self._n_pos]]
        return self._cache

    def waiting_mask(self, fids: np.ndarray) -> np.ndarray:
        """Boolean mask: is each of ``fids`` currently waiting?"""
        return self._pos_of[fids] >= 0

    # ------------------------------------------------------------------
    # Incremental pair view (matching policies)
    # ------------------------------------------------------------------

    def pair_heads(self) -> np.ndarray:
        """One representative waiting flow per (src, dst) pair, ordered by
        the representative's arrival.

        The representative is the pair's earliest-arrived waiting flow —
        exactly the copy the seed's kernels matched (lowest edge id per
        pair) and the heaviest copy under age-monotone weights.  Heads
        are maintained incrementally by :meth:`arrive`/:meth:`remove`;
        this call only sorts them into arrival order.
        """
        if self._pairs is None:
            self._init_pair_view()
        heads = self._head_arr
        h = heads[heads >= 0]
        # Arrival order is (release round, fid): rounds are processed in
        # order and same-round arrivals enter in fid order.
        return h[np.lexsort((h, self.releases[h]))]

    def port_queue_lengths(self) -> Tuple[np.ndarray, np.ndarray]:
        """Waiting-flow counts per input and output port (incremental)."""
        if self._port_in is None:
            alive = self.alive_fids()
            self._port_in = np.bincount(
                self.srcs[alive], minlength=self.n_inputs
            ).astype(np.int64)
            self._port_out = np.bincount(
                self.dsts[alive], minlength=self.n_outputs
            ).astype(np.int64)
        return self._port_in, self._port_out

    def pair_adjacency(self) -> Tuple[List[List[int]], List[List[int]]]:
        """Per-input-port pair adjacency: ``(right_rows, head_rows)``.

        ``right_rows[u]`` lists the output ports with at least one waiting
        ``(u, v)`` flow, ordered by the pair representative's arrival;
        ``head_rows[u]`` is the aligned representative fid per pair.  Both
        are maintained incrementally (bisect re-insertion when a head is
        consumed) and MUST NOT be mutated by callers — they feed straight
        into :func:`~repro.matching.hopcroft_karp.
        max_cardinality_matching_adjacency`.
        """
        if self._pairs is None:
            self._init_pair_view()
        return self._adj_v, self._adj_f

    def _flow_count(self) -> int:
        """Number of valid fid slots in the attribute arrays (the whole
        array here; the streaming subclass over-allocates and overrides)."""
        return self.srcs.shape[0]

    def _pair_keys(self, n: int) -> List[int]:
        """Dense (src, dst) pair key per fid.  Overridable: the batched
        queue remaps virtual ports to a compact per-trial key space so the
        heads array stays linear in the number of trials."""
        return (self.srcs[:n] * self.n_outputs + self.dsts[:n]).tolist()

    def _pair_key_count(self) -> int:
        """Size of the pair-key space (length of the heads array)."""
        return self.n_inputs * self.n_outputs

    def _init_pair_view(self) -> None:
        n = self._flow_count()
        self._keys = self._pair_keys(n)
        self._rel_list = self.releases[:n].tolist()
        self._src_list = self.srcs[:n].tolist()
        self._dst_list = self.dsts[:n].tolist()
        keys = self._keys
        rel = self._rel_list
        srcl, dstl = self._src_list, self._dst_list
        mult = self._key_mult
        pairs: Dict[int, Deque[int]] = {}
        heads = np.full(self._pair_key_count(), -1, dtype=np.int64)
        adj_v: List[List[int]] = [[] for _ in range(self.n_inputs)]
        adj_f: List[List[int]] = [[] for _ in range(self.n_inputs)]
        adj_key: List[List[int]] = [[] for _ in range(self.n_inputs)]
        alive = self.alive_fids().tolist()
        for fid in alive:
            key = keys[fid]
            dq = pairs.get(key)
            if dq is None:
                pairs[key] = deque((fid,))
                heads[key] = fid
                u = srcl[fid]
                adj_v[u].append(dstl[fid])
                adj_f[u].append(fid)
                adj_key[u].append(rel[fid] * mult + fid)
            else:
                dq.append(fid)
        self._pairs = pairs
        self._head_arr = heads
        self._adj_v = adj_v
        self._adj_f = adj_f
        self._adj_key = adj_key
        self._waiting_set = set(alive)


class StreamFlowQueue(FlowQueue):
    """Growable :class:`FlowQueue` for streaming simulation.

    The offline queue pre-sizes every fid-indexed array to the
    instance's flow count; a stream has no such count, so this subclass
    owns its attribute arrays and maintains a **sliding window** over
    local fids: arrivals append via :meth:`extend_flows` (arrays double
    as needed), and once the window has accumulated enough finished
    flows the dead *prefix* is reclaimed by a rebase — every local fid
    shifts down by the offset, attribute entries slide, and the
    incremental pair view rebuilds lazily (O(active)).  Rebase attempts
    are spaced geometrically (next attempt only once the window has
    doubled again), so the amortized upkeep per flow is O(1) and the
    buffer stays O(active flows) whenever the policy keeps draining the
    oldest work (``peak_buffer`` / ``peak_alive`` stats expose the
    actual ratio).

    Local fids are arrival-ordered, exactly like materialized fids, so
    the policies (which tie-break by fid) select the same
    flows as the offline simulator; ``global_offset`` maps a local fid
    back to the stream-global one (``global = local + offset``).
    """

    __slots__ = (
        "switch",
        "_cap",
        "_n_local",
        "_rebase_at",
        "global_offset",
        "peak_alive",
        "peak_buffer",
        "rebases",
    )

    _MIN_CAP = 64

    def __init__(self, switch):
        self.switch = switch
        self.n_inputs = switch.num_inputs
        self.n_outputs = switch.num_outputs
        self.unit_capacity = bool(switch.is_unit_capacity)
        cap = self._MIN_CAP
        self.srcs = np.zeros(cap, dtype=np.int64)
        self.dsts = np.zeros(cap, dtype=np.int64)
        self.demands = np.ones(cap, dtype=np.int64)
        self.releases = np.zeros(cap, dtype=np.int64)
        self._fids = np.empty(cap, dtype=np.int64)
        self._alive = np.zeros(cap, dtype=bool)
        self._pos_of = np.full(cap, -1, dtype=np.int64)
        self._n_pos = 0
        self._n_alive = 0
        self._cache = None
        self._keys = None
        self._pairs = None
        self._head_arr = None
        self._adj_v = None
        self._adj_f = None
        self._adj_key = None
        # Pair-view sort keys are Python ints (arbitrary precision), so a
        # constant multiplier larger than any local fid keeps the
        # (release, fid) ordering without rescaling as the window grows.
        self._key_mult = 1 << 62
        self._rel_list = None
        self._src_list = None
        self._dst_list = None
        self._waiting_set = None
        self._port_in = None
        self._port_out = None
        self.compactions = 0
        self._cap = cap
        self._n_local = 0
        self._rebase_at = 4 * self._MIN_CAP
        self.global_offset = 0
        self.peak_alive = 0
        self.peak_buffer = 0
        self.rebases = 0

    @property
    def buffer_size(self) -> int:
        """Current window length (attribute entries held), local fids."""
        return self._n_local

    def _flow_count(self) -> int:
        return self._n_local

    def extend_flows(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        demands: np.ndarray,
        release: int,
    ) -> np.ndarray:
        """Append one round's arrivals; returns their new local fids.

        Callers pass the returned fids straight to :meth:`arrive` (the
        two steps stay separate so this class remains a drop-in
        :class:`FlowQueue` for the policies).
        """
        k = int(srcs.size)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        self._maybe_rebase()
        lo = self._n_local
        need = lo + k
        if need > self._cap:
            self._grow(need)
        self.srcs[lo:need] = srcs
        self.dsts[lo:need] = dsts
        self.demands[lo:need] = demands
        self.releases[lo:need] = release
        self._n_local = need
        if self._keys is not None:
            self._keys.extend((srcs * self.n_outputs + dsts).tolist())
            self._rel_list.extend([int(release)] * k)
            self._src_list.extend(srcs.tolist())
            self._dst_list.extend(dsts.tolist())
        if need > self.peak_buffer:
            self.peak_buffer = need
        return np.arange(lo, need, dtype=np.int64)

    def arrive(self, fids: np.ndarray) -> None:
        super().arrive(fids)
        if self._n_alive > self.peak_alive:
            self.peak_alive = self._n_alive

    def _grow(self, need: int) -> None:
        new_cap = max(need, 2 * self._cap)

        def grown(arr, fill=None):
            out = np.empty(new_cap, dtype=arr.dtype)
            out[: arr.size] = arr
            if fill is not None:
                out[arr.size:] = fill
            return out

        self.srcs = grown(self.srcs)
        self.dsts = grown(self.dsts)
        self.demands = grown(self.demands)
        self.releases = grown(self.releases)
        self._fids = grown(self._fids)
        self._alive = grown(self._alive, fill=False)
        self._pos_of = grown(self._pos_of, fill=-1)
        self._cap = new_cap

    def _maybe_rebase(self) -> None:
        """Reclaim the window's finished prefix (amortized O(1)/flow).

        Only fids below the smallest *waiting* fid can be dropped — a
        long-waiting straggler pins the window, which the ``peak_buffer``
        stat makes visible rather than hiding.
        """
        if self._n_local < self._rebase_at:
            return
        self.compact()  # positions now dense and arrival-ordered
        live = self._fids[: self._n_pos]
        off = self._n_local if self._n_pos == 0 else int(live.min())
        self._rebase_at = max(2 * (self._n_local - off), 4 * self._MIN_CAP)
        if off == 0:
            return
        n_new = self._n_local - off
        for arr in (self.srcs, self.dsts, self.demands, self.releases):
            arr[:n_new] = arr[off : self._n_local]
        live -= off  # in-place: stored position fids shift with the window
        self._pos_of[:n_new] = self._pos_of[off : self._n_local]
        self._pos_of[n_new : self._n_local] = -1
        self._n_local = n_new
        self.global_offset += off
        self.rebases += 1
        # Pair-view structures hold pre-shift fids; rebuild lazily.
        self._pairs = None
        self._keys = None
        self._head_arr = None
        self._adj_v = None
        self._adj_f = None
        self._adj_key = None
        self._rel_list = None
        self._src_list = None
        self._dst_list = None
        self._waiting_set = None
        self._cache = None


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of :func:`simulate`.

    Attributes
    ----------
    schedule:
        The complete schedule produced by the policy.
    metrics:
        Response-time summary (the paper's reported quantities).
    rounds:
        Number of simulated rounds until the last flow was scheduled.
    queue_history:
        Total waiting-flow count at the start of every round.
    stats:
        Engine/policy counters: ``sim_rounds``, ``compactions``, and —
        for matching policies — ``matching_solves``, ``bfs_phases``,
        ``augmentations``, ``warm_start_seeds``.
    """

    schedule: Schedule
    metrics: ScheduleMetrics
    rounds: int
    queue_history: np.ndarray = field(repr=False)
    stats: Dict[str, int] = field(default_factory=dict, repr=False)


def simulate(
    instance: Instance,
    policy: OnlinePolicy,
    max_rounds: Optional[int] = None,
    timer: Optional[Timer] = None,
    verify: bool = False,
) -> SimulationResult:
    """Run ``policy`` online over ``instance``.

    Flows become visible to the policy at their release round (the online
    model: "the scheduler learns about a request only at the request's
    release time").

    Parameters
    ----------
    instance:
        The workload.
    policy:
        Decides, each round, which waiting flows to schedule.
    max_rounds:
        Safety cap: the policy gets at most ``max_rounds`` simulated
        rounds (default ``2 * instance.horizon_bound() + 1``); needing
        more raises ``RuntimeError`` (a policy that starves flows).
    timer:
        Optional :class:`~repro.utils.timing.Timer`; receives a
        ``sim_round`` event per simulated round and — through the policy
        — ``matching_solve`` events per matching extraction.
    verify:
        Certify the finished run through
        :func:`repro.verify.check_online_run` (schedule feasibility,
        metric consistency, queue/arrival accounting) and raise
        :class:`repro.verify.VerificationError` on any violation.

    Returns
    -------
    SimulationResult
    """
    n = instance.num_flows
    if n == 0:
        empty = Schedule(instance, np.zeros(0, dtype=np.int64))
        return SimulationResult(
            empty, ScheduleMetrics.of(empty), 0, np.zeros(0, dtype=np.int64)
        )
    if max_rounds is None:
        # The ``>=`` guard below grants exactly ``max_rounds`` rounds; the
        # historical ``>`` comparison effectively granted one more, so the
        # derived default keeps that allowance with ``+ 1``.
        max_rounds = 2 * instance.horizon_bound() + 1

    queue = FlowQueue(instance)
    stats: Dict[str, int] = {}
    bind = getattr(policy, "bind_runtime", None)
    if bind is not None:
        bind(timer, stats)

    # Arrival schedule: fids grouped by release round, in fid order within
    # a round (matching the seed's flows_by_release iteration order).
    releases = queue.releases
    arrival_order = np.argsort(releases, kind="stable")
    uniq_rounds, starts = np.unique(releases[arrival_order], return_index=True)
    ends = np.append(starts[1:], n)
    arrivals_at = {
        int(r): arrival_order[s:e]
        for r, s, e in zip(uniq_rounds.tolist(), starts.tolist(), ends.tolist())
    }

    assignment = np.full(n, -1, dtype=np.int64)
    scheduled_count = 0
    queue_history: List[int] = []

    policy.reset(instance)

    t = 0
    while scheduled_count < n:
        if t >= max_rounds:
            raise RuntimeError(
                f"policy {policy.name} exceeded {max_rounds} rounds with "
                f"{n - scheduled_count} flows unscheduled"
            )
        round_start = time.perf_counter() if timer is not None else 0.0
        arriving = arrivals_at.get(t)
        if arriving is not None:
            queue.arrive(arriving)
        queue_history.append(queue.n_alive)
        if queue.n_alive:
            chosen = policy.select(t, queue, instance)
            if not isinstance(chosen, np.ndarray):
                chosen = np.asarray(list(chosen), dtype=np.int64)
            _check_feasible(chosen, queue, instance.switch, policy.name, t)
            if chosen.size:
                assignment[chosen] = t
                queue.remove(chosen)
                scheduled_count += chosen.size
        if timer is not None:
            timer.add("sim_round", time.perf_counter() - round_start)
        t += 1

    stats["sim_rounds"] = t
    stats["compactions"] = queue.compactions
    schedule = Schedule(instance, assignment)
    result = SimulationResult(
        schedule,
        ScheduleMetrics.of(schedule),
        rounds=t,
        queue_history=np.asarray(queue_history, dtype=np.int64),
        stats=stats,
    )
    if verify:
        from repro.verify import check_online_run

        check_online_run(result).raise_if_failed()
    return result


def _check_feasible(
    chosen: np.ndarray,
    queue: FlowQueue,
    switch,
    policy_name: str,
    t: int,
) -> None:
    """Validate a policy's per-round selection against the capacities.

    Vectorized: the happy path is two membership probes and one
    ``np.bincount`` per switch side; violation reporting (which must name
    the first offender the way the seed's per-flow walk did) only runs
    once a violation is detected.
    """
    k = chosen.size
    if k == 0:
        return
    n = queue.srcs.shape[0]
    ok = len(set(chosen.tolist())) == k
    if ok:
        mn = int(chosen.min())
        ok = mn >= 0 and int(chosen.max()) < n and bool(
            queue.waiting_mask(chosen).all()
        )
    if not ok:
        _report_bad_selection(chosen, queue, policy_name, t)
    if queue.unit_capacity:
        # Unit capacities force unit demands (d_e <= kappa_e = 1), so the
        # load check reduces to per-port multiplicity counts.
        demands = None
        in_load = np.bincount(queue.srcs[chosen], minlength=switch.num_inputs)
    else:
        demands = queue.demands[chosen]
        in_load = np.bincount(
            queue.srcs[chosen], weights=demands, minlength=switch.num_inputs
        )
    over = in_load > switch.input_capacities
    if over.any():
        p = int(np.flatnonzero(over)[0])
        raise ScheduleError(
            f"policy {policy_name} overloaded input {p} in round {t}: "
            f"{int(in_load[p])} > {switch.input_capacity(p)}"
        )
    if demands is None:
        out_load = np.bincount(queue.dsts[chosen], minlength=switch.num_outputs)
    else:
        out_load = np.bincount(
            queue.dsts[chosen], weights=demands, minlength=switch.num_outputs
        )
    over = out_load > switch.output_capacities
    if over.any():
        q = int(np.flatnonzero(over)[0])
        raise ScheduleError(
            f"policy {policy_name} overloaded output {q} in round {t}: "
            f"{int(out_load[q])} > {switch.output_capacity(q)}"
        )


def _report_bad_selection(
    chosen: np.ndarray, queue: FlowQueue, policy_name: str, t: int
) -> None:
    """Raise for the first duplicate/unknown fid, in the seed's walk order
    (duplicate checked before unknown at the same index)."""
    k = chosen.size
    # Duplicates: mark every non-first occurrence (the seed raised on the
    # second occurrence, naming the repeated fid).
    order = np.argsort(chosen, kind="stable")
    sorted_fids = chosen[order]
    dup_sorted = np.zeros(k, dtype=bool)
    dup_sorted[1:] = sorted_fids[1:] == sorted_fids[:-1]
    dup = np.zeros(k, dtype=bool)
    dup[order] = dup_sorted
    # Unknown/done: out of range or not currently waiting.
    n = queue.srcs.shape[0]
    in_range = (chosen >= 0) & (chosen < n)
    known = np.zeros(k, dtype=bool)
    if in_range.any():
        known[in_range] = queue.waiting_mask(chosen[in_range])
    bad = dup | ~known
    i = int(np.flatnonzero(bad)[0])
    fid = int(chosen[i])
    if dup[i]:
        raise ScheduleError(
            f"policy {policy_name} selected flow {fid} twice in round {t}"
        )
    raise ScheduleError(
        f"policy {policy_name} selected unknown/done flow {fid} "
        f"in round {t}"
    )


# ---------------------------------------------------------------------------
# Streaming entry point
# ---------------------------------------------------------------------------


class _StreamView:
    """Minimal ``Instance`` stand-in handed to policies during streaming
    simulation.  The built-in policies consult only ``.switch``; a custom
    policy that inspects other ``Instance`` attributes is not
    stream-compatible (it would need the whole workload up front, which
    is exactly what streaming avoids)."""

    __slots__ = ("switch",)

    def __init__(self, switch):
        self.switch = switch


@dataclass(frozen=True)
class StreamSimulationResult:
    """Outcome of :func:`simulate_stream`.

    Attributes
    ----------
    metrics:
        Response-time summary, aggregated *online* (no per-flow arrays
        are retained): ``max_augmentation`` is 0 by construction — the
        engine validates every round against the switch capacities.
    rounds:
        Simulated rounds until the queue drained (the last scheduling
        round + 1 — what :func:`simulate` reports; empty trailing
        arrival rounds the engine had to consume are not counted).
    arrival_rounds:
        Arrival rounds actually consumed from the stream (stops at the
        stream's own end when that comes before any requested limit).
    stats:
        Engine/policy counters: everything :class:`SimulationResult`
        reports plus ``rebases``, ``peak_alive`` (most concurrently
        waiting flows), and ``peak_buffer`` (largest attribute window —
        the O(active flows) memory claim, measurable).
    queue_history / assignment:
        Only populated when requested (both are O(rounds) / O(flows)
        and defeat the purpose of streaming on unbounded horizons).
        ``assignment[global_fid] = round``, in stream arrival order —
        byte-comparable against the materialized simulator's.
    """

    metrics: ScheduleMetrics
    rounds: int
    arrival_rounds: int
    stats: Dict[str, int] = field(default_factory=dict, repr=False)
    queue_history: Optional[np.ndarray] = field(default=None, repr=False)
    assignment: Optional[np.ndarray] = field(default=None, repr=False)


def _validate_batch(srcs, dsts, demands, switch, t: int) -> None:
    """Reject out-of-range ports / over-kappa demands at arrival time
    (the streaming analogue of ``Instance.create`` validation)."""
    if int(srcs.min()) < 0 or int(srcs.max()) >= switch.num_inputs:
        raise ValueError(
            f"round {t}: src port out of range for {switch.num_inputs} inputs"
        )
    if int(dsts.min()) < 0 or int(dsts.max()) >= switch.num_outputs:
        raise ValueError(
            f"round {t}: dst port out of range for {switch.num_outputs} outputs"
        )
    if int(demands.min()) < 1:
        raise ValueError(f"round {t}: demands must be >= 1")
    kappa = np.minimum(
        switch.input_capacities[srcs], switch.output_capacities[dsts]
    )
    if (demands > kappa).any():
        i = int(np.flatnonzero(demands > kappa)[0])
        raise ValueError(
            f"round {t}: flow demand {int(demands[i])} exceeds kappa_e = "
            f"min(c_{int(srcs[i])}, c_{int(dsts[i])}) = {int(kappa[i])}"
        )


def simulate_stream(
    stream,
    policy: OnlinePolicy,
    arrival_rounds: Optional[int] = None,
    max_rounds: Optional[int] = None,
    record_schedule: bool = False,
    record_queue_history: bool = False,
    timer: Optional[Timer] = None,
    verify: bool = False,
) -> StreamSimulationResult:
    """Run ``policy`` online over an arrival *stream*.

    The streaming sibling of :func:`simulate`: instead of an
    :class:`~repro.core.instance.Instance` materialized before round 0,
    ``stream`` (any iterable of per-round ``(srcs, dsts, demands)``
    batches with a ``.switch`` attribute — e.g. a
    :class:`repro.scenarios.ArrivalStream`) is consumed lazily, one
    round at a time, and finished flows are reclaimed — peak memory is
    O(active flows), not O(horizon), so unbounded horizons are
    first-class.  On any bounded prefix the selections are byte-identical
    to :func:`simulate` on the materialized instance: arrivals enter the
    queue in the same order, the policies see the same arrays, and local
    fids order exactly like materialized fids.

    Parameters
    ----------
    stream:
        The arrival source.  Batches after ``arrival_rounds`` (or the
        stream's own bound) are not consumed.
    policy:
        Any :class:`~repro.online.policies.OnlinePolicy`; it sees the
        same queue interface as under :func:`simulate`.
    arrival_rounds:
        How many arrival rounds to consume; defaults to the stream's
        ``rounds`` bound.  An unbounded stream requires it.
    max_rounds:
        Safety cap on *simulated* rounds (``RuntimeError`` beyond it —
        it bounds runaway policies, it does not bound the stream).
        Once arrivals end, a starvation guard of ``2 * waiting + 2``
        further rounds applies regardless.
    record_schedule / record_queue_history:
        Retain the full assignment / per-round queue depths (O(flows) /
        O(rounds) memory — for tests and bounded runs).
    timer:
        Optional :class:`~repro.utils.timing.Timer` (``sim_round``
        events, plus policy events).
    verify:
        Certify the finished run through
        :func:`repro.verify.check_online_run` and raise
        :class:`repro.verify.VerificationError` on any violation.
        Requires ``record_schedule=True`` (rejected otherwise): the
        aggregate metrics are computed from the same accumulators the
        checker would re-derive them from, so without the assignment
        there is nothing non-tautological to certify.

    Returns
    -------
    StreamSimulationResult
    """
    if verify and not record_schedule:
        raise ValueError(
            "simulate_stream(verify=True) requires record_schedule=True: "
            "without the assignment the checkers can only re-derive the "
            "engine's own accumulators (a tautology), not certify them"
        )
    switch = stream.switch
    limit = arrival_rounds
    if limit is None:
        limit = getattr(stream, "rounds", None)
    if limit is None:
        raise ValueError("unbounded stream: pass arrival_rounds=")

    queue = StreamFlowQueue(switch)
    view = _StreamView(switch)
    stats: Dict[str, int] = {}
    bind = getattr(policy, "bind_runtime", None)
    if bind is not None:
        bind(timer, stats)
    policy.reset(view)

    it = iter(stream)
    exhausted = False
    t = 0
    arrived = 0
    consumed = 0  # arrival rounds actually pulled from the stream
    total_resp = 0
    max_resp = 0
    makespan = 0
    assigned: Dict[int, int] = {}
    history: List[int] = []
    drain_deadline: Optional[int] = None

    while True:
        # Timer window matches simulate(): arrival ingestion (incl.
        # validation and rebases) counts as round work.
        round_start = time.perf_counter() if timer is not None else 0.0
        if not exhausted:
            if limit is not None and t >= limit:
                exhausted = True
            else:
                try:
                    batch = next(it)
                except StopIteration:
                    exhausted = True
                else:
                    consumed = t + 1
                    srcs = np.asarray(batch[0], dtype=np.int64)
                    dsts = np.asarray(batch[1], dtype=np.int64)
                    demands = np.asarray(batch[2], dtype=np.int64)
                    if srcs.size:
                        _validate_batch(srcs, dsts, demands, switch, t)
                        fids = queue.extend_flows(srcs, dsts, demands, t)
                        queue.arrive(fids)
                        arrived += int(srcs.size)
        if exhausted:
            if queue.n_alive == 0:
                break
            if drain_deadline is None:
                drain_deadline = t + 2 * queue.n_alive + 2
            elif t > drain_deadline:
                raise RuntimeError(
                    f"policy {policy.name} failed to drain the queue "
                    f"({queue.n_alive} flows waiting at round {t})"
                )
        if max_rounds is not None and t >= max_rounds:
            raise RuntimeError(
                f"policy {policy.name} exceeded {max_rounds} rounds with "
                f"{queue.n_alive} flows waiting"
            )
        if record_queue_history:
            history.append(queue.n_alive)
        if queue.n_alive:
            chosen = policy.select(t, queue, view)
            if not isinstance(chosen, np.ndarray):
                chosen = np.asarray(list(chosen), dtype=np.int64)
            _check_feasible(chosen, queue, switch, policy.name, t)
            if chosen.size:
                resp = (t + 1) - queue.releases[chosen]
                total_resp += int(resp.sum())
                peak = int(resp.max())
                if peak > max_resp:
                    max_resp = peak
                makespan = t + 1
                if record_schedule:
                    offset = queue.global_offset
                    for fid in chosen.tolist():
                        assigned[fid + offset] = t
                queue.remove(chosen)
        if timer is not None:
            timer.add("sim_round", time.perf_counter() - round_start)
        t += 1

    # The loop may have walked empty trailing arrival rounds after the
    # last flow was scheduled (it cannot know the tail is empty without
    # consuming it); the materialized simulator stops at the drain
    # point, which is exactly the makespan — report that, and trim the
    # (all-zero) history tail to match byte for byte.
    stats["sim_rounds"] = makespan
    stats["compactions"] = queue.compactions
    stats["rebases"] = queue.rebases
    stats["peak_alive"] = queue.peak_alive
    stats["peak_buffer"] = queue.peak_buffer
    del history[makespan:]
    metrics = ScheduleMetrics(
        num_flows=arrived,
        total_response=total_resp,
        average_response=(total_resp / arrived) if arrived else 0.0,
        max_response=max_resp,
        makespan=makespan,
        max_augmentation=0,
    )
    assignment = None
    if record_schedule:
        assignment = np.full(arrived, -1, dtype=np.int64)
        for gfid, round_ in assigned.items():
            assignment[gfid] = round_
    result = StreamSimulationResult(
        metrics=metrics,
        rounds=makespan,
        arrival_rounds=consumed,
        stats=stats,
        queue_history=(
            np.asarray(history, dtype=np.int64)
            if record_queue_history
            else None
        ),
        assignment=assignment,
    )
    if verify:
        from repro.verify import check_online_run

        check_online_run(result).raise_if_failed()
    return result
