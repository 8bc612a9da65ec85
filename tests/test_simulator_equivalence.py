"""Old-vs-new simulator equivalence and FlowQueue invariants.

``_reference_simulate`` is a line-for-line port of the seed repository's
``repro.online.simulator.simulate`` (waiting dict, per-round policy
``select``), and the ``_Seed*`` policies are the seed's per-flow
selections over that dict: Python-object weights, packing over ``Flow``
records, and the seed's float-distance, per-call-adjacency Hopcroft–Karp
embedded for MaxCard so the reference shares no selection code with the
array policies.  The incremental engine must reproduce its
``assignment`` arrays and ``queue_history`` byte for byte on seeded
instances, for every built-in policy, on unit and capacitated switches.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings

from repro.coflow.model import random_shuffle_coflows
from repro.coflow.policies import make_coflow_policy
from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from repro.matching.weight_matching import max_weight_matching
from repro.online.policies import POLICY_REGISTRY, MaxCardPolicy, make_policy
from repro.online.simulator import FlowQueue, simulate
from repro.utils.timing import Timer
from repro.workloads.synthetic import (
    churn_heavy_workload,
    poisson_uniform_workload,
)
from tests.conftest import capacitated_instances, unit_instances

_INF = float("inf")


def _seed_hopcroft_karp(n_left, n_right, edges):
    """The seed repo's Hopcroft–Karp (float dist, per-call adjacency)."""
    adj = [[] for _ in range(n_left)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    edge_left = [-1] * n_left
    dist = [0.0] * n_left

    def bfs():
        queue = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v, _eid in adj[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root):
        stack = [[root, 0]]
        path = []
        while stack:
            frame = stack[-1]
            u, idx = frame
            advanced = False
            while idx < len(adj[u]):
                v, eid = adj[u][idx]
                idx += 1
                frame[1] = idx
                w = match_right[v]
                if w == -1:
                    path.append((u, v, eid))
                    for pu, pv, peid in path:
                        match_left[pu] = pv
                        match_right[pv] = pu
                        edge_left[pu] = peid
                    return True
                if dist[w] == dist[u] + 1:
                    path.append((u, v, eid))
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
                dfs(u)
    return {u: edge_left[u] for u in range(n_left) if match_left[u] != -1}


class _SeedPolicy:
    """The seed's dict interface: ``select(t, waiting, instance)`` over
    the insertion-ordered waiting dict, returning a list of fids."""

    def reset(self, instance):
        pass

    def _weights(self, t, flows, waiting):
        raise NotImplementedError

    def _select_matching(self, t, waiting, instance):
        """Weight-matching selection for unit capacities."""
        flows = list(waiting.values())
        weights = self._weights(t, flows, waiting)
        edges = [(f.src, f.dst) for f in flows]
        matching = max_weight_matching(
            instance.switch.num_inputs,
            instance.switch.num_outputs,
            edges,
            weights,
        )
        return [flows[eid].fid for eid in matching.values()]

    def _select_packing(self, t, waiting, instance):
        """Greedy weight-ordered packing for general capacities."""
        flows = list(waiting.values())
        weights = self._weights(t, flows, waiting)
        order = np.argsort(-np.asarray(weights), kind="stable")
        in_res = instance.switch.input_capacities.copy()
        out_res = instance.switch.output_capacities.copy()
        chosen = []
        for idx in order:
            flow = flows[int(idx)]
            if weights[int(idx)] <= 0:
                continue
            if in_res[flow.src] >= flow.demand and out_res[flow.dst] >= flow.demand:
                in_res[flow.src] -= flow.demand
                out_res[flow.dst] -= flow.demand
                chosen.append(flow.fid)
        return chosen

    def _select_by_weight(self, t, waiting, instance):
        if instance.switch.is_unit_capacity:
            return self._select_matching(t, waiting, instance)
        return self._select_packing(t, waiting, instance)


class _SeedMaxCard(_SeedPolicy):
    """MaxCard on the embedded seed kernel; unit-weight packing otherwise."""

    def select(self, t, waiting, instance):
        if not instance.switch.is_unit_capacity:
            return self._select_packing(t, waiting, instance)
        flows = list(waiting.values())
        matching = _seed_hopcroft_karp(
            instance.switch.num_inputs,
            instance.switch.num_outputs,
            [(f.src, f.dst) for f in flows],
        )
        return [flows[eid].fid for eid in matching.values()]

    def _weights(self, t, flows, waiting):
        return np.ones(len(flows))


class _SeedMinRTime(_SeedPolicy):
    def select(self, t, waiting, instance):
        return self._select_by_weight(t, waiting, instance)

    def _weights(self, t, flows, waiting):
        return np.asarray([t - f.release + 1 for f in flows], dtype=np.float64)


class _SeedMaxWeight(_SeedPolicy):
    def select(self, t, waiting, instance):
        return self._select_by_weight(t, waiting, instance)

    def _weights(self, t, flows, waiting):
        in_queue = np.zeros(max(f.src for f in flows) + 1, dtype=np.int64)
        out_queue = np.zeros(max(f.dst for f in flows) + 1, dtype=np.int64)
        for f in flows:
            in_queue[f.src] += 1
            out_queue[f.dst] += 1
        return np.asarray(
            [in_queue[f.src] + out_queue[f.dst] for f in flows],
            dtype=np.float64,
        )


class _SeedRandom(_SeedPolicy):
    def reset(self, instance):
        self._rng = np.random.default_rng(0)

    def select(self, t, waiting, instance):
        return self._select_packing(t, waiting, instance)

    def _weights(self, t, flows, waiting):
        return self._rng.random(len(flows)) + 1e-9


class _SeedFifo(_SeedPolicy):
    def select(self, t, waiting, instance):
        return self._select_packing(t, waiting, instance)

    def _weights(self, t, flows, waiting):
        return np.asarray([t - f.release + 1 for f in flows], dtype=np.float64)


class _SeedCoflowOrdered(_SeedPolicy):
    """Greedy packing sorted by (co-flow priority, cid, fid)."""

    def __init__(self, cf):
        self._cf = cf

    def select(self, t, waiting, instance):
        priorities = self._coflow_priorities(t, waiting)
        flows = sorted(
            waiting.values(),
            key=lambda f: (
                priorities[int(self._cf.coflow_of[f.fid])],
                int(self._cf.coflow_of[f.fid]),
                f.fid,
            ),
        )
        in_res = instance.switch.input_capacities.copy()
        out_res = instance.switch.output_capacities.copy()
        chosen = []
        for flow in flows:
            if (
                in_res[flow.src] >= flow.demand
                and out_res[flow.dst] >= flow.demand
            ):
                in_res[flow.src] -= flow.demand
                out_res[flow.dst] -= flow.demand
                chosen.append(flow.fid)
        return chosen


class _SeedSebf(_SeedCoflowOrdered):
    def _coflow_priorities(self, t, waiting):
        in_load = {}
        out_load = {}
        for flow in waiting.values():
            cid = int(self._cf.coflow_of[flow.fid])
            in_load[(cid, flow.src)] = (
                in_load.get((cid, flow.src), 0) + flow.demand
            )
            out_load[(cid, flow.dst)] = (
                out_load.get((cid, flow.dst), 0) + flow.demand
            )
        priorities = {}
        switch = self._cf.switch
        for (cid, p), load in in_load.items():
            val = load / switch.input_capacity(p)
            priorities[cid] = max(priorities.get(cid, 0.0), val)
        for (cid, q), load in out_load.items():
            val = load / switch.output_capacity(q)
            priorities[cid] = max(priorities.get(cid, 0.0), val)
        return priorities


class _SeedCoflowFifo(_SeedCoflowOrdered):
    def _coflow_priorities(self, t, waiting):
        return {
            int(self._cf.coflow_of[f.fid]): float(
                self._cf.coflows[int(self._cf.coflow_of[f.fid])].release
            )
            for f in waiting.values()
        }


_SEED_POLICIES = {
    "MaxCard": _SeedMaxCard,
    "MinRTime": _SeedMinRTime,
    "MaxWeight": _SeedMaxWeight,
    "Random": _SeedRandom,
    "FIFO": _SeedFifo,
}

_SEED_COFLOW_POLICIES = {"SEBF": _SeedSebf, "CoflowFIFO": _SeedCoflowFifo}


def _reference_simulate(instance, policy, max_rounds=None):
    """Line-for-line port of the seed repository's simulate()."""
    n = instance.num_flows
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if max_rounds is None:
        max_rounds = 2 * instance.horizon_bound() + 1
    by_release = instance.flows_by_release()
    assignment = np.full(n, -1, dtype=np.int64)
    waiting = {}
    scheduled_count = 0
    queue_history = []
    policy.reset(instance)
    t = 0
    while scheduled_count < n:
        if t >= max_rounds:
            raise RuntimeError("exceeded")
        for flow in by_release.get(t, ()):
            waiting[flow.fid] = flow
        queue_history.append(len(waiting))
        if waiting:
            chosen = policy.select(t, waiting, instance)
            for fid in chosen:
                assignment[fid] = t
                del waiting[fid]
            scheduled_count += len(chosen)
        t += 1
    return assignment, np.asarray(queue_history, dtype=np.int64)


def _reference_policy(name):
    return _SEED_POLICIES[name]()


class TestByteIdenticalToSeed:
    @pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
    def test_poisson_instance(self, name):
        inst = poisson_uniform_workload(8, 6, 15, seed=1234)
        ref_assignment, ref_history = _reference_simulate(
            inst, _reference_policy(name)
        )
        res = simulate(inst, make_policy(name))
        assert res.schedule.assignment.tolist() == ref_assignment.tolist()
        assert res.queue_history.tolist() == ref_history.tolist()

    @given(unit_instances(max_ports=4, max_flows=10))
    @settings(max_examples=25, deadline=None)
    def test_unit_property_all_policies(self, inst):
        for name in sorted(POLICY_REGISTRY):
            ref_assignment, ref_history = _reference_simulate(
                inst, _reference_policy(name)
            )
            res = simulate(inst, make_policy(name))
            assert res.schedule.assignment.tolist() == ref_assignment.tolist(), name
            assert res.queue_history.tolist() == ref_history.tolist(), name

    @given(capacitated_instances(max_flows=8))
    @settings(max_examples=25, deadline=None)
    def test_capacitated_property_all_policies(self, inst):
        for name in sorted(POLICY_REGISTRY):
            ref_assignment, ref_history = _reference_simulate(
                inst, _reference_policy(name)
            )
            res = simulate(inst, make_policy(name))
            assert res.schedule.assignment.tolist() == ref_assignment.tolist(), name
            assert res.queue_history.tolist() == ref_history.tolist(), name

    @pytest.mark.parametrize("name", ["SEBF", "CoflowFIFO"])
    def test_coflow_policies(self, name):
        cf = random_shuffle_coflows(6, 5, seed=7)
        ref_assignment, ref_history = _reference_simulate(
            cf.instance, _SEED_COFLOW_POLICIES[name](cf)
        )
        res = simulate(cf.instance, make_coflow_policy(name, cf))
        assert res.schedule.assignment.tolist() == ref_assignment.tolist()
        assert res.queue_history.tolist() == ref_history.tolist()


class TestWarmStartMode:
    def test_warm_start_schedules_are_valid_and_counted(self):
        from repro.core.schedule import validate_schedule

        inst = poisson_uniform_workload(8, 20, 12, seed=5)
        res = simulate(inst, MaxCardPolicy(warm_start=True))
        validate_schedule(res.schedule)
        assert res.stats.get("warm_start_seeds", 0) > 0
        assert res.stats["matching_solves"] == res.rounds

    def test_warm_start_fewer_bfs_phases_on_churn_heavy_instance(self):
        # Churn-heavy: hot port pairs with deep per-pair FIFOs, so every
        # scheduled head is replaced by a parallel copy and the matched
        # pair structure survives intact round after round.  The gadget
        # (L0: r0 then r1; L1: r0 only) makes greedy first-fit start
        # suboptimally every round, so a cold solve pays an augmenting
        # phase per round that the warm start never needs.
        inst = churn_heavy_workload(gadgets=4, copies=20)
        cold = simulate(inst, MaxCardPolicy(warm_start=False))
        warm = simulate(inst, MaxCardPolicy(warm_start=True))
        assert (
            cold.schedule.assignment.tolist()
            != [] and warm.stats["bfs_phases"] < cold.stats["bfs_phases"]
        )
        # Both modes still produce maximum matchings every round, so the
        # queue drains identically.
        assert warm.rounds == cold.rounds

    def test_timer_records_matching_and_round_events(self):
        timer = Timer()
        inst = poisson_uniform_workload(4, 4, 6, seed=2)
        with timer.recording():
            simulate(inst, MaxCardPolicy())
        assert timer.counts.get("sim_round", 0) > 0
        assert timer.counts.get("matching_solve", 0) > 0


class TestFlowQueue:
    def _brute_pairs(self, queue):
        """Recompute the pair view from scratch for cross-checking."""
        heads = {}
        for fid in queue.alive_fids().tolist():
            key = (int(queue.srcs[fid]), int(queue.dsts[fid]))
            if key not in heads:
                heads[key] = fid
        return heads

    def test_incremental_pair_view_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        n = 300
        flows = [
            Flow(int(rng.integers(0, 4)), int(rng.integers(0, 4)), 1,
                 int(rng.integers(0, 5)))
            for _ in range(n)
        ]
        inst = Instance.create(Switch.create(4), flows)
        queue = FlowQueue(inst)
        order = np.argsort(inst.releases(), kind="stable")
        queue.arrive(order[:150])
        queue.pair_adjacency()  # activate the incremental view
        alive = list(order[:150])
        pos = 150
        for step in range(40):
            # Random removals (any copies, not just heads) + arrivals.
            rng.shuffle(alive)
            kill = alive[: int(rng.integers(0, 6))]
            alive = alive[len(kill):]
            if kill:
                queue.remove(np.asarray(kill, dtype=np.int64))
            k = int(rng.integers(0, 5))
            if pos < n and k:
                batch = order[pos : pos + k]
                queue.arrive(batch)
                alive.extend(batch.tolist())
                pos += batch.size
            brute = self._brute_pairs(queue)
            adj_v, adj_f = queue.pair_adjacency()
            got = {}
            for u in range(4):
                for v, fid in zip(adj_v[u], adj_f[u]):
                    got[(u, v)] = fid
            assert got == brute, step
            # Rows stay sorted by the head's (release, fid) arrival key.
            for u in range(4):
                keys = [
                    (int(queue.releases[f]), int(f)) for f in adj_f[u]
                ]
                assert keys == sorted(keys), step
            assert queue.n_alive == len(alive)

    def test_compaction_preserves_arrival_order(self):
        inst = Instance.create(
            Switch.create(2), [Flow(0, 0, 1, 0) for _ in range(100)]
        )
        queue = FlowQueue(inst)
        queue.arrive(np.arange(100, dtype=np.int64))
        queue.remove(np.arange(0, 90, dtype=np.int64))
        assert queue.compactions >= 1
        assert queue.alive_fids().tolist() == list(range(90, 100))

    def test_port_queue_lengths_incremental(self):
        inst = Instance.create(
            Switch.create(3),
            [Flow(0, 1), Flow(0, 2), Flow(1, 1), Flow(2, 0)],
        )
        queue = FlowQueue(inst)
        queue.arrive(np.arange(4, dtype=np.int64))
        in_q, out_q = queue.port_queue_lengths()
        assert in_q.tolist() == [2, 1, 1]
        assert out_q.tolist() == [1, 2, 1]
        queue.remove(np.asarray([0], dtype=np.int64))
        in_q, out_q = queue.port_queue_lengths()
        assert in_q.tolist() == [1, 1, 1]
        assert out_q.tolist() == [1, 1, 1]
