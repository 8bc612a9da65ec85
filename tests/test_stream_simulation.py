"""Tests for the streaming simulation engine (simulate_stream & friends).

The two load-bearing claims, per the subsystem's acceptance criteria:

1. **Equivalence** — on any bounded prefix, streaming simulation is
   byte-identical to materializing the same prefix and running the
   offline-fed :func:`repro.online.simulator.simulate` (same
   assignments, same queue history, same metrics) for every built-in
   policy.
2. **O(active flows) memory** — at a horizon ≥ 10× the largest
   materialized test in this suite, the engine's flow buffer peaks at a
   small multiple of the peak number of *active* flows (asserted via
   the ``peak_buffer`` / ``peak_alive`` FlowQueue stats), not at the
   total flow count.
"""

import numpy as np
import pytest

from repro.online.amrt import run_amrt, run_amrt_stream
from repro.online.policies import POLICY_REGISTRY, OnlinePolicy, make_policy
from repro.online.simulator import (
    StreamFlowQueue,
    simulate,
    simulate_stream,
)
from repro.core.schedule import ScheduleError
from repro.core.switch import Switch
from repro.scenarios import ArrivalStream, build_stream, make_batch
from repro.utils.timing import Timer

#: The largest materialized horizon used by the equivalence tests below;
#: the memory test streams ≥ 10× this.
LARGEST_MATERIALIZED_ROUNDS = 200

EQUIV_SCENARIOS = (
    "paper-default:ports=10,mean=8,horizon=40",
    "onoff-bursty:ports=10,horizon=40",
    "heavy-tailed:ports=10,horizon=30",
    "incast:ports=10,horizon=30",
    "trace-replay",
)


class TestEquivalence:
    @pytest.mark.parametrize("scenario", EQUIV_SCENARIOS)
    @pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
    def test_stream_matches_materialized(self, scenario, policy):
        stream = build_stream(scenario, seed=7)
        inst = stream.materialize()
        offline = simulate(inst, make_policy(policy))
        streamed = simulate_stream(
            stream, make_policy(policy),
            record_schedule=True, record_queue_history=True,
        )
        assert np.array_equal(offline.schedule.assignment, streamed.assignment)
        assert np.array_equal(offline.queue_history, streamed.queue_history)
        assert offline.metrics.num_flows == streamed.metrics.num_flows
        assert offline.metrics.total_response == streamed.metrics.total_response
        assert offline.metrics.max_response == streamed.metrics.max_response
        assert offline.metrics.makespan == streamed.metrics.makespan
        assert offline.rounds == streamed.rounds

    def test_bounded_prefix_of_long_stream(self):
        """Streaming a prefix of a much longer stream matches materializing
        exactly that prefix (the acceptance criterion's framing)."""
        long_stream = build_stream(
            f"paper-default:ports=8,mean=6,horizon={LARGEST_MATERIALIZED_ROUNDS * 20}",
            seed=11,
        )
        prefix = long_stream.take(LARGEST_MATERIALIZED_ROUNDS)
        inst = prefix.materialize()
        offline = simulate(inst, make_policy("MaxCard"))
        streamed = simulate_stream(
            long_stream, make_policy("MaxCard"),
            arrival_rounds=LARGEST_MATERIALIZED_ROUNDS,
            record_schedule=True,
        )
        assert np.array_equal(offline.schedule.assignment, streamed.assignment)

    def test_custom_policy_goes_through_stream(self):
        """A policy outside the registry (no merged kernel, plain loop
        over the queue arrays) still matches its materialized run."""

        class OldestFirst(OnlinePolicy):
            name = "OldestFirst"

            def select(self, t, queue, instance):
                in_res = instance.switch.input_capacities.copy()
                out_res = instance.switch.output_capacities.copy()
                chosen = []
                for fid in queue.alive_fids().tolist():
                    s = queue.srcs[fid]
                    d = queue.dsts[fid]
                    dem = queue.demands[fid]
                    if in_res[s] >= dem and out_res[d] >= dem:
                        in_res[s] -= dem
                        out_res[d] -= dem
                        chosen.append(fid)
                return np.asarray(chosen, dtype=np.int64)

        stream = build_stream("paper-default:ports=8,mean=5,horizon=30", seed=3)
        offline = simulate(stream.materialize(), OldestFirst())
        streamed = simulate_stream(
            stream, OldestFirst(), record_schedule=True
        )
        assert np.array_equal(offline.schedule.assignment, streamed.assignment)

    def test_timer_and_policy_stats_flow_through(self):
        stream = build_stream("paper-default:ports=8,mean=5,horizon=20", seed=0)
        timer = Timer()
        with timer.recording():
            res = simulate_stream(stream, make_policy("MaxCard"))
        assert timer.counts["sim_round"] == res.rounds
        assert res.stats["matching_solves"] > 0
        assert res.stats["sim_rounds"] == res.rounds


class TestStreamingMemory:
    def test_peak_buffer_is_order_active_flows(self):
        """Acceptance criterion: horizon ≥ 10× the largest materialized
        test, peak flow-buffer O(active flows), measured by the queue."""
        horizon = 10 * LARGEST_MATERIALIZED_ROUNDS
        stream = build_stream(
            f"paper-default:ports=8,mean=6,horizon={horizon}", seed=1
        )
        res = simulate_stream(stream, make_policy("MaxWeight"))
        stats = res.stats
        assert res.metrics.num_flows > 10_000  # genuinely long
        assert stats["rebases"] > 0
        # The window never held more than a small multiple of the peak
        # active count (plus the fixed rebase hysteresis floor) — and is
        # far below the O(total flows) a materialized run would hold.
        bound = 8 * max(stats["peak_alive"], 64)
        assert stats["peak_buffer"] <= bound, stats
        assert stats["peak_buffer"] < res.metrics.num_flows / 10

    def test_quiet_tail_matches_materialized_rounds(self):
        """Arrival rounds that are empty after the queue drains (large
        incast gap) must not inflate rounds/queue_history relative to
        the materialized run."""
        stream = build_stream("incast:ports=10,fan_in=2,gap=10,horizon=30",
                              seed=0)
        offline = simulate(stream.materialize(), make_policy("MaxCard"))
        streamed = simulate_stream(
            stream, make_policy("MaxCard"), record_queue_history=True
        )
        assert streamed.rounds == offline.rounds
        assert np.array_equal(streamed.queue_history, offline.queue_history)
        # ...while arrival_rounds still reports the consumed tail.
        assert streamed.arrival_rounds == 30

    def test_arrival_rounds_reports_actual_consumption(self):
        """A stream that ends before the requested limit reports the
        rounds it actually supplied, not the drain rounds."""
        stream = build_stream("incast:ports=6,gap=3,horizon=7", seed=0)
        res = simulate_stream(
            stream, make_policy("FIFO"), arrival_rounds=100
        )
        assert res.arrival_rounds == 7
        assert res.rounds >= 7

    def test_unbounded_stream_requires_a_bound(self):
        switch = Switch.create(4)

        def factory():
            while True:
                yield make_batch([0], [1])

        unbounded = ArrivalStream(switch, factory, None, "forever")
        with pytest.raises(ValueError, match="unbounded"):
            simulate_stream(unbounded, make_policy("FIFO"))
        # arrival_rounds bounds it
        res = simulate_stream(
            unbounded, make_policy("FIFO"), arrival_rounds=5
        )
        assert res.metrics.num_flows == 5


class TestStreamFlowQueueInternals:
    def _queue(self):
        return StreamFlowQueue(Switch.create(4))

    def test_extend_and_rebase_preserve_alive_flows(self):
        q = self._queue()
        rng = np.random.default_rng(0)
        expected_alive = {}
        next_gfid = 0
        for t in range(400):
            k = int(rng.integers(0, 8))
            srcs = rng.integers(0, 4, size=k)
            dsts = rng.integers(0, 4, size=k)
            fids = q.extend_flows(srcs, dsts, np.ones(k, dtype=np.int64), t)
            q.arrive(fids)
            for i in range(k):
                expected_alive[next_gfid + i] = (int(srcs[i]), int(dsts[i]), t)
            next_gfid += k
            # Schedule a random half of the waiting flows.
            alive = q.alive_fids()
            if alive.size:
                pick = alive[rng.random(alive.size) < 0.5]
                if pick.size:
                    q.remove(pick)
                    for fid in pick.tolist():
                        del expected_alive[fid + q.global_offset]
        # Window contents must exactly match the surviving flows.
        got = {
            fid + q.global_offset: (
                int(q.srcs[fid]), int(q.dsts[fid]), int(q.releases[fid])
            )
            for fid in q.alive_fids().tolist()
        }
        assert got == expected_alive
        assert q.rebases > 0
        assert q.buffer_size < next_gfid  # the window actually slid

    def test_pair_view_survives_rebase(self):
        """The incremental pair view rebuilds correctly after the window
        slides (stale fids would select unknown flows)."""
        stream = build_stream("paper-default:ports=6,mean=4,horizon=2000",
                              seed=2)
        res = simulate_stream(stream, make_policy("MaxCard"))
        assert res.stats["rebases"] > 0  # the scenario exercised the slide

    def test_feasibility_still_enforced(self):
        class Overloader(OnlinePolicy):
            name = "Overloader"

            def select(self, t, queue, instance):
                # Two flows into the same output port.
                fids = queue.alive_fids()
                return fids[queue.dsts[fids] == 0][:2]

        switch = Switch.create(4)

        def factory():
            yield make_batch([0, 1], [0, 0])

        stream = ArrivalStream(switch, factory, 1, "clash")
        with pytest.raises(ScheduleError, match="overloaded output"):
            simulate_stream(stream, Overloader())

    def test_batch_validation(self):
        switch = Switch.create(4)

        def bad_port():
            yield make_batch([9], [0])

        with pytest.raises(ValueError, match="src port out of range"):
            simulate_stream(
                ArrivalStream(switch, bad_port, 1, "bad"),
                make_policy("FIFO"),
            )

        def bad_demand():
            yield (np.array([0]), np.array([1]), np.array([5]))

        with pytest.raises(ValueError, match="exceeds kappa"):
            simulate_stream(
                ArrivalStream(switch, bad_demand, 1, "bad"),
                make_policy("FIFO"),
            )

    def test_empty_stream(self):
        switch = Switch.create(4)
        res = simulate_stream(
            ArrivalStream(switch, lambda: iter(()), 0, "empty"),
            make_policy("MaxWeight"),
        )
        assert res.metrics.num_flows == 0
        assert res.rounds == 0


class TestAMRTStream:
    def test_matches_materialized_amrt(self):
        stream = build_stream("paper-default:ports=8,mean=3,horizon=12",
                              seed=4)
        offline = run_amrt(stream.materialize())
        streamed = run_amrt_stream(stream)
        assert streamed.metrics.total_response == offline.metrics.total_response
        assert streamed.metrics.max_response == offline.metrics.max_response
        assert streamed.metrics.makespan == offline.metrics.makespan
        assert streamed.final_rho == offline.final_rho
        assert streamed.batches == offline.batches
        assert streamed.max_port_usage == offline.max_port_usage
        assert streamed.arrivals == offline.metrics.num_flows

    def test_unbounded_requires_arrival_rounds(self):
        switch = Switch.create(4)

        def factory():
            while True:
                yield make_batch([0], [1])

        unbounded = ArrivalStream(switch, factory, None, "forever")
        with pytest.raises(ValueError, match="unbounded"):
            run_amrt_stream(unbounded)
        res = run_amrt_stream(unbounded, arrival_rounds=4)
        assert res.arrivals == 4

    def test_empty_stream(self):
        switch = Switch.create(4)
        res = run_amrt_stream(
            ArrivalStream(switch, lambda: iter(()), 0, "empty")
        )
        assert res.arrivals == 0
        assert res.batches == 0
        assert res.metrics.num_flows == 0


def _stream(*batches):
    """A 4-port stream whose round-``t`` arrivals are ``batches[t]``."""
    return ArrivalStream(
        Switch.create(4), lambda: iter(batches), len(batches), "fixed"
    )


class TestStreamRoundLimits:
    def test_max_rounds_grants_exactly_that_many_rounds(self):
        # Three flows on port pair (0, 0) need one round each.
        stream = _stream(make_batch([0, 0, 0], [0, 0, 0]))
        res = simulate_stream(stream, make_policy("FIFO"), max_rounds=3)
        assert res.rounds == 3
        assert res.metrics.num_flows == 3

    def test_max_rounds_exceeded(self):
        stream = _stream(make_batch([0, 0, 0], [0, 0, 0]))
        with pytest.raises(RuntimeError, match="exceeded 2 rounds"):
            simulate_stream(stream, make_policy("FIFO"), max_rounds=2)

    def test_drain_guard_stops_an_idle_policy(self):
        class Idle(OnlinePolicy):
            name = "Idle"

            def select(self, t, queue, instance):
                return np.empty(0, dtype=np.int64)

        stream = _stream(make_batch([0], [1]))
        with pytest.raises(
            RuntimeError,
            match=r"failed to drain the queue \(1 flows waiting at round 6\)",
        ):
            simulate_stream(stream, Idle())


#: Batches a stream may yield without going through ``make_batch``.
MALFORMED_BATCHES = {
    "sizes-2-1-1": ([0, 1], [2], [1]),
    "sizes-1-2-1": ([0], [2, 3], [1]),
    "sizes-2-1-2": ([0, 1], [2], [1, 1]),
    "sizes-3-2-3": ([0, 1, 2], [2, 3], [1, 1, 1]),
    "two-dimensional": ([[0, 1]], [[2, 3]], [[1, 1]]),
}

STREAM_CONSUMERS = {
    "simulate_stream": lambda s: simulate_stream(s, make_policy("FIFO")),
    "run_amrt_stream": run_amrt_stream,
    "materialize": lambda s: s.materialize(),
}


@pytest.mark.parametrize("consumer", sorted(STREAM_CONSUMERS))
@pytest.mark.parametrize(
    "batch", list(MALFORMED_BATCHES.values()), ids=list(MALFORMED_BATCHES)
)
def test_malformed_batch_is_rejected(consumer, batch):
    """Every stream consumer names the round of a batch whose arrays are
    not one-dimensional and equally sized."""
    stream = _stream(make_batch([0], [1]), batch)
    with pytest.raises(
        ValueError,
        match=r"^round 1: batch arrays must be one-dimensional with equal sizes",
    ):
        STREAM_CONSUMERS[consumer](stream)
