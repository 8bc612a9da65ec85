"""Tests for the online round-based simulator."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.schedule import ScheduleError, validate_schedule
from repro.core.switch import Switch
from repro.online.policies import FifoPolicy, MaxCardPolicy, OnlinePolicy
from repro.online.simulator import simulate
from tests.conftest import capacitated_instances, unit_instances


class GreedyBadPolicy(OnlinePolicy):
    """Deliberately overloads ports (for engine validation tests)."""

    name = "Bad"

    def select(self, t, queue, instance):
        return queue.alive_fids()


class LazyPolicy(OnlinePolicy):
    """Never schedules anything (starvation detection test)."""

    name = "Lazy"

    def select(self, t, queue, instance):
        return np.empty(0, dtype=np.int64)


class DoubleDipPolicy(OnlinePolicy):
    """Returns a duplicated fid."""

    name = "Dup"

    def select(self, t, queue, instance):
        fid = queue.alive_fids()[0]
        return np.asarray([fid, fid], dtype=np.int64)


class TestEngine:
    def test_empty_instance(self):
        res = simulate(Instance.create(Switch.create(1), []), MaxCardPolicy())
        assert res.rounds == 0

    def test_flows_invisible_before_release(self):
        inst = Instance.create(
            Switch.create(2), [Flow(0, 0, 1, 0), Flow(1, 1, 1, 3)]
        )
        res = simulate(inst, MaxCardPolicy())
        assert res.schedule.round_of(1) >= 3
        validate_schedule(res.schedule)

    def test_queue_history_tracks_backlog(self):
        inst = Instance.create(
            Switch.create(2), [Flow(0, 0), Flow(0, 0), Flow(0, 0)]
        )
        res = simulate(inst, FifoPolicy())
        assert res.queue_history.tolist() == [3, 2, 1]

    def test_overloading_policy_caught(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 0), Flow(0, 1)])
        with pytest.raises(ScheduleError, match="overloaded"):
            simulate(inst, GreedyBadPolicy())

    def test_starving_policy_caught(self):
        inst = Instance.create(Switch.create(2), [Flow(0, 0)])
        with pytest.raises(RuntimeError, match="exceeded"):
            simulate(inst, LazyPolicy(), max_rounds=5)

    def test_max_rounds_is_exact(self):
        # Regression for the off-by-one `t > max_rounds` guard: the
        # policy gets exactly max_rounds rounds, not max_rounds + 1.
        inst = Instance.create(Switch.create(2), [Flow(0, 0)])
        calls = []

        class CountingLazyPolicy(OnlinePolicy):
            name = "CountingLazy"

            def select(self, t, queue, instance):
                calls.append(t)
                return np.empty(0, dtype=np.int64)

        with pytest.raises(RuntimeError, match="exceeded 5 rounds"):
            simulate(inst, CountingLazyPolicy(), max_rounds=5)
        assert calls == [0, 1, 2, 3, 4]

    def test_max_rounds_boundary_success_and_failure(self):
        # Three same-port unit flows need exactly 3 FIFO rounds: a cap of
        # 3 must succeed and a cap of 2 must raise.  The old `>` guard
        # silently granted the third round under max_rounds=2.
        inst = Instance.create(
            Switch.create(2), [Flow(0, 0), Flow(0, 0), Flow(0, 0)]
        )
        res = simulate(inst, FifoPolicy(), max_rounds=3)
        assert res.rounds == 3
        with pytest.raises(RuntimeError, match="exceeded 2 rounds"):
            simulate(inst, FifoPolicy(), max_rounds=2)

    def test_default_cap_allows_full_horizon(self):
        # The derived default must not shrink with the tightened guard:
        # a full-horizon FIFO run still completes without a cap.
        inst = Instance.create(
            Switch.create(2), [Flow(0, 0), Flow(0, 0), Flow(0, 0, 1, 2)]
        )
        res = simulate(inst, FifoPolicy())
        assert res.rounds <= 2 * inst.horizon_bound() + 1

    def test_duplicate_selection_caught(self):
        inst = Instance.create(Switch.create(2, 2, 2), [Flow(0, 0)])
        with pytest.raises(ScheduleError, match="twice"):
            simulate(inst, DoubleDipPolicy())

    @given(unit_instances(max_ports=4, max_flows=8))
    @settings(max_examples=40, deadline=None)
    def test_maxcard_always_valid(self, inst):
        res = simulate(inst, MaxCardPolicy())
        validate_schedule(res.schedule)

    @given(capacitated_instances())
    @settings(max_examples=40, deadline=None)
    def test_fifo_handles_general_capacities(self, inst):
        res = simulate(inst, FifoPolicy())
        validate_schedule(res.schedule)
