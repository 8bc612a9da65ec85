"""Batched-vs-serial simulation equivalence (repro.online.batch).

The contract under test: for every built-in policy,
``simulate_batch(instances, policies)`` is **byte-identical** per trial
to ``[simulate(inst, pol) for ...]`` — same assignment arrays, same
queue histories, same aggregate metrics, same engine/policy stats
(including the per-trial Hopcroft–Karp diagnostics attributed by the
stacked solve) — whether the batch runs a merged kernel or falls back
per trial.
"""

import numpy as np
import pytest

from repro.coflow.model import random_shuffle_coflows
from repro.coflow.policies import make_coflow_policy
from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from repro.online.batch import batch_kernel_name, simulate_batch
from repro.online.policies import (
    POLICY_REGISTRY,
    FifoPolicy,
    MaxCardPolicy,
    make_policy,
)
from repro.online.simulator import simulate
from repro.utils.timing import Timer
from repro.workloads.synthetic import poisson_uniform_workload


def _unit_cell(n_trials, ports=8, mean=6, rounds=15, seed0=1000):
    return [
        poisson_uniform_workload(ports, mean, rounds, seed=seed0 + i)
        for i in range(n_trials)
    ]


def _capacitated_cell(n_trials, seed=0, n_flows=12):
    switch = Switch.create(
        4,
        input_capacities=[2, 1, 3, 2],
        output_capacities=[1, 2, 2, 3],
    )
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(n_trials):
        flows = []
        for _f in range(n_flows):
            s = int(rng.integers(0, 4))
            d = int(rng.integers(0, 4))
            kappa = switch.kappa(s, d)
            flows.append(
                Flow(s, d, int(rng.integers(1, kappa + 1)),
                     int(rng.integers(0, 6)))
            )
        instances.append(Instance.create(switch, flows))
    return instances


def _assert_equivalent(batch_results, serial_results, policy_name):
    assert len(batch_results) == len(serial_results)
    for i, (got, want) in enumerate(zip(batch_results, serial_results)):
        tag = f"{policy_name} trial {i}"
        assert (
            got.schedule.assignment.tolist()
            == want.schedule.assignment.tolist()
        ), tag
        assert got.queue_history.tolist() == want.queue_history.tolist(), tag
        assert got.rounds == want.rounds, tag
        assert got.metrics == want.metrics, tag
        assert got.stats == want.stats, tag


class TestMergedKernels:
    @pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
    def test_unit_cell_all_policies(self, name):
        instances = _unit_cell(6)
        batch = simulate_batch(
            instances, [make_policy(name) for _ in instances]
        )
        serial = [simulate(inst, make_policy(name)) for inst in instances]
        _assert_equivalent(batch, serial, name)

    @pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
    def test_high_load_unit_cell_all_policies(self, name):
        # Load 1.0: arrivals saturate the ports, so the packing kernels
        # run with capacities binding in nearly every round.
        instances = _unit_cell(5, ports=6, mean=6, rounds=12, seed0=9000)
        batch = simulate_batch(
            instances, [make_policy(name) for _ in instances]
        )
        serial = [simulate(inst, make_policy(name)) for inst in instances]
        _assert_equivalent(batch, serial, name)

    @pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
    def test_capacitated_cell_all_policies(self, name):
        instances = _capacitated_cell(5, seed=42)
        batch = simulate_batch(
            instances, [make_policy(name) for _ in instances]
        )
        serial = [simulate(inst, make_policy(name)) for inst in instances]
        _assert_equivalent(batch, serial, name)

    @pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
    def test_dense_capacitated_cell_all_policies(self, name):
        # Enough flows that port capacities bind for many consecutive
        # rounds — the vectorized capacitated pack's worst case.
        instances = _capacitated_cell(4, seed=3, n_flows=40)
        batch = simulate_batch(
            instances, [make_policy(name) for _ in instances]
        )
        serial = [simulate(inst, make_policy(name)) for inst in instances]
        _assert_equivalent(batch, serial, name)

    @pytest.mark.parametrize("name", ["SEBF", "CoflowFIFO"])
    def test_coflow_cell(self, name):
        cfs = [random_shuffle_coflows(6, 5, seed=7 + i) for i in range(4)]
        instances = [cf.instance for cf in cfs]
        policies = [make_coflow_policy(name, cf) for cf in cfs]
        assert batch_kernel_name(instances, policies) == "coflow"
        batch = simulate_batch(instances, policies)
        serial = [
            simulate(cf.instance, make_coflow_policy(name, cf)) for cf in cfs
        ]
        _assert_equivalent(batch, serial, name)

    def test_kernel_dispatch_unit(self):
        instances = _unit_cell(3)
        for name, expect in [
            ("FIFO", "fifo"),
            ("MaxCard", "maxcard"),
            ("Random", "random"),
            # Unit-capacity MinRTime/MaxWeight run per-trial assignment
            # solves; only their capacitated packing path batches.
            ("MinRTime", None),
            ("MaxWeight", None),
        ]:
            policies = [make_policy(name) for _ in instances]
            assert batch_kernel_name(instances, policies) == expect, name

    def test_kernel_dispatch_capacitated(self):
        instances = _capacitated_cell(3)
        for name, expect in [
            ("FIFO", "fifo"),
            ("MaxCard", "maxcard"),
            ("Random", "random"),
            ("MinRTime", "minrtime"),
            ("MaxWeight", "maxweight"),
        ]:
            policies = [make_policy(name) for _ in instances]
            assert batch_kernel_name(instances, policies) == expect, name

    def test_zero_flow_trials_interleaved(self):
        instances = _unit_cell(4)
        switch = instances[0].switch
        instances.insert(1, Instance.create(switch, []))
        policies = [make_policy("FIFO") for _ in instances]
        batch = simulate_batch(instances, policies)
        serial = [simulate(inst, make_policy("FIFO")) for inst in instances]
        _assert_equivalent(batch, serial, "FIFO")
        assert batch[1].rounds == 0
        assert batch[1].stats == {}

    def test_verify_and_timer(self):
        instances = _unit_cell(3)
        timer = Timer()
        with timer.recording():
            batch = simulate_batch(
                instances,
                [make_policy("MaxCard") for _ in instances],
                verify=True,
            )
        assert timer.counts.get("sim_round", 0) > 0
        # Per-phase attribution events from the merged engine.
        assert timer.counts.get("batch_select", 0) > 0
        assert timer.counts.get("batch_match", 0) > 0
        assert all(r.stats["matching_solves"] > 0 for r in batch)
        assert all(r.stats["bfs_phases"] > 0 for r in batch)

    def test_pack_timer_events(self):
        instances = _unit_cell(3)
        timer = Timer()
        with timer.recording():
            simulate_batch(instances, [make_policy("FIFO") for _ in instances])
        assert timer.counts.get("batch_pack", 0) > 0
        assert timer.counts.get("batch_select", 0) > 0

    def test_starvation_guard_matches_serial_message(self):
        instances = _unit_cell(3)
        with pytest.raises(RuntimeError, match="FIFO exceeded 1 rounds"):
            simulate_batch(
                instances,
                [make_policy("FIFO") for _ in instances],
                max_rounds=1,
            )


class TestWarmStartMaxCard:
    def test_warm_start_maxcard_merges(self):
        instances = _unit_cell(4)
        policies = [MaxCardPolicy(warm_start=True) for _ in instances]
        assert batch_kernel_name(instances, policies) == "maxcard"
        batch = simulate_batch(instances, policies)
        serial = [
            simulate(inst, MaxCardPolicy(warm_start=True))
            for inst in instances
        ]
        _assert_equivalent(batch, serial, "MaxCard(warm)")
        # Warm seeds actually flowed into the stacked solves.
        assert any(
            r.stats.get("warm_start_seeds", 0) > 0 for r in batch
        )

    def test_warm_start_high_load(self):
        instances = _unit_cell(4, ports=6, mean=6, rounds=12, seed0=4000)
        policies = [MaxCardPolicy(warm_start=True) for _ in instances]
        batch = simulate_batch(instances, policies)
        serial = [
            simulate(inst, MaxCardPolicy(warm_start=True))
            for inst in instances
        ]
        _assert_equivalent(batch, serial, "MaxCard(warm,load1)")

    def test_mixed_warm_flags_fall_back(self):
        instances = _unit_cell(3)
        policies = [
            MaxCardPolicy(warm_start=True),
            MaxCardPolicy(warm_start=False),
            MaxCardPolicy(warm_start=True),
        ]
        assert batch_kernel_name(instances, policies) is None
        batch = simulate_batch(instances, policies)
        for inst, pol, got in zip(instances, policies, batch):
            want = simulate(inst, MaxCardPolicy(warm_start=pol.warm_start))
            assert (
                got.schedule.assignment.tolist()
                == want.schedule.assignment.tolist()
            )
            assert got.stats == want.stats


class TestFallbacks:
    def test_mismatched_inputs_rejected(self):
        instances = _unit_cell(3)
        with pytest.raises(ValueError, match="policies"):
            simulate_batch(instances, [make_policy("FIFO")])
        assert simulate_batch([], []) == []

    def test_mixed_policy_types_fall_back(self):
        instances = _unit_cell(3)
        policies = [
            make_policy("FIFO"),
            make_policy("MaxCard"),
            make_policy("FIFO"),
        ]
        assert batch_kernel_name(instances, policies) is None
        batch = simulate_batch(instances, policies)
        for inst, pol_name, got in zip(
            instances, ["FIFO", "MaxCard", "FIFO"], batch
        ):
            want = simulate(inst, make_policy(pol_name))
            assert (
                got.schedule.assignment.tolist()
                == want.schedule.assignment.tolist()
            )

    def test_subclass_falls_back(self):
        class LimitedFifo(FifoPolicy):
            name = "LimitedFifo"

            def select(self, t, queue, instance):
                return super().select(t, queue, instance)[:1]

        inst = Instance.create(
            Switch.create(4), [Flow(i, i, 1, 0) for i in range(4)]
        )
        instances = [inst, inst]
        policies = [LimitedFifo(), LimitedFifo()]
        assert batch_kernel_name(instances, policies) is None
        batch = simulate_batch(instances, policies)
        assert all(r.rounds == 4 for r in batch)

    def test_mismatched_switches_fall_back(self):
        a = poisson_uniform_workload(8, 6, 10, seed=1)
        b = poisson_uniform_workload(4, 3, 10, seed=2)
        policies = [make_policy("FIFO"), make_policy("FIFO")]
        assert batch_kernel_name([a, b], policies) is None
        batch = simulate_batch([a, b], policies)
        serial = [simulate(a, make_policy("FIFO")),
                  simulate(b, make_policy("FIFO"))]
        _assert_equivalent(batch, serial, "FIFO")

    def test_single_trial_falls_back(self):
        instances = _unit_cell(1)
        batch = simulate_batch(instances, [make_policy("FIFO")])
        serial = [simulate(instances[0], make_policy("FIFO"))]
        _assert_equivalent(batch, serial, "FIFO")
