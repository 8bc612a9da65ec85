"""Runner-level trial batching: plan_batches / run_batch / put_many.

The kernel-level byte-identity contract lives in
``test_batch_equivalence.py``; this module covers the orchestration
layers above it — batch planning, the bulk store protocol, the
whole-batch-vs-one-item-batches equivalence of ``run_batch`` across
every registered scenario and online policy (fallback policies
included), the Runner wiring, and the ``SweepInterrupted``
flush-and-resume promise for batched multiprocessing sweeps.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.api import (
    Runner,
    SweepInterrupted,
    register_solver,
    unregister_solver,
)
from repro.api.runner import (
    BatchWorkItem,
    WorkItem,
    plan_batches,
    run_batch,
)
from repro.api.store import ResultStore, close_open_stores
from repro.experiments.config import ExperimentConfig
from repro.lp.bounds import clear_bound_caches
from repro.online.policies import POLICY_REGISTRY
from repro.scenarios import list_scenarios, parse_scenario


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_bound_caches()
    close_open_stores()
    yield
    clear_bound_caches()
    close_open_stores()


def tiny_config(**overrides):
    base = dict(
        num_ports=6,
        load_ratios=(0.5,),
        generation_rounds=(4,),
        trials=6,
        lp_round_limit=4,
        seed=13,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def cell_items(config, solvers, trials=None, **overrides):
    """One cell's WorkItems, trial-minor, as Runner.run builds them."""
    fields = dict(
        arrival_mean=3.0,
        rounds=4,
        config=config,
        solvers=tuple(solvers),
        want_lp=False,
    )
    fields.update(overrides)
    return [
        WorkItem(trial=trial, **fields)
        for trial in range(trials or config.trials)
    ]


def result_payload(tr):
    """A TrialResult's comparable fields (timings are batch-scoped)."""
    payload = dataclasses.asdict(tr)
    payload.pop("timings")
    payload.pop("timing_counts")
    return payload


def run_each(items):
    """The per-trial mode: every item as its own one-item batch."""
    return [tr for item in items for tr in run_batch(BatchWorkItem((item,)))]


def store_lines(cache_dir) -> set:
    lines = set()
    for shard in Path(cache_dir).glob("results-*.jsonl"):
        lines.update(
            line for line in shard.read_text().splitlines() if line.strip()
        )
    return lines


class TestPlanBatches:
    def test_one_batch_per_cell_by_default(self):
        config = tiny_config(trials=4)
        items = []
        for mean in (2.0, 3.0, 4.0):
            items.extend(
                cell_items(config, ("FIFO",), arrival_mean=mean)[:4]
            )
        batches = plan_batches(items, trials=4)
        assert [len(b.items) for b in batches] == [4, 4, 4]
        # Batches never straddle a cell boundary.
        for b in batches:
            assert len({it.arrival_mean for it in b.items}) == 1
            assert [it.trial for it in b.items] == list(range(4))

    def test_batch_trials_caps_batch_size(self):
        config = tiny_config(trials=5)
        items = cell_items(config, ("FIFO",), trials=5) + [
            item
            for item in cell_items(
                config, ("FIFO",), trials=5, arrival_mean=9.0
            )
        ]
        batches = plan_batches(items, trials=5, batch_trials=3)
        assert [len(b.items) for b in batches] == [3, 2, 3, 2]
        for b in batches:
            assert len({it.arrival_mean for it in b.items}) == 1

    def test_batch_trials_one_is_item_per_batch(self):
        config = tiny_config(trials=3)
        items = cell_items(config, ("FIFO",))[:3]
        batches = plan_batches(items, trials=3, batch_trials=1)
        assert [len(b.items) for b in batches] == [1, 1, 1]

    def test_batch_trials_below_one_rejected(self):
        with pytest.raises(ValueError, match="batch_trials"):
            plan_batches([], trials=2, batch_trials=0)


class TestPutMany:
    def test_fifty_records_one_physical_append(self, tmp_path):
        store = ResultStore(tmp_path)
        records = [
            ("S", f"digest-{i}", {}, {"solver": "S", "metrics": {"i": i}})
            for i in range(50)
        ]
        assert store.put_many(records) == 50
        assert store.appends == 1
        shards = list(tmp_path.glob("results-*.jsonl"))
        assert len(shards) == 1
        assert len(shards[0].read_text().splitlines()) == 50
        store.close()
        reloaded = ResultStore(tmp_path)
        for i in range(50):
            assert reloaded.get("S", f"digest-{i}", {}) == {
                "solver": "S",
                "metrics": {"i": i},
            }

    def test_put_many_dedups_by_content(self, tmp_path):
        store = ResultStore(tmp_path)
        records = [("S", "d1", {}, {"v": 1}), ("S", "d2", {}, {"v": 2})]
        assert store.put_many(records) == 2
        # Identical records (and intra-batch duplicates) are skipped.
        assert store.put_many(records + records) == 0
        assert store.appends == 1

    def test_put_many_changed_record_wins_on_reload(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_many([("S", "d1", {}, {"v": "old"})])
        assert store.put_many([("S", "d1", {}, {"v": "new"})]) == 1
        store.close()
        close_open_stores()
        assert ResultStore(tmp_path).get("S", "d1", {}) == {"v": "new"}

    def test_get_many_orders_and_counts_like_get(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_many([("S", "d1", {}, {"v": 1}), ("S", "d2", {}, {"v": 2})])
        got = store.get_many(
            [("S", "d2", {}), ("S", "missing", {}), ("S", "d1", {})]
        )
        assert got == [{"v": 2}, None, {"v": 1}]
        assert store.hits == 2 and store.misses == 1


ALL_POLICIES = tuple(sorted(POLICY_REGISTRY))


class TestRunBatchEquivalence:
    @pytest.mark.parametrize("scenario", sorted(list_scenarios()))
    def test_scenario_batch_matches_serial_trials(self, scenario):
        """Satellite contract: for every registered scenario, a batched
        cell of 8 trials over every online policy (merged kernels and
        per-trial fallbacks alike) equals 8 one-item batches byte for
        byte, excluding the batch-scoped timings."""
        spec = parse_scenario(f"{scenario}:ports=8,horizon=10")
        config = tiny_config(trials=8, num_ports=8)
        items = cell_items(
            config,
            ALL_POLICIES,
            arrival_mean=0.0,
            rounds=10,
            scenario=spec.to_dict(),
        )
        serial = run_each(items)
        batched = run_batch(BatchWorkItem(tuple(items)))
        assert [result_payload(tr) for tr in batched] == [
            result_payload(tr) for tr in serial
        ]
        # Batch timings attach to the first result only, so sweep-level
        # timer totals never double count.
        assert batched[0].timings
        assert all(tr.timings == {} for tr in batched[1:])
        assert batched[0].timing_counts["generate"] == 8

    def test_grid_batch_matches_serial_with_lp_and_cache(self, tmp_path):
        config = tiny_config(trials=4)
        serial_items = cell_items(
            config,
            ("FIFO", "MaxWeight"),
            trials=4,
            want_lp=True,
            cache_dir=str(tmp_path / "serial"),
        )
        batch_items = [
            dataclasses.replace(item, cache_dir=str(tmp_path / "batched"))
            for item in serial_items
        ]
        serial = run_each(serial_items)
        close_open_stores()
        clear_bound_caches()
        batched = run_batch(BatchWorkItem(tuple(batch_items)))
        assert [result_payload(tr) for tr in batched] == [
            result_payload(tr) for tr in serial
        ]
        assert all(tr.lp_avg is not None for tr in batched)
        # Both paths persist the same record set (as shard lines).
        assert store_lines(tmp_path / "batched") == store_lines(
            tmp_path / "serial"
        )

    def test_batch_serves_cache_hits_without_solving(self, tmp_path):
        config = tiny_config(trials=3)
        items = cell_items(
            config,
            ("FIFO",),
            trials=3,
            cache_dir=str(tmp_path),
        )
        run_batch(BatchWorkItem(tuple(items)))
        close_open_stores()
        warm = run_batch(BatchWorkItem(tuple(items)))
        assert warm[0].timing_counts.get("simulate:FIFO", 0) == 0


class TestRunnerBatchWiring:
    def test_batched_sweep_equals_no_batch(self):
        config = tiny_config(trials=3, load_ratios=(0.5, 1.5))
        batched = Runner(config).run()
        serial = Runner(config, batch_trials=1).run()  # unbatched
        assert batched.cells == serial.cells

    def test_batch_trials_cap_preserves_results(self):
        config = tiny_config(trials=5, load_ratios=(0.5,))
        whole = Runner(config).run()
        capped = Runner(config, batch_trials=2).run()
        assert whole.cells == capped.cells

    def test_multiprocessing_batched_equals_serial(self):
        config = tiny_config(trials=4, load_ratios=(0.5, 1.5))
        serial = Runner(config).run()
        parallel = Runner(
            config, executor="multiprocessing", jobs=2
        ).run()
        assert serial.cells == parallel.cells

    def test_scenario_sweep_batched_equals_no_batch(self):
        config = tiny_config(trials=3)
        specs = ["paper-default:ports=8,horizon=8"]
        batched = Runner(config).run_scenarios(specs, solvers=["FIFO"])
        serial = Runner(config, batch_trials=1).run_scenarios(  # unbatched
            specs, solvers=["FIFO"]
        )
        assert batched == serial

    def test_bad_batch_trials_rejected(self):
        with pytest.raises(ValueError, match="batch_trials"):
            Runner(tiny_config(), batch_trials=0)

    def test_timer_counts_cover_all_trials(self):
        config = tiny_config(trials=4, load_ratios=(0.5,))
        sweep = Runner(config).run(workloads=[(3.0, 3)])
        assert sweep.timer.counts["generate"] == config.trials


class _InterruptingFifo:
    """Delegates to FIFO, but while the control dir (shared with pool
    workers via the environment) is armed, every fresh solve after the
    third simulates a Ctrl-C landing mid-batch.  Marker names are
    unique per solve so concurrent pool workers count monotonically."""

    name = "test-batch-interrupt"
    kind = "online"

    def solve(self, instance):
        import uuid

        ctrl = Path(os.environ["REPRO_TEST_BATCH_CTRL"])
        if (ctrl / "armed").exists():
            if len(list(ctrl.glob("solved-*"))) >= 3:
                raise KeyboardInterrupt
            (ctrl / f"solved-{uuid.uuid4().hex}").touch()
        from repro.api import get_solver

        return get_solver("FIFO").solve(instance)


@pytest.fixture
def interrupting_solver(tmp_path, monkeypatch):
    """The armed control dir of a registered :class:`_InterruptingFifo`."""
    ctrl = tmp_path / "ctrl"
    ctrl.mkdir()
    monkeypatch.setenv("REPRO_TEST_BATCH_CTRL", str(ctrl))
    register_solver("test-batch-interrupt", _InterruptingFifo)
    try:
        yield ctrl
    finally:
        unregister_solver("test-batch-interrupt")


class TestInterruptedBatchedSweep:
    def test_run_batch_interrupt_flushes_completed_trials(
        self, tmp_path, interrupting_solver
    ):
        """A batch killed mid-cell persists exactly the trials that had
        completed before the interrupt (the SweepInterrupted promise at
        the run_batch layer, where the count is deterministic)."""
        ctrl = interrupting_solver
        config = tiny_config(trials=6)
        cache = tmp_path / "cache"
        items = cell_items(
            config, ("test-batch-interrupt",), cache_dir=str(cache)
        )
        (ctrl / "armed").touch()
        with pytest.raises(KeyboardInterrupt):
            run_batch(BatchWorkItem(tuple(items)))
        flushed = store_lines(cache)
        assert len(flushed) == 3
        for line in flushed:
            assert json.loads(line)["solver"] == "test-batch-interrupt"

        # Resuming serves the flushed trials from disk and recomputes
        # only the rest — converging to an uninterrupted per-trial run's
        # store.
        (ctrl / "armed").unlink()
        close_open_stores()
        resumed = run_batch(BatchWorkItem(tuple(items)))
        full = tmp_path / "full"
        close_open_stores()
        uninterrupted = run_each(
            [dataclasses.replace(item, cache_dir=str(full)) for item in items]
        )
        assert [result_payload(tr) for tr in resumed] == [
            result_payload(tr) for tr in uninterrupted
        ]
        assert store_lines(cache) == store_lines(full)

    def test_interrupted_mp_sweep_resumes_byte_identical(
        self, tmp_path, interrupting_solver
    ):
        """Regression: a batched multiprocessing sweep killed mid-flight
        surfaces as SweepInterrupted, keeps every flushed record valid,
        and resumes byte-identically to an uninterrupted sweep."""
        ctrl = interrupting_solver
        config = tiny_config(trials=6)
        cache = tmp_path / "cache"
        full = tmp_path / "full"
        run_kwargs = dict(
            solvers=["test-batch-interrupt"], workloads=[(3.0, 4)]
        )

        def runner(cache_dir, **kwargs):
            return Runner(
                config,
                compute_lp_bounds=False,
                cache_dir=str(cache_dir),
                batch_trials=3,  # two batches, so the pool really engages
                **kwargs,
            )

        (ctrl / "armed").touch()
        with pytest.raises(SweepInterrupted):
            runner(cache, executor="multiprocessing", jobs=2).run(
                **run_kwargs
            )
        (ctrl / "armed").unlink()
        close_open_stores()
        clear_bound_caches()
        resumed = runner(cache, executor="multiprocessing", jobs=2).run(
            **run_kwargs
        )
        uninterrupted = runner(full).run(**run_kwargs)
        assert resumed.cells == uninterrupted.cells
        # Every record the dying batches flushed was kept (the resumed
        # store converges to the uninterrupted one, no torn leftovers).
        assert store_lines(cache) == store_lines(full)
