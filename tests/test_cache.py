"""Tests for the on-disk result store and cache-backed sweeps."""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.runner import Runner
from repro.api.store import (
    ResultStore,
    canonical_key,
    close_open_stores,
    open_store,
)
from repro.experiments.config import ExperimentConfig


@pytest.fixture(autouse=True)
def fresh_memo():
    # The store memo would mask disk-cache misses; clear it so every
    # test observes the on-disk store alone.
    close_open_stores()
    yield
    close_open_stores()


def cold_memos():
    """Force the next Runner call to reload everything from disk."""
    close_open_stores()


def tiny_config(**overrides):
    base = dict(
        num_ports=5,
        load_ratios=(0.6, 1.5),
        generation_rounds=(3, 4),
        trials=2,
        lp_round_limit=4,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def sweep_payload(sweep) -> bytes:
    """Canonical bytes of a sweep's cells (the figure renderers' input)."""
    cells = {
        f"{m}|{t}": dataclasses.asdict(cell)
        for (m, t), cell in sweep.cells.items()
    }
    return json.dumps(cells, sort_keys=True).encode()


def store_lines(cache_dir) -> set:
    lines = set()
    for shard in cache_dir.glob("results-*.jsonl"):
        lines.update(
            line for line in shard.read_text().splitlines() if line.strip()
        )
    return lines


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        report = {"solver": "X", "metrics": {"average_response": 1.5}}
        store.put("X", "d" * 64, {"p": 1}, report)
        assert store.get("X", "d" * 64, {"p": 1}) == report
        assert store.get("X", "d" * 64, {"p": 2}) is None
        assert store.hits == 1 and store.misses == 1

    def test_persists_across_instances(self, tmp_path):
        ResultStore(tmp_path).put("X", "d" * 64, {}, {"v": 1})
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 1
        assert fresh.get("X", "d" * 64, {}) == {"v": 1}

    def test_key_normalizes_param_order(self):
        assert canonical_key("s", "d", {"a": 1, "b": 2}) == canonical_key(
            "s", "d", {"b": 2, "a": 1}
        )
        assert canonical_key("s", "d", {"a": 1}) != canonical_key(
            "s", "d", {"a": 2}
        )

    def test_read_disabled_misses_but_writes(self, tmp_path):
        ResultStore(tmp_path).put("X", "d" * 64, {}, {"v": 1})
        no_read = ResultStore(tmp_path, read=False)
        assert no_read.get("X", "d" * 64, {}) is None
        no_read.put("Y", "d" * 64, {}, {"v": 2})
        assert ResultStore(tmp_path).get("Y", "d" * 64, {}) == {"v": 2}

    def test_duplicate_put_not_reappended(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("X", "d" * 64, {}, {"v": 1})
        store.put("X", "d" * 64, {}, {"v": 1})
        store.close()
        assert len(store_lines(tmp_path)) == 1

    def test_torn_tail_line_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("X", "d" * 64, {}, {"v": 1})
        store.close()
        shard = next(tmp_path.glob("results-*.jsonl"))
        with open(shard, "a") as fh:
            fh.write('{"key": "truncat')  # kill landed mid-write
        recovered = ResultStore(tmp_path)
        assert len(recovered) == 1
        assert recovered.get("X", "d" * 64, {}) == {"v": 1}

    def test_open_store_memoised_per_dir(self, tmp_path):
        a = open_store(tmp_path)
        assert open_store(tmp_path) is a
        assert open_store(tmp_path, read=False) is not a

    def test_no_cache_refreshes_stale_records(self, tmp_path):
        # Regression: a read-disabled (--no-cache) recompute that yields
        # a *different* record must replace the stale one, not be dropped
        # by key-level dedup against the loaded index.
        ResultStore(tmp_path).put("X", "d" * 64, {}, {"v": "stale"})
        refresher = ResultStore(tmp_path, read=False)
        refresher.put("X", "d" * 64, {}, {"v": "fixed"})
        refresher.close()
        assert ResultStore(tmp_path).get("X", "d" * 64, {}) == {"v": "fixed"}

    def test_open_store_evicts_and_closes_lru(self, tmp_path):
        from repro.api.store import OPEN_STORE_LIMIT, _OPEN_STORES

        first = open_store(tmp_path / "dir0")
        first.put("X", "d" * 64, {}, {"v": 0})  # opens the shard handle
        assert first._fh is not None
        for i in range(1, OPEN_STORE_LIMIT + 2):
            open_store(tmp_path / f"dir{i}")
        assert len(_OPEN_STORES) <= OPEN_STORE_LIMIT
        # The evicted store's handle was closed, and it self-heals on the
        # next put (records are flushed per write, so nothing is lost).
        assert first._fh is None
        first.put("Y", "d" * 64, {}, {"v": 1})
        reloaded = ResultStore(tmp_path / "dir0")
        assert reloaded.get("X", "d" * 64, {}) == {"v": 0}
        assert reloaded.get("Y", "d" * 64, {}) == {"v": 1}


class TestCachedSweeps:
    def test_second_run_serves_everything_from_disk(self, tmp_path):
        config = tiny_config()
        first = Runner(config, cache_dir=tmp_path).run()
        cold_memos()
        second = Runner(config, cache_dir=tmp_path).run()
        assert first.cells == second.cells
        # Zero LP solves and zero simulations on the warm run; only the
        # workload generation (which computes the digest keys) remains —
        # per-trial ``generate`` events plus the batched path's
        # ``batch_generate`` cell wrapper.
        for name in second.timer.counts:
            assert name in ("generate", "batch_generate"), second.timer.counts

    def test_cached_equals_uncached(self, tmp_path):
        config = tiny_config()
        plain = Runner(config).run()
        cold_memos()
        cached = Runner(config, cache_dir=tmp_path).run()
        cold_memos()
        warm = Runner(config, cache_dir=tmp_path).run()
        assert sweep_payload(plain) == sweep_payload(cached)
        assert sweep_payload(plain) == sweep_payload(warm)

    def test_resume_false_recomputes(self, tmp_path):
        config = tiny_config()
        Runner(config, cache_dir=tmp_path).run()
        cold_memos()
        recomputed = Runner(config, cache_dir=tmp_path, resume=False).run()
        assert recomputed.timer.counts.get("lp_bound_solve", 0) > 0

    def test_resume_false_bypasses_in_process_memo(self, tmp_path):
        # Regression: without clearing any memo, a resume=False rerun in
        # the same process must re-solve the LP bounds: the bounds keep
        # no state between calls, and resume=False skips the store.
        config = tiny_config()
        warmed = Runner(config, cache_dir=tmp_path).run()
        assert warmed.timer.counts.get("lp_bound_solve", 0) > 0
        recomputed = Runner(config, cache_dir=tmp_path, resume=False).run()
        assert recomputed.timer.counts.get("lp_bound_solve", 0) > 0

    def test_no_cache_refresh_visible_to_later_reads_in_process(
        self, tmp_path
    ):
        # Regression: read -> refresh (resume=False) -> read, all in one
        # process.  The third run must see the refreshed store, not the
        # first run's memoised pre-refresh index.
        store = open_store(tmp_path)
        store.put("X", "d" * 64, {}, {"v": "stale"})
        open_store(tmp_path, read=False).put("X", "d" * 64, {}, {"v": "fixed"})
        assert open_store(tmp_path).get("X", "d" * 64, {}) == {"v": "fixed"}

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path):
        config = tiny_config()
        full_dir = tmp_path / "full"
        part_dir = tmp_path / "interrupted"
        uninterrupted = Runner(config, cache_dir=full_dir).run()
        cold_memos()

        # Simulate a kill after the first finished cell, then resume.
        class Interrupted(Exception):
            pass

        def killer(cell):
            raise Interrupted

        with pytest.raises(Interrupted):
            Runner(config, cache_dir=part_dir).run(on_cell=killer)
        cold_memos()
        resumed = Runner(config, cache_dir=part_dir).run()

        assert sweep_payload(resumed) == sweep_payload(uninterrupted)
        # The stores themselves hold identical record sets: the resumed
        # run's store is byte-identical to the uninterrupted run's.
        assert store_lines(part_dir) == store_lines(full_dir)

    def test_infeasible_solver_result_not_persisted(self, tmp_path):
        # Regression: a rejected (metrics=None) result must not be put in
        # the store — else the poisoned record is re-served on resume and
        # the sweep keeps crashing even after the solver is fixed.
        from repro.api import SolveReport, register_solver, unregister_solver
        from repro.core.metrics import ScheduleMetrics

        config = tiny_config(generation_rounds=(3,), load_ratios=(1.0,),
                             trials=1, lp_round_limit=0)

        class Broken:
            name, kind = "test-cache-solver", "offline"

            def solve(self, instance, **params):
                return SolveReport(self.name, self.kind, metrics=None)

        class Fixed:
            name, kind = "test-cache-solver", "offline"

            def solve(self, instance, **params):
                from repro.core.greedy import greedy_earliest_fit

                schedule = greedy_earliest_fit(instance)
                return SolveReport(
                    self.name, self.kind,
                    metrics=ScheduleMetrics.of(schedule), schedule=schedule,
                )

        register_solver("test-cache-solver", Broken)
        try:
            with pytest.raises(ValueError, match="infeasible"):
                Runner(config, cache_dir=tmp_path).run(
                    solvers=["test-cache-solver"]
                )
        finally:
            unregister_solver("test-cache-solver")
        register_solver("test-cache-solver", Fixed)
        try:
            cold_memos()
            sweep = Runner(config, cache_dir=tmp_path).run(
                solvers=["test-cache-solver"]
            )
            cell = next(iter(sweep.cells.values()))
            assert cell.avg_response["test-cache-solver"] >= 1.0
        finally:
            unregister_solver("test-cache-solver")

    def test_multiprocessing_writes_and_serial_resumes(self, tmp_path):
        config = tiny_config()
        parallel = Runner(config, jobs=2, cache_dir=tmp_path).run()
        cold_memos()
        resumed = Runner(config, cache_dir=tmp_path).run()
        assert parallel.cells == resumed.cells
        assert resumed.timer.counts.get("lp_max_bound", 0) == 0

    # The memo is cleared explicitly inside the body (once per example);
    # the function-scoped autouse fixture only covers the non-given tests.
    @given(seed=st.integers(0, 2**20))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_cache_warm_resume_is_byte_identical(
        self, seed, tmp_path_factory
    ):
        """A killed-and-resumed sweep reproduces the serial run exactly."""
        cold_memos()
        config = ExperimentConfig(
            num_ports=4,
            load_ratios=(0.75,),
            generation_rounds=(2, 3),
            trials=2,
            lp_round_limit=3,
            seed=seed,
        )
        cache = tmp_path_factory.mktemp("cache")
        serial = Runner(config).run()
        cold_memos()

        class Interrupted(Exception):
            pass

        def killer(cell):
            raise Interrupted

        with pytest.raises(Interrupted):
            Runner(config, cache_dir=cache).run(on_cell=killer)
        cold_memos()
        resumed = Runner(config, cache_dir=cache).run()
        assert sweep_payload(resumed) == sweep_payload(serial)
