"""Tests for the unified solver API (repro.api)."""

import json

import pytest

from repro.api import (
    Runner,
    SOLVER_KINDS,
    Solver,
    SolveReport,
    get_solver,
    list_solvers,
    make_executor,
    register_solver,
    unregister_solver,
)
from repro.api.executors import MultiprocessingExecutor, SerialExecutor
from repro.coflow.model import random_shuffle_coflows
from repro.core.metrics import ScheduleMetrics
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import format_bound, run_sweep
from repro.workloads.synthetic import poisson_uniform_workload


@pytest.fixture(scope="module")
def small_instance():
    return poisson_uniform_workload(5, 4.0, 3, seed=11)


@pytest.fixture(scope="module")
def small_coflows():
    return random_shuffle_coflows(6, 3, width_range=(2, 3), seed=4)


class TestRegistry:
    def test_builtins_registered(self):
        names = list_solvers()
        for expected in (
            "FS-ART", "FS-MRT", "TimeConstrained", "Greedy", "AMRT",
            "MaxCard", "MinRTime", "MaxWeight", "FIFO", "Random",
            "SEBF", "CoflowFIFO",
        ):
            assert expected in names

    def test_list_by_kind_partitions(self):
        by_kind = [set(list_solvers(kind)) for kind in SOLVER_KINDS]
        union = set().union(*by_kind)
        assert union == set(list_solvers())
        for i, a in enumerate(by_kind):
            for b in by_kind[i + 1:]:
                assert not (a & b)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown kind"):
            list_solvers("quantum")

    def test_get_solver_implements_protocol(self):
        solver = get_solver("MaxWeight")
        assert isinstance(solver, Solver)
        assert solver.name == "MaxWeight"
        assert solver.kind == "online"

    def test_unknown_solver_raises_with_available(self):
        with pytest.raises(ValueError, match="FS-ART"):
            get_solver("NoSuchSolver")

    def test_register_get_unregister_roundtrip(self):
        @register_solver("test-dummy")
        class DummySolver:
            name = "test-dummy"
            kind = "offline"

            def solve(self, instance, **params):
                return SolveReport(self.name, self.kind, metrics=None)

        try:
            assert "test-dummy" in list_solvers()
            assert get_solver("test-dummy").solve(None).solver == "test-dummy"
        finally:
            unregister_solver("test-dummy")
        assert "test-dummy" not in list_solvers()

    def test_duplicate_name_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver("FS-ART", lambda: None)

    def test_builtin_collision_before_first_access(self):
        # Registering a builtin name must fail at the registration site
        # even when the plugin registers before any registry read, and
        # must leave the registry fully usable afterwards.
        with pytest.raises(ValueError, match="already registered"):
            register_solver("MaxWeight", lambda: None)
        assert "FS-ART" in list_solvers()
        assert get_solver("MaxWeight").kind == "online"

    def test_fresh_instance_per_get(self):
        assert get_solver("Random") is not get_solver("Random")


class TestSolveReport:
    def test_json_roundtrip_online(self, small_instance):
        report = get_solver("MaxWeight").solve(small_instance)
        data = json.loads(json.dumps(report.to_dict()))
        clone = SolveReport.from_dict(data)
        assert clone.to_dict() == report.to_dict()
        assert clone.metrics == report.metrics
        assert (clone.schedule.assignment == report.schedule.assignment).all()
        assert clone.schedule.instance.num_flows == small_instance.num_flows

    def test_json_roundtrip_offline(self, small_instance):
        report = get_solver("FS-MRT").solve(small_instance)
        data = json.loads(json.dumps(report.to_dict()))
        clone = SolveReport.from_dict(data)
        assert clone.to_dict() == report.to_dict()
        assert clone.lower_bounds["rho_star"] == report.extras["rho"]

    def test_infeasible_report_roundtrip(self):
        report = SolveReport("x", "offline", metrics=None,
                             extras={"feasible": False})
        clone = SolveReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone.metrics is None and clone.schedule is None
        assert not clone.feasible

    def test_metrics_to_from_dict(self, small_instance):
        metrics = get_solver("Greedy").solve(small_instance).metrics
        assert ScheduleMetrics.from_dict(metrics.to_dict()) == metrics
        assert json.dumps(metrics.to_dict())  # JSON-serializable


class TestAdapters:
    #: Extra params needed by solvers that cannot run bare.
    PARAMS = {"TimeConstrained": {"rho": 12}}

    @pytest.mark.parametrize(
        "name",
        ["FS-ART", "FS-MRT", "TimeConstrained", "Greedy", "AMRT",
         "MaxCard", "MinRTime", "MaxWeight", "FIFO", "Random"],
    )
    def test_every_flow_solver_reachable(self, name, small_instance):
        report = get_solver(name).solve(
            small_instance, **self.PARAMS.get(name, {})
        )
        assert isinstance(report, SolveReport)
        assert report.solver == name
        assert report.kind in SOLVER_KINDS
        assert report.metrics.num_flows == small_instance.num_flows
        assert report.metrics.max_response >= 1
        assert "total" in report.timings

    @pytest.mark.parametrize("name", ["SEBF", "CoflowFIFO"])
    def test_coflow_solvers_reachable(self, name, small_coflows):
        report = get_solver(name).solve(small_coflows)
        assert report.kind == "coflow"
        assert report.metrics.num_flows == small_coflows.instance.num_flows
        cm = report.extras["coflow_metrics"]
        assert cm["num_coflows"] == small_coflows.num_coflows
        assert cm["average_response"] >= 1.0

    def test_coflow_solver_rejects_plain_instance(self, small_instance):
        with pytest.raises(TypeError, match="CoflowInstance"):
            get_solver("SEBF").solve(small_instance)

    def test_matches_legacy_entry_points(self, small_instance):
        from repro.mrt.algorithm import solve_mrt
        from repro.online.policies import make_policy
        from repro.online.simulator import simulate

        report = get_solver("FS-MRT").solve(small_instance)
        legacy = solve_mrt(small_instance)
        assert report.extras["rho"] == legacy.rho
        assert report.extras["max_violation"] == legacy.max_violation

        report = get_solver("MinRTime").solve(small_instance)
        legacy = simulate(small_instance, make_policy("MinRTime"))
        assert report.metrics == legacy.metrics

    def test_time_constrained_defaults_to_feasible_bound(self, small_instance):
        # With neither rho nor deadlines, the adapter falls back to the
        # always-feasible response bound horizon_bound() (and records it).
        report = get_solver("TimeConstrained").solve(small_instance)
        assert report.feasible
        assert report.params["rho"] == small_instance.horizon_bound()
        with pytest.raises(ValueError, match="at most one"):
            get_solver("TimeConstrained").solve(
                small_instance, rho=5,
                deadlines=[20] * small_instance.num_flows,
            )

    def test_time_constrained_instance_rejects_params(self, small_instance):
        from repro.mrt.time_constrained import from_response_bound

        tci = from_response_bound(small_instance, 20)
        with pytest.raises(ValueError, match="already carries"):
            get_solver("TimeConstrained").solve(tci, rho=5)


class TestExecutors:
    def test_make_executor_specs(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("multiprocessing"),
                          MultiprocessingExecutor)
        # jobs > 1 upgrades the default to a pool.
        assert isinstance(make_executor("serial", jobs=2),
                          MultiprocessingExecutor)
        custom = SerialExecutor()
        assert make_executor(custom) is custom
        for name in ("gpu", "mp", "process"):
            with pytest.raises(ValueError, match="unknown executor"):
                make_executor(name)

    def test_order_preserved(self):
        items = list(range(17))
        assert SerialExecutor().map(_square, items) == [i * i for i in items]
        pool = MultiprocessingExecutor(jobs=3, chunk_size=2)
        assert pool.map(_square, items) == [i * i for i in items]

    def test_bad_jobs_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="jobs"):
                MultiprocessingExecutor(jobs=bad)
            with pytest.raises(ValueError, match="jobs"):
                make_executor("serial", jobs=bad)
        # A non-integer count is rejected, not truncated, and a bool is
        # not a count.
        for bad in (2.5, 1.9, True, "2"):
            with pytest.raises(TypeError, match="jobs must be an integer"):
                MultiprocessingExecutor(jobs=bad)
            for spec in ("serial", "multiprocessing"):
                with pytest.raises(
                    TypeError, match="jobs must be an integer"
                ):
                    make_executor(spec, jobs=bad)
        # None means "auto" (all CPUs).
        assert MultiprocessingExecutor().jobs >= 1

    def test_executor_instance_rejects_jobs(self):
        with pytest.raises(ValueError, match="configure"):
            make_executor(SerialExecutor(), jobs=4)

    def test_worker_keyboard_interrupt_surfaces(self, tmp_path):
        """Regression: a KeyboardInterrupt inside a pool worker used to
        be swallowed (``multiprocessing.Pool`` only ships ``Exception``
        results back), hanging the parent ``map`` forever.  It must
        surface as ``SweepInterrupted`` — still a ``KeyboardInterrupt``
        for outer Ctrl-C handling — with completed items' records
        flushed to their shards."""
        from repro.api import SweepInterrupted

        pool = MultiprocessingExecutor(jobs=2, chunk_size=1)
        items = [(str(tmp_path), i) for i in range(8)]
        with pytest.raises(SweepInterrupted) as excinfo:
            pool.map(_put_or_interrupt, items)
        assert isinstance(excinfo.value, KeyboardInterrupt)
        assert "rerun" in str(excinfo.value)
        # Every non-interrupting item's record survived the interrupt.
        from repro.api.store import live_records

        live = live_records(tmp_path)
        digests = {entry["instance"] for entry in live.values()}
        assert digests == {f"digest-{i}" for i in range(8) if i != 5}

    def test_worker_keyboard_interrupt_surfaces_from_imap(self, tmp_path):
        from repro.api import SweepInterrupted

        pool = MultiprocessingExecutor(jobs=2, chunk_size=1)
        items = [(str(tmp_path), i) for i in range(8)]
        with pytest.raises(SweepInterrupted):
            list(pool.imap(_put_or_interrupt, items))

    def test_infeasible_solver_in_sweep_raises_clearly(self, runner_config):
        from repro.api import SolveReport, register_solver, unregister_solver
        from repro.api.runner import Runner

        class AlwaysInfeasible:
            name, kind = "test-infeasible", "offline"

            def solve(self, instance, **params):
                return SolveReport(self.name, self.kind, metrics=None)

        register_solver("test-infeasible", AlwaysInfeasible)
        try:
            with pytest.raises(ValueError, match="test-infeasible"):
                Runner(runner_config).run(solvers=["test-infeasible"])
        finally:
            unregister_solver("test-infeasible")


def _square(x):
    return x * x


def _put_or_interrupt(item):
    """Pool-worker body for the interrupt regression tests: persists a
    record per item, except item 5, which simulates a Ctrl-C landing in
    the worker mid-sweep."""
    cache_dir, idx = item
    if idx == 5:
        raise KeyboardInterrupt
    from repro.api.store import open_store

    store = open_store(cache_dir)
    store.put("T", f"digest-{idx}", {}, {"solver": "T", "idx": idx})
    return idx


@pytest.fixture(scope="module")
def runner_config():
    return ExperimentConfig(
        num_ports=6,
        load_ratios=(0.5, 2.0),
        generation_rounds=(3, 5),
        trials=2,
        lp_round_limit=3,
        seed=99,
    )


class TestRunner:
    def test_serial_and_multiprocessing_identical(self, runner_config):
        serial = Runner(runner_config).run()
        parallel = Runner(
            runner_config, executor="multiprocessing", jobs=2
        ).run()
        assert serial.cells.keys() == parallel.cells.keys()
        for key in serial.cells:
            assert serial.cells[key] == parallel.cells[key]

    def test_run_sweep_jobs_flag_identical(self, runner_config):
        serial = run_sweep(runner_config, compute_lp_bounds=False)
        parallel = run_sweep(runner_config, compute_lp_bounds=False, jobs=2)
        assert serial.cells == parallel.cells

    def test_streams_cells_in_grid_order(self, runner_config):
        seen = []
        runner = Runner(runner_config, compute_lp_bounds=False)
        runner.run(on_cell=seen.append)
        assert [(c.arrival_mean, c.rounds) for c in seen] == runner.cell_grid()

    def test_offline_solvers_in_sweep(self, runner_config):
        sweep = Runner(runner_config, compute_lp_bounds=False).run(
            solvers=["Greedy", "FIFO"], workloads=[(3.0, 3)]
        )
        cell = sweep.cell(3.0, 3)
        assert set(cell.avg_response) == {"Greedy", "FIFO"}
        assert cell.avg_response["Greedy"] >= 1.0

    def test_unknown_solver_fails_fast(self, runner_config):
        with pytest.raises(ValueError, match="unknown solver"):
            Runner(runner_config).run(solvers=["NoSuch"])

    def test_timer_merged_from_workers(self, runner_config):
        sweep = Runner(runner_config, jobs=2).run(workloads=[(3.0, 3)])
        assert "generate" in sweep.timer.totals
        assert sweep.timer.counts["generate"] == runner_config.trials


class TestVerboseFormatting:
    def test_zero_bound_is_printed_not_dashed(self):
        assert format_bound(0.0, 2) == "0.00"
        assert format_bound(None, 2) == "-"
        assert format_bound(3.14159, 1) == "3.1"

    def test_cell_line_includes_zero_bounds(self):
        from repro.experiments.harness import CellResult, format_cell_line

        cell = CellResult(
            arrival_mean=3.0, rounds=4, trials=1, num_flows_mean=5.0,
            avg_response={"FIFO": 1.5}, max_response={"FIFO": 2.0},
            avg_response_std={"FIFO": 0.0}, max_response_std={"FIFO": 0.0},
            lp_avg_bound=0.0, lp_max_bound=None,
        )
        line = format_cell_line(cell, ["FIFO"])
        assert "LPavg=0.00" in line
        assert "LPmax=-" in line
