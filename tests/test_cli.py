"""Tests for the ``python -m repro`` command-line interface."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.json"
    assert (
        main(
            [
                "generate",
                str(path),
                "--ports",
                "5",
                "--mean",
                "4",
                "--rounds",
                "3",
                "--seed",
                "7",
            ]
        )
        == 0
    )
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_flags(self):
        args = build_parser().parse_args(["fig6", "--quick", "--no-lp"])
        assert args.quick and args.no_lp and not args.paper_scale

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_generate_writes_trace(self, trace):
        data = json.loads(trace.read_text())
        assert data["switch"]["num_inputs"] == 5
        assert len(data["flows"]) > 0

    def test_simulate(self, trace, capsys):
        assert main(["solve", str(trace), "--solver", "MaxCard"]) == 0
        out = capsys.readouterr().out
        assert "solver MaxCard (online)" in out
        assert "avg_rt" in out

    def test_solve_mrt_with_output(self, trace, tmp_path, capsys):
        out_path = tmp_path / "sched.json"
        assert (
            main(["solve", str(trace), "--solver", "FS-MRT",
                  "--out", str(out_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "lower bound rho_star" in out and "max_violation" in out
        payload = json.loads(out_path.read_text())
        assert "assignment" in payload
        assert payload["metrics"]["num_flows"] == len(payload["assignment"])

    def test_solve_art(self, trace, tmp_path, capsys):
        report = tmp_path / "art.json"
        assert (
            main(["solve", str(trace), "--solver", "FS-ART", "-p", "c=2",
                  "--report-out", str(report)])
            == 0
        )
        out = capsys.readouterr().out
        assert "lower bound lp_total_response" in out
        assert "capacity_factor" in out
        assert json.loads(report.read_text())["params"]["c"] == 2

    def test_probe_open_problem(self, capsys):
        assert (
            main(
                [
                    "probe-open-problem",
                    "--ports",
                    "3",
                    "--rounds",
                    "4",
                    "--trials",
                    "2",
                ]
            )
            == 0
        )
        assert "worst observed constant" in capsys.readouterr().out

    def test_fig6_quick_no_lp(self, capsys):
        assert main(["fig6", "--quick", "--no-lp"]) == 0
        assert "Figure 6 panel" in capsys.readouterr().out

    def test_list_solvers(self, capsys):
        assert main(["list-solvers"]) == 0
        out = capsys.readouterr().out
        for name in ("FS-ART", "FS-MRT", "MaxWeight", "SEBF", "Greedy"):
            assert name in out
        for kind in ("offline:", "online:", "coflow:"):
            assert kind in out

    def test_solve_generic(self, trace, tmp_path, capsys):
        out_path = tmp_path / "greedy.json"
        assert (
            main(["solve", str(trace), "--solver", "Greedy",
                  "--out", str(out_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "solver Greedy (offline)" in out
        payload = json.loads(out_path.read_text())
        assert payload["metrics"]["num_flows"] == len(payload["assignment"])

    def test_solve_with_params(self, trace, capsys):
        assert (
            main(["solve", str(trace), "--solver", "TimeConstrained",
                  "-p", "rho=8"])
            == 0
        )
        out = capsys.readouterr().out
        assert "solver TimeConstrained (offline)" in out
        assert "feasible = True" in out

    def test_solve_unknown_solver(self, trace):
        with pytest.raises(SystemExit, match="unknown solver"):
            main(["solve", str(trace), "--solver", "NoSuch"])

    def test_solve_bad_param_syntax(self, trace):
        with pytest.raises(SystemExit):
            main(["solve", str(trace), "-p", "noequalsign"])

    def test_solve_kind_mismatch_exits_cleanly(self, trace):
        with pytest.raises(SystemExit, match="CoflowInstance"):
            main(["solve", str(trace), "--solver", "SEBF"])

    def test_solve_bad_param_name_exits_cleanly(self, trace):
        with pytest.raises(SystemExit, match="bogus"):
            main(["solve", str(trace), "--solver", "Greedy", "-p", "bogus=1"])
        # The LP solve picks its own method: no solver takes a backend.
        for solver in ("FS-ART", "FS-MRT", "TimeConstrained", "AMRT"):
            with pytest.raises(
                SystemExit, match="unexpected keyword argument 'backend'"
            ):
                main(["solve", str(trace), "--solver", solver,
                      "-p", "backend=auto"])

    @pytest.mark.parametrize(
        "solver, param, message",
        [
            ("FS-ART", "horizon=2.5", "horizon must be an integer, got float"),
            ("FS-ART", "horizon=1e30", "horizon must be an integer, got float"),
            ("FS-ART", "horizon=true", "horizon must be an integer, got bool"),
            ("FS-ART", "window=2.5", "window must be an integer, got float"),
            ("FS-MRT", "rho_upper=2.5",
             "rho_upper must be an integer, got float"),
            ("FS-MRT", "rho_upper=true",
             "rho_upper must be an integer, got bool"),
            ("TimeConstrained", "rho=2.5", "rho must be an integer, got float"),
        ],
    )
    def test_solve_non_integer_param_exits_cleanly(
        self, solver, param, message
    ):
        # Integer parameters are checked, never truncated by int().
        with pytest.raises(SystemExit, match=f"error: {message}"):
            main(["solve", "--scenario",
                  "paper-default:ports=4,mean=4,horizon=3", "--seed", "1",
                  "--solver", solver, "-p", param])

    def test_solve_mrt_cap_below_rho_star_exits_cleanly(self, tmp_path):
        path = tmp_path / "t.json"
        main(["generate", str(path), "--ports", "6", "--mean", "5",
              "--rounds", "4", "--seed", "3"])
        with pytest.raises(SystemExit, match="error: rho_upper 1 .* bound 4"):
            main(["solve", str(path), "--solver", "FS-MRT",
                  "-p", "rho_upper=1"])

    def test_solve_art_horizon_too_short_exits_cleanly(self):
        with pytest.raises(
            SystemExit,
            match=r"error: horizon 3 is too short: LP \(5\)-\(8\) is infeasible",
        ):
            main(["solve", "--scenario",
                  "paper-default:ports=4,mean=8,horizon=3", "--seed", "1",
                  "--solver", "FS-ART", "-p", "horizon=3"])

    def test_missing_trace_exits_cleanly(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        for argv in (["solve", missing],
                     ["solve", missing, "--solver", "MaxCard"],
                     ["solve", missing, "--solver", "FS-MRT"]):
            with pytest.raises(SystemExit, match="No such file"):
                main(argv)

    def test_simulate_unknown_policy_exits_cleanly(self, trace):
        with pytest.raises(SystemExit, match="unknown solver"):
            main(["solve", str(trace), "--solver", "NoSuchPolicy"])

    def test_simulate_non_online_solver_exits_cleanly(self, trace):
        with pytest.raises(SystemExit, match="CoflowInstance"):
            main(["solve", str(trace), "--solver", "CoflowFIFO"])

    def test_solve_param_named_kind_reaches_solver(self, trace):
        # -p names must never bind _run_on_instance's own arguments.
        with pytest.raises(SystemExit, match="kind"):
            main(["solve", str(trace), "--solver", "Greedy",
                  "-p", "kind=coflow"])

    def test_solve_infeasible_exits_1_without_out(self, trace, capsys):
        assert (
            main(["solve", str(trace), "--solver", "TimeConstrained",
                  "-p", "rho=1"])
            == 1
        )
        assert "infeasible" in capsys.readouterr().out

    def test_fig_jobs_flag_parses(self):
        args = build_parser().parse_args(["fig7", "--quick", "--jobs", "2"])
        assert args.jobs == 2

    def test_fig_batch_flags_parse(self):
        args = build_parser().parse_args(
            ["fig6", "--quick", "--batch-trials", "4"]
        )
        assert args.batch_trials == 4
        args = build_parser().parse_args(["fig7", "--quick"])
        assert args.batch_trials is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--quick", "--no-batch"])

    def test_fig_batch_trials_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fig6", "--quick", "--batch-trials", "0"]
            )

    def test_fig6_no_batch_renders_identically(self, capsys):
        assert main(["fig6", "--quick", "--no-lp"]) == 0
        batched = capsys.readouterr().out
        for size in ("1", "2"):  # 1: unbatched, one trial at a time
            assert main(
                ["fig6", "--quick", "--no-lp", "--batch-trials", size]
            ) == 0
            assert capsys.readouterr().out == batched

    def test_fig_cache_flags_parse(self):
        args = build_parser().parse_args(
            ["fig7", "--quick", "--cache-dir", "/tmp/c", "--resume"]
        )
        assert args.cache_dir == "/tmp/c" and args.resume and not args.no_cache

    def test_fig_cache_flags_require_dir(self):
        for flag in ("--resume", "--no-cache"):
            with pytest.raises(SystemExit, match="require --cache-dir"):
                main(["fig7", "--quick", flag])

    def test_fig_resume_no_cache_exclusive(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["fig7", "--quick", "--cache-dir", "/tmp/c",
                  "--resume", "--no-cache"])

    def test_fig7_cache_dir_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["fig7", "--quick", "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert main(["fig7", "--quick", "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert first == second  # cache-warm rerun renders identically
        assert list((tmp_path / "cache").glob("results-*.jsonl"))

    def test_solve_scenario(self, capsys):
        assert (
            main(["solve", "--scenario", "hotspot:ports=8,mean=4,horizon=5",
                  "--solver", "MaxCard"])
            == 0
        )
        out = capsys.readouterr().out
        assert "solver MaxCard (online)" in out

    def test_solve_scenario_seed_changes_instance(self, capsys):
        outs = []
        for seed in ("1", "2"):
            assert (
                main(["solve", "--scenario",
                      "paper-default:ports=8,mean=4,horizon=5",
                      "--seed", seed, "--solver", "Greedy"])
                == 0
            )
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]

    def test_solve_rejects_trace_and_scenario(self, trace):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["solve", str(trace), "--scenario", "paper-default"])

    def test_solve_rejects_neither(self):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["solve"])

    def test_solve_unknown_scenario_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["solve", "--scenario", "frobnicate"])

    def test_solve_bad_scenario_param_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown parameter"):
            main(["solve", "--scenario", "paper-default:typo=1"])

    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-default", "hotspot", "incast", "trace-replay",
                     "onoff-bursty", "diurnal", "heavy-tailed",
                     "permutation"):
            assert name in out
        assert "defaults:" in out

    def test_scenarios_list_json(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload]
        assert "paper-default" in names and names == sorted(names)
        by_name = {e["name"]: e for e in payload}
        assert by_name["hotspot"]["params"]["zipf_exponent"] == 1.2
        assert by_name["trace-replay"]["horizon"] is None

    def test_list_solvers_json(self, capsys):
        assert main(["list-solvers", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"offline", "online", "coflow"}
        online = {entry["name"] for entry in payload["online"]}
        assert {"MaxCard", "MaxWeight", "AMRT"} <= online
        assert all("summary" in e for k in payload for e in payload[k])

    def test_generate_rejects_poisson_flags_with_scenario(self, tmp_path):
        with pytest.raises(SystemExit, match="ports=32,horizon=20"):
            main(["generate", str(tmp_path / "t.json"),
                  "--scenario", "hotspot", "--ports", "48"])

    def test_generate_scenario_trace_round_trips(self, tmp_path, capsys):
        out = tmp_path / "scenario.json"
        assert (
            main(["generate", str(out), "--scenario",
                  "permutation:ports=6,horizon=4", "--seed", "3"])
            == 0
        )
        assert "wrote" in capsys.readouterr().out
        assert main(["solve", str(out), "--solver", "Greedy"]) == 0

    def test_module_invocation(self, trace):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "solve", str(trace)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0
        assert "MaxWeight" in result.stdout


class TestObsCommands:
    def test_fig6_trace_writes_span_log_and_table(self, tmp_path, capsys):
        from repro.obs import read_spans, validate_span

        log = tmp_path / "sweep.jsonl"
        assert main(["fig6", "--quick", "--no-lp", "--trace", str(log)]) == 0
        out = capsys.readouterr().out
        assert "span log written" in out
        assert "%wall" in out  # per-phase attribution table
        spans = read_spans(str(log))
        assert spans
        for s in spans:
            assert validate_span(s) == []

    def test_trace_export_and_report(self, tmp_path, capsys):
        from repro.obs import JsonlSink, Tracer

        log = tmp_path / "spans.jsonl"
        tracer = Tracer(sink=JsonlSink(str(log)))
        with tracer.span("alpha"):
            with tracer.span("beta"):
                pass
        tracer.finish()

        chrome = tmp_path / "spans.trace.json"
        assert main(["trace", "export", str(log), str(chrome)]) == 0
        assert "trace events" in capsys.readouterr().out
        payload = json.loads(chrome.read_text())
        names = {e.get("name") for e in payload["traceEvents"]}
        assert {"alpha", "beta"} <= names

        assert main(["trace", "report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "%wall" in out

    def test_fig6_profile_without_trace_still_samples(self, capsys):
        # --profile alone must see open spans: the CLI supplies an
        # in-memory tracer so the sampler has something to attribute to.
        assert main(["fig6", "--quick", "--no-lp", "--profile"]) == 0
        assert "samples total" in capsys.readouterr().out


class TestVerifyCommand:
    def test_verify_trace_cross_checks(self, trace, capsys):
        assert main(["verify", str(trace), "--solvers", "Greedy,FS-MRT"]) == 0
        assert "certified" in capsys.readouterr().out

    def test_verify_scenario_with_metamorphic(self, capsys):
        assert (
            main(["verify", "--scenario", "hotspot:ports=5,mean=2,horizon=4",
                  "--solvers", "Greedy", "--metamorphic"])
            == 0
        )
        assert "certified" in capsys.readouterr().out

    def test_verify_report_round_trip(self, trace, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert (
            main(["solve", str(trace), "--solver", "FS-MRT",
                  "--report-out", str(report_path)])
            == 0
        )
        assert "full report written" in capsys.readouterr().out
        assert main(["verify", "--report", str(report_path)]) == 0

    def test_verify_corrupted_report_exits_1(self, trace, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["solve", str(trace), "--solver", "Greedy",
              "--report-out", str(report_path)])
        capsys.readouterr()
        data = json.loads(report_path.read_text())
        data["lower_bounds"] = {"lp_total_response": 1e9}
        report_path.write_text(json.dumps(data))
        assert main(["verify", "--report", str(report_path)]) == 1
        assert "bound-above-objective" in capsys.readouterr().out

    def test_verify_type_corrupted_report_exits_1(self, trace, tmp_path,
                                                  capsys):
        # A hand-edited report with a non-numeric bound must yield a
        # structured malformed-bound violation, not a traceback.
        report_path = tmp_path / "report.json"
        main(["solve", str(trace), "--solver", "Greedy",
              "--report-out", str(report_path)])
        capsys.readouterr()
        data = json.loads(report_path.read_text())
        data["lower_bounds"] = {"rho_star": "oops"}
        report_path.write_text(json.dumps(data))
        assert main(["verify", "--report", str(report_path)]) == 1
        assert "malformed-bound" in capsys.readouterr().out

    def test_verify_infeasible_report_certifies(self, trace, tmp_path,
                                                capsys):
        # A legitimate infeasibility certificate (TimeConstrained with a
        # hopeless rho) is a well-formed report, not a verification
        # failure: solve exits 1, verify exits 0.
        report_path = tmp_path / "infeasible.json"
        assert (
            main(["solve", str(trace), "--solver", "TimeConstrained",
                  "-p", "rho=1", "--report-out", str(report_path)])
            == 1
        )
        capsys.readouterr()
        assert main(["verify", "--report", str(report_path)]) == 0
        assert "certified" in capsys.readouterr().out

    def test_verify_cache_dir_skips_superseded_records(self, tmp_path,
                                                       capsys):
        # Last-writer-wins: a corrupt record superseded by a refreshed
        # shard can never be served again, so the verifier must certify
        # the store clean (and count only live records).
        import os

        record = {
            "solver": "Greedy", "kind": "offline",
            "metrics": {
                "num_flows": 2, "total_response": 4,
                "average_response": 2.0, "max_response": 3,
                "makespan": 3, "max_augmentation": 0,
            },
            "schedule": None, "lower_bounds": {}, "timings": {},
            "params": {}, "extras": {},
        }
        broken = json.loads(json.dumps(record))
        broken["metrics"]["average_response"] = 9.0
        cache = tmp_path / "cache"
        cache.mkdir()
        old = cache / "results-1-old.jsonl"
        new = cache / "results-2-new.jsonl"
        old.write_text(json.dumps({"key": "k", "report": broken}) + "\n")
        new.write_text(json.dumps({"key": "k", "report": record}) + "\n")
        os.utime(old, ns=(1, 1))  # force the ordering the store uses
        assert main(["verify", "--cache-dir", str(cache)]) == 0
        assert "certified" in capsys.readouterr().out

    def test_verify_json_output(self, trace, capsys):
        assert main(["verify", str(trace), "--solvers", "Greedy",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["checks"]

    def test_verify_requires_exactly_one_source(self, trace, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["verify"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["verify", str(trace), "--cache-dir", str(tmp_path)])

    def test_verify_rejects_stray_flags_in_replay_modes(self, trace,
                                                        tmp_path):
        # --metamorphic/--solvers only apply when an instance is built;
        # silently ignoring them would claim certification for checks
        # that never ran.
        report_path = tmp_path / "r.json"
        main(["solve", str(trace), "--solver", "Greedy",
              "--report-out", str(report_path)])
        with pytest.raises(SystemExit, match="--metamorphic applies"):
            main(["verify", "--report", str(report_path), "--metamorphic"])
        with pytest.raises(SystemExit, match="--solvers applies"):
            main(["verify", "--cache-dir", str(tmp_path),
                  "--solvers", "Greedy"])

    def test_verify_unknown_solver_exits_cleanly(self, trace):
        with pytest.raises(SystemExit, match="unknown solver"):
            main(["verify", str(trace), "--solvers", "NoSuchSolver"])

    def test_verify_empty_cache_dir_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no result shards"):
            main(["verify", "--cache-dir", str(tmp_path)])

    def test_verify_all_torn_shards_exits_cleanly(self, tmp_path):
        # Shards present but zero readable records: a clear error beats
        # "0 violation(s) (0 check(s))".
        (tmp_path / "results-1-x.jsonl").write_text('{"torn...')
        with pytest.raises(SystemExit, match="no readable records"):
            main(["verify", "--cache-dir", str(tmp_path)])

    def test_verify_unreadable_report_exits_cleanly(self, tmp_path):
        bad = tmp_path / "nope.json"
        with pytest.raises(SystemExit, match="cannot load report"):
            main(["verify", "--report", str(bad)])

    def test_fig_verify_flag_parses(self):
        args = build_parser().parse_args(["fig6", "--quick", "--verify"])
        assert args.verify


class TestServiceCommands:
    def test_serve_requires_exactly_one_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve", "--cache-dir", str(tmp_path),
                  "--join", str(tmp_path)])

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("serve", "--timeout"),
            ("serve", "--drain-timeout"),
            ("submit", "--timeout"),
            ("submit", "--http-timeout"),
        ],
    )
    def test_timeouts_must_be_positive_and_finite(
        self, command, flag, capsys
    ):
        # Parsing alone must fail: no server starts, no request is sent.
        for bad in ("0", "-1", "nan", "inf"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, flag, bad])
            assert exc.value.code == 2
            assert "positive, finite number of seconds" in (
                capsys.readouterr().err
            )
        args = build_parser().parse_args([command, flag, "0.5"])
        assert getattr(args, flag[2:].replace("-", "_")) == 0.5

    def test_submit_requires_exactly_one_source(self, trace):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["submit"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["submit", str(trace), "--scenario", "hotspot"])

    def test_serve_join_drains_queue_until_sigterm(self, tmp_path, capsys):
        """Worker-only mode: enqueue one job, run ``serve --join`` in the
        main thread, SIGTERM it from a watcher once the job completes."""
        import os
        import signal
        import threading
        import time

        from repro.api.store import canonical_key, live_records
        from repro.service import Job, JobQueue
        from repro.workloads.synthetic import poisson_uniform_workload

        cache = tmp_path / "cache"
        cache.mkdir()
        instance = poisson_uniform_workload(4, 3.0, 3, seed=11)
        key = canonical_key("Greedy", instance.digest(), {})
        queue = JobQueue(cache)
        assert queue.enqueue(
            Job(key=key, solver="Greedy", instance=instance.to_dict())
        )

        def stop_when_done():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not queue.done_keys():
                time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGTERM)

        watcher = threading.Thread(target=stop_when_done)
        old = {
            sig: signal.getsignal(sig)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        watcher.start()
        try:
            rc = main(["serve", "--join", str(cache), "--workers", "1"])
        finally:
            watcher.join()
            for sig, handler in old.items():
                signal.signal(sig, handler)
        assert rc == 0
        out = capsys.readouterr().out
        assert "joined work queue" in out
        assert "workers drained; stopped cleanly" in out
        records = live_records(str(cache))
        assert list(records) == [key]

    def test_serve_full_service_drains_on_sigterm(self, tmp_path, capsys):
        """Full mode: drive a solve through a live ``repro serve`` from a
        helper thread, then SIGTERM the (main-thread) event loop."""
        import os
        import signal
        import socket
        import threading
        import time

        from repro.service import ServiceClient

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        outcome = {}

        def drive():
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    client.healthz()
                    break
                except Exception:
                    time.sleep(0.05)
            try:
                outcome["response"] = client.solve(
                    "Greedy",
                    scenario="hotspot:ports=8,mean=4,horizon=6",
                    seed=5,
                )
            finally:
                os.kill(os.getpid(), signal.SIGTERM)

        driver = threading.Thread(target=drive)
        driver.start()
        try:
            rc = main([
                "serve", "--cache-dir", str(tmp_path / "cache"),
                "--port", str(port), "--workers", "1",
            ])
        finally:
            driver.join()
        assert rc == 0
        assert outcome["response"].source == "solved"
        out = capsys.readouterr().out
        assert "solve service on" in out
        assert "draining..." in out
        assert "stopped cleanly" in out

    def test_submit_unreachable_service_exits_cleanly(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["submit", "--scenario", "hotspot:ports=8",
                  "--address", "http://127.0.0.1:1", "--http-timeout", "2"])

    def test_submit_round_trip_against_live_service(self, tmp_path, capsys):
        from repro.service import ServiceThread

        with ServiceThread(
            str(tmp_path / "cache"), workers=1, worker_mode="thread"
        ) as svc:
            rc = main([
                "submit", "--address", svc.address,
                "--scenario", "hotspot:ports=8,mean=4,horizon=6",
                "--solver", "Greedy", "--seed", "3", "--verify",
            ])
            assert rc == 0
            out = capsys.readouterr().out
            assert "via solved (certified)" in out
            # JSON mode round-trips the raw protocol response.
            rc = main([
                "submit", "--address", svc.address,
                "--scenario", "hotspot:ports=8,mean=4,horizon=6",
                "--solver", "Greedy", "--seed", "3", "--json",
            ])
            assert rc == 0
            response = json.loads(capsys.readouterr().out)
            assert response["source"] == "cache"
            assert response["report"]["solver"] == "Greedy"
            # An error response is structured JSON too, besides the
            # stderr line and exit status 1 (SystemExit with a message).
            with pytest.raises(SystemExit) as excinfo:
                main([
                    "submit", "--address", svc.address,
                    "--scenario", "paper-default:ports=4,mean=4,horizon=3",
                    "--solver", "FS-ART", "-p", "horizon=2.5", "--json",
                ])
            assert str(excinfo.value.code).startswith(
                "error: [solver-error] "
            )
            response = json.loads(capsys.readouterr().out)
            assert response["status"] == "error"
            assert response["error"]["code"] == "solver-error"
            assert "horizon must be an integer" in response["error"]["message"]
            assert response["http_status"] == 500


class TestBenchCommand:
    def test_bench_unknown_suite_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown suite"):
            main(["bench", "--only", "nope"])

    def test_bench_missing_dir_exits_cleanly(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["bench", "--bench-dir", "no-such-dir"])

    def test_bench_writes_normalized_snapshot(self, tmp_path, capsys):
        """End-to-end on a synthetic suite (the real ones are minutes)."""
        suite = tmp_path / "bench_toy.py"
        suite.write_text(
            "import argparse, json, time\n"
            "def main(argv=None):\n"
            "    p = argparse.ArgumentParser()\n"
            "    p.add_argument('--json-out')\n"
            "    p.add_argument('--quick', action='store_true')\n"
            "    a = p.parse_args(argv)\n"
            "    t0 = time.perf_counter()\n"
            "    sum(i * i for i in range(100_000))\n"
            "    s = time.perf_counter() - t0\n"
            "    payload = {'op': {'seconds': s, 'quick': a.quick},\n"
            "               'untimed': {'count': 3}}\n"
            "    json.dump(payload, open(a.json_out, 'w'))\n"
            "    return 0\n"
            "# --json-out\n"
        )
        rc = main([
            "bench", "--quick", "--bench-dir", str(tmp_path),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert "snapshot" in capsys.readouterr().out
        snapshot = json.loads(
            (tmp_path / "out" / "BENCH_toy.json").read_text()
        )
        assert snapshot["schema_version"] == 1
        assert snapshot["suite"] == "toy"
        assert snapshot["quick"] is True
        baseline = snapshot["baseline_op"]["seconds"]
        cell = snapshot["results"]["op"]
        assert cell["quick"] is True
        assert cell["vs_baseline"] == pytest.approx(
            cell["seconds"] / baseline, rel=1e-3
        )
        # Untimed fields pass through unnormalized.
        assert snapshot["results"]["untimed"] == {"count": 3}
        # The scratch file is cleaned up.
        assert not list((tmp_path / "out").glob(".bench-raw-*"))

    def test_bench_failing_suite_exits_cleanly(self, tmp_path):
        suite = tmp_path / "bench_sad.py"
        suite.write_text(
            "# synthetic failing suite\n"
            "def main(argv=None):\n"
            "    import json, argparse\n"
            "    p = argparse.ArgumentParser()\n"
            "    p.add_argument('--json-out')\n"
            "    p.add_argument('--quick', action='store_true')\n"
            "    a = p.parse_args(argv)\n"
            "    json.dump({}, open(a.json_out, 'w'))\n"
            "    return 3\n"
            "# --json-out\n"
        )
        with pytest.raises(SystemExit, match="exit 3"):
            main(["bench", "--bench-dir", str(tmp_path),
                  "--out-dir", str(tmp_path / "out")])

    def test_committed_snapshots_are_current_schema(self):
        """The repo-root BENCH_*.json snapshots stay loadable and
        normalized (guards the committed perf history)."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        snapshots = sorted(root.glob("BENCH_*.json"))
        assert snapshots, "committed BENCH_*.json snapshots are missing"
        for path in snapshots:
            data = json.loads(path.read_text())
            assert data["schema_version"] == 1, path
            assert data["baseline_op"]["seconds"] > 0, path
            text = json.dumps(data)
            assert "_vs_baseline" in text or '"vs_baseline"' in text, path

    def test_committed_sweep_snapshot_schema(self):
        """BENCH_sweep.json carries the trial-batching acceptance data:
        the Figure-6-shaped trials grid, byte-identity, the >= 5x
        headline cell, and the honest 10x-roadmap report."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        data = json.loads((root / "BENCH_sweep.json").read_text())
        assert data["suite"] == "sweep"
        results = data["results"]
        cells = results["cells"]
        fifo_third = [
            c
            for c in cells.values()
            if c["policy"] == "FIFO" and abs(c["load"] - 1 / 3) < 1e-3
        ]
        assert sorted(c["trials"] for c in fifo_third) == [8, 32, 128]
        for cell in cells.values():
            assert cell["byte_identical"] is True
            assert cell["serial_vs_baseline"] > 0
            assert cell["batched_vs_baseline"] > 0
        headline = results["headline"]
        assert headline["target"] == 5.0
        assert headline["meets_target"] is True
        assert cells[headline["cell"]]["speedup"] >= 5.0
        roadmap = results["roadmap_10x"]
        assert roadmap["target"] == 10.0
        assert isinstance(roadmap["met"], bool)
        assert roadmap["best_speedup"] >= 5.0


def _write_factor_suite(bench_dir, factor_path):
    """A toy suite whose measured 'seconds' is read from a control file,
    so --check regressions can be staged deterministically."""
    bench_dir.mkdir(parents=True, exist_ok=True)
    (bench_dir / "bench_toy.py").write_text(
        "import argparse, json\n"
        "def main(argv=None):\n"
        "    p = argparse.ArgumentParser()\n"
        "    p.add_argument('--json-out')\n"
        "    p.add_argument('--quick', action='store_true')\n"
        "    a = p.parse_args(argv)\n"
        f"    factor = float(open({str(factor_path)!r}).read())\n"
        "    payload = {'op': {'seconds': 0.002 * factor}}\n"
        "    json.dump(payload, open(a.json_out, 'w'))\n"
        "    return 0\n"
        "# --json-out\n"
    )


class TestBenchCheck:
    @pytest.fixture(autouse=True)
    def fixed_calibration(self, monkeypatch):
        # The toy suites report constant seconds, so only the baseline op
        # could move their ratios; every main() call re-calibrates, and
        # two timings of it can differ by more than the 20% gate.
        monkeypatch.setattr("repro.bench.calibrate", lambda *a, **k: 0.01)

    def test_check_passes_then_flags_regression(self, tmp_path, capsys):
        factor = tmp_path / "factor.txt"
        factor.write_text("1.0")
        bench_dir = tmp_path / "benchmarks"
        _write_factor_suite(bench_dir, factor)
        out_dir = tmp_path / "out"
        base = ["bench", "--bench-dir", str(bench_dir),
                "--out-dir", str(out_dir)]
        assert main(base) == 0
        committed = (out_dir / "BENCH_toy.json").read_text()
        capsys.readouterr()

        assert main(base + ["--check"]) == 0
        assert "bench check passed" in capsys.readouterr().out

        factor.write_text("10.0")  # 10x slower than the committed ratio
        assert main(base + ["--check"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "bench check FAILED" in out
        # The committed snapshot is never rewritten by --check.
        assert (out_dir / "BENCH_toy.json").read_text() == committed
        assert not list(out_dir.glob(".bench-raw-*"))

    def test_check_skips_suite_without_snapshot(self, tmp_path, capsys):
        factor = tmp_path / "factor.txt"
        factor.write_text("1.0")
        bench_dir = tmp_path / "benchmarks"
        _write_factor_suite(bench_dir, factor)
        out_dir = tmp_path / "out"
        base = ["bench", "--bench-dir", str(bench_dir),
                "--out-dir", str(out_dir)]
        assert main(base) == 0
        # A second, never-snapshotted suite must not fail the gate.
        (bench_dir / "bench_new.py").write_text(
            (bench_dir / "bench_toy.py").read_text()
        )
        capsys.readouterr()
        assert main(base + ["--check"]) == 0
        out = capsys.readouterr().out
        assert "'new' has no committed snapshot; skipped" in out

    def test_check_without_any_snapshot_errors(self, tmp_path):
        factor = tmp_path / "factor.txt"
        factor.write_text("1.0")
        bench_dir = tmp_path / "benchmarks"
        _write_factor_suite(bench_dir, factor)
        with pytest.raises(SystemExit, match="no committed BENCH"):
            main(["bench", "--bench-dir", str(bench_dir),
                  "--out-dir", str(tmp_path / "empty"), "--check"])

    def test_check_reruns_in_committed_quick_mode(self, tmp_path, capsys):
        """--check must re-run each suite in its committed snapshot's own
        quick mode, not the flag's — else full-mode snapshots would be
        compared against quick-mode reruns."""
        factor = tmp_path / "factor.txt"
        factor.write_text("1.0")
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        # Marker suite: quick mode would write a wildly different value.
        (bench_dir / "bench_modal.py").write_text(
            "import argparse, json\n"
            "def main(argv=None):\n"
            "    p = argparse.ArgumentParser()\n"
            "    p.add_argument('--json-out')\n"
            "    p.add_argument('--quick', action='store_true')\n"
            "    a = p.parse_args(argv)\n"
            "    s = 0.1 if a.quick else 0.002\n"
            "    json.dump({'op': {'seconds': s}}, open(a.json_out, 'w'))\n"
            "    return 0\n"
            "# --json-out\n"
        )
        out_dir = tmp_path / "out"
        base = ["bench", "--bench-dir", str(bench_dir),
                "--out-dir", str(out_dir)]
        assert main(base) == 0  # committed in full mode
        capsys.readouterr()
        # Passing --quick alongside --check must not flip the rerun mode.
        assert main(base + ["--check", "--quick"]) == 0
        assert "bench check passed" in capsys.readouterr().out

    def test_collect_ratios_paths(self):
        from repro.bench import collect_ratios

        payload = {
            "a": {"x_vs_baseline": 2.0, "x_seconds": 0.1},
            "list": [{"vs_baseline": 1.5}, {"other": True}],
            "skip": {"vs_baseline": "not-a-number"},
        }
        assert collect_ratios(payload) == {
            "a.x_vs_baseline": 2.0,
            "list[0].vs_baseline": 1.5,
        }
