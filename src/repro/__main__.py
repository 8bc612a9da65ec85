"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve TRACE --solver NAME`` / ``solve --scenario NAME[:k=v,...]``
    Run any registered solver on a JSON trace (see
    ``repro.workloads.trace``) or on a generated scenario from the
    declarative registry (``repro.scenarios``); ``-p key=value``
    forwards solver parameters, ``--seed`` seeds scenario generation.
``list-solvers [--json]``
    Enumerate the plugin registry (offline / online / coflow).
``scenarios list [--json]``
    Enumerate the scenario registry with defaults and summaries.
``fig6`` / ``fig7``
    Regenerate the paper's figure series (``--quick`` /
    ``--paper-scale``; ``--jobs N`` parallelizes the sweep trials;
    ``--cache-dir DIR`` persists per-trial results so killed sweeps
    resume, with ``--resume`` [default] / ``--no-cache`` toggling reads).
``verify [TRACE | --scenario SPEC | --report FILE | --cache-dir DIR]``
    Replay work through the certificate checkers (``repro.verify``):
    cross-check registered solvers on a trace/scenario instance
    (``--metamorphic`` adds the transform harness), certify a saved
    ``SolveReport`` JSON (see ``solve --report-out``), or certify every
    record of a cached sweep store.  Exits non-zero on any violation.
``generate OUT``
    Write a Poisson/uniform trace (the paper's workload) to a file.
``probe-open-problem``
    Explore the Section 6 open question empirically.
``serve --cache-dir DIR`` / ``serve --join DIR``
    Run the long-lived solve service (``repro.service``): HTTP endpoint
    with digest-coalescing, admission control, and a work-stealing
    worker pool over the shared cache dir.  ``--join DIR`` starts a
    worker-only process that steals queued jobs from a running
    service's directory (a second machine, or just more cores).
``submit --address URL``
    Blocking client for a running service: submit one solve (trace,
    inline, or ``--scenario``) and print the served report.  With
    ``--json`` an error prints ``{"status": "error", "error": {...},
    "http_status": N}`` as well as the ``error:`` line on stderr.
``bench``
    Run the script-mode benchmark suites and write committed,
    machine-normalized ``BENCH_*.json`` snapshots (``repro.bench``).
``trace export SPANLOG OUT`` / ``trace report SPANLOG``
    Convert a JSONL span log (from ``fig6/fig7 --trace``, ``solve
    --trace-out``, or ``serve --trace``) to Chrome ``trace_event``
    JSON for Perfetto / ``chrome://tracing``, or print its per-phase
    duration table (``repro.obs``).
"""

from __future__ import annotations

import argparse
import json
import sys


def _positive_int(value: str) -> int:
    """argparse type for flags that must be >= 1 (e.g. ``--jobs``)."""
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return n


def _positive_seconds(value: str) -> float:
    """argparse type for durations that must be positive and finite
    (e.g. ``--timeout``)."""
    seconds = float(value)
    if not 0 < seconds < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number of seconds, got {value}"
        )
    return seconds


def _parse_params(pairs) -> dict:
    """Parse ``-p key=value`` pairs; values go through JSON when possible."""
    params = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad -p {pair!r}: expected key=value")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _cmd_figures(args, which: str) -> int:
    from repro.experiments.config import (
        default_config,
        paper_scale_config,
        smoke_config,
    )
    from repro.experiments.fig6 import render_fig6
    from repro.experiments.fig7 import render_fig7
    from repro.experiments.harness import run_sweep

    if args.paper_scale:
        config = paper_scale_config()
    elif args.quick:
        config = smoke_config()
    else:
        config = default_config()
    if (args.resume or args.no_cache) and args.cache_dir is None:
        raise SystemExit("error: --resume/--no-cache require --cache-dir")
    if args.resume and args.no_cache:
        raise SystemExit("error: --resume and --no-cache are mutually exclusive")
    from repro.api import SweepInterrupted

    profiler = None
    trace_arg = args.trace
    if args.profile:
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler()
        profiler.start()
        if trace_arg is None:
            # Samples attribute to open spans, which only exist while a
            # tracer is ambient: --profile without --trace runs under an
            # in-memory tracer (no span log written).
            from repro.obs.spans import Tracer

            trace_arg = Tracer()
    try:
        sweep = run_sweep(
            config,
            compute_lp_bounds=not args.no_lp,
            verbose=True,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            resume=not args.no_cache,
            verify=args.verify,
            batch_trials=args.batch_trials,
            trace=trace_arg,
        )
    except SweepInterrupted as exc:
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        if args.cache_dir:
            print(
                f"partial results kept in {args.cache_dir}; rerun the same "
                "command to resume from them",
                file=sys.stderr,
            )
        else:
            print(
                "no --cache-dir was set, so the partial results are gone; "
                "pass --cache-dir DIR to make interrupted sweeps resumable",
                file=sys.stderr,
            )
        return 130  # conventional SIGINT exit status
    finally:
        if profiler is not None:
            profiler.stop()
    print()
    print(render_fig6(sweep) if which == "fig6" else render_fig7(sweep))
    if args.trace:
        from repro.obs.export import phase_table, read_spans

        print()
        print(phase_table(read_spans(args.trace)))
        print(f"span log written to {args.trace} "
              f"(repro trace export {args.trace} out.json)")
    if profiler is not None:
        print()
        print(profiler.report())
    return 0


def _load_instance(args):
    """The instance named by ``args``: a trace file or a ``--scenario``.

    Exactly one source must be given; scenario parse/build errors and
    trace errors alike exit cleanly with an ``error:`` message.
    """
    scenario = getattr(args, "scenario", None)
    if (args.trace is None) == (scenario is None):
        raise SystemExit(
            "error: pass exactly one of TRACE or --scenario NAME[:k=v,...]"
        )
    if scenario is not None:
        from repro.scenarios import build_instance

        try:
            return build_instance(scenario, seed=getattr(args, "seed", 0))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: {exc}")
    from repro.workloads.trace import load_trace

    try:
        return load_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


def _run_on_instance(inst, solver_name: str, params: dict):
    """Run a registered solver on ``inst``, echoing the instance first.

    ``params`` is an explicit dict (not ``**kwargs``) so user-supplied
    ``-p`` names can never collide with this function's own arguments —
    every pair is forwarded to ``solve()`` verbatim.

    An unknown solver name exits cleanly with an ``error:`` message
    instead of a traceback.  Errors raised by ``solve()`` itself
    propagate from here; ``_cmd_solve`` converts ValueError/TypeError
    (see its comment for the tradeoff).
    """
    from repro.api import get_solver

    try:
        solver = get_solver(solver_name)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"instance: {inst}")  # echo before the (possibly slow) solve
    return solver.solve(inst, **params)


def _cmd_solve(args) -> int:
    inst = _load_instance(args)
    tracer = prev = root = None
    if args.trace_out:
        from repro.obs.export import JsonlSink
        from repro.obs.metrics import get_registry
        from repro.obs.spans import Tracer, activate

        tracer = Tracer(
            sink=JsonlSink(args.trace_out), metrics=get_registry()
        )
        prev = activate(tracer)
        root = tracer.open("solve", attrs={"solver": args.solver})
    try:
        report = _run_on_instance(
            inst, args.solver, params=_parse_params(args.param)
        )
    except (ValueError, TypeError) as exc:
        # Free-form -p input makes bad parameter names/values and
        # wrong-instance-kind mistakes the overwhelmingly common case
        # for this command, so ValueError/TypeError from the dispatch
        # exit cleanly — accepting that a solver-internal bug of those
        # types loses its traceback here.  SystemExit from
        # _run_on_instance passes straight through.
        raise SystemExit(f"error: {exc}")
    finally:
        if tracer is not None:
            from repro.obs.spans import deactivate

            tracer.close(root)
            deactivate(prev)
            tracer.finish()
            print(f"span log written to {args.trace_out}")
    print(f"solver {report.solver} ({report.kind}): ", end="")
    print(report.metrics if report.metrics is not None else "infeasible")
    for name, value in sorted(report.lower_bounds.items()):
        print(f"  lower bound {name} = {value:g}")
    for name, value in sorted(report.extras.items()):
        print(f"  {name} = {value}")
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1)
        print(f"full report written to {args.report_out}")
    if report.schedule is None:  # infeasible: exit 1 with or without --out
        if args.out:
            print("no schedule to write (infeasible)")
        return 1
    if args.out:
        _write_assignment(report.schedule, args.out)
    return 0


def _cmd_list_solvers(args) -> int:
    from repro.api import SOLVER_KINDS, get_solver, list_solvers

    if getattr(args, "json", False):
        payload = {
            kind: [
                {
                    "name": name,
                    "summary": getattr(get_solver(name), "summary", ""),
                }
                for name in list_solvers(kind)
            ]
            for kind in SOLVER_KINDS
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    for kind in SOLVER_KINDS:
        names = list_solvers(kind)
        if not names:
            continue
        print(f"{kind}:")
        for name in names:
            summary = getattr(get_solver(name), "summary", "")
            print(f"  {name:<16s} {summary}")
    return 0


def _cmd_scenarios(args) -> int:
    from repro.scenarios import get_scenario, list_scenarios

    if args.scenarios_command != "list":  # pragma: no cover - argparse guards
        raise AssertionError(
            f"unhandled scenarios subcommand {args.scenarios_command}"
        )
    entries = [get_scenario(name) for name in list_scenarios()]
    if args.json:
        payload = [
            {
                "name": e.name,
                "summary": e.summary,
                "num_ports": e.num_ports,
                "capacity": e.capacity,
                "horizon": e.horizon,
                "params": dict(e.defaults),
            }
            for e in entries
        ]
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    for e in entries:
        print(f"{e.name:<16s} {e.summary}")
        shape = (
            f"ports={e.num_ports if e.num_ports is not None else 'derived'} "
            f"capacity={e.capacity if e.capacity is not None else 'derived'} "
            f"horizon={e.horizon if e.horizon is not None else 'unbounded'}"
        )
        knobs = " ".join(f"{k}={v}" for k, v in sorted(e.defaults.items()))
        print(f"{'':<16s}   defaults: {shape}" + (f" {knobs}" if knobs else ""))
    return 0


def _verify_report_file(path: str):
    """Certify one saved ``SolveReport`` JSON; returns the report."""
    from repro.api import SolveReport
    from repro.verify import certify

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        solve_report = SolveReport.from_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"error: cannot load report {path!r}: {exc}")
    return certify(solve_report, subject=f"report:{path}")


def _verify_cache_dir(cache_dir: str):
    """Certify every *live* record of a result-store directory.

    Replays exactly what :class:`repro.api.store.ResultStore` would
    serve (:func:`repro.api.store.live_records`: oldest-shard-first,
    torn-tail tolerant, duplicate keys last-writer-wins — a record
    superseded by a ``--no-cache`` refresh can never be served again,
    so it is not re-certified).  Each certified record's subject names
    the shard it survived from.
    """
    from pathlib import Path

    from repro.api.store import live_records
    from repro.verify import check_record, merge_reports

    directory = Path(cache_dir)
    if not directory.is_dir():
        raise SystemExit(f"error: {cache_dir!r} is not a directory")
    if not any(directory.glob("results-*.jsonl")):
        raise SystemExit(
            f"error: no result shards (results-*.jsonl) in {cache_dir!r}"
        )
    live = live_records(directory)
    if not live:
        # Shards exist but every line is torn/garbled: say so instead
        # of rendering the meaningless "0 violation(s) (0 check(s))".
        raise SystemExit(
            f"error: shards in {cache_dir!r} contain no readable records"
        )
    reports = [
        check_record(
            entry["report"],
            subject=(
                f"{entry['solver'] or '?'}@"
                f"{str(entry['instance'] or '')[:12]} ({entry['shard']})"
            ),
        )
        for entry in live.values()
    ]
    merged = merge_reports(f"store:{cache_dir}", reports)
    merged.stats["records"] = len(live)
    return merged


def _cmd_verify(args) -> int:
    sources = [
        args.trace is not None,
        args.scenario is not None,
        args.report is not None,
        args.cache_dir is not None,
    ]
    if sum(sources) != 1:
        raise SystemExit(
            "error: pass exactly one of TRACE, --scenario, --report, "
            "or --cache-dir"
        )
    if args.report is not None or args.cache_dir is not None:
        # Cross-checking flags only make sense when an instance is in
        # hand; silently ignoring them would report 'certified' for
        # checks that never ran.
        for flag, value in (("--metamorphic", args.metamorphic),
                            ("--solvers", args.solvers)):
            if value:
                raise SystemExit(
                    f"error: {flag} applies to TRACE/--scenario "
                    "verification, not --report/--cache-dir"
                )

    if args.report is not None:
        verification = _verify_report_file(args.report)
    elif args.cache_dir is not None:
        verification = _verify_cache_dir(args.cache_dir)
    else:
        from repro.verify import cross_check, metamorphic_check

        inst = _load_instance(args)
        solvers = (
            [s for s in args.solvers.split(",") if s]
            if args.solvers
            else None
        )
        try:
            result = cross_check(inst, solvers=solvers)
        except ValueError as exc:  # unknown solver name
            raise SystemExit(f"error: {exc}")
        verification = result.verification
        if args.metamorphic:
            verification.merge(
                metamorphic_check(
                    inst,
                    solvers=solvers or ("Greedy",),
                    seed=args.seed,
                )
            )

    if args.json:
        print(json.dumps(verification.to_dict(), indent=1, sort_keys=True))
    else:
        print(verification.render())
    return 0 if verification.ok else 1


def _cmd_generate(args) -> int:
    from repro.workloads.synthetic import poisson_uniform_workload
    from repro.workloads.trace import save_trace

    if args.scenario is not None:
        if (args.ports, args.mean, args.rounds) != (None, None, None):
            raise SystemExit(
                "error: --ports/--mean/--rounds configure the default "
                "Poisson/uniform generator; with --scenario use spec "
                "options instead (e.g. --scenario "
                f"{args.scenario.split(':')[0]}:ports=32,horizon=20)"
            )
        from repro.scenarios import build_instance

        try:
            inst = build_instance(args.scenario, seed=args.seed)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: {exc}")
    else:
        inst = poisson_uniform_workload(
            24 if args.ports is None else args.ports,
            24.0 if args.mean is None else args.mean,
            10 if args.rounds is None else args.rounds,
            seed=args.seed,
        )
    save_trace(inst, args.out)
    print(f"wrote {inst} to {args.out}")
    return 0


def _cmd_probe(args) -> int:
    from repro.analysis.open_problem import probe_open_problem

    worst, values = probe_open_problem(
        num_ports=args.ports,
        num_rounds=args.rounds,
        trials=args.trials,
        seed=args.seed,
    )
    print("Section 6 open-problem probe (degree-bounded sequences, "
          "no augmentation):")
    print(f"  optimal max response per trial: {values}")
    print(f"  worst observed constant: {worst}")
    return 0


def _cmd_serve(args) -> int:
    if (args.cache_dir is None) == (args.join is None):
        raise SystemExit(
            "error: pass exactly one of --cache-dir DIR (run the full "
            "service) or --join DIR (worker-only: steal jobs from a "
            "running service's directory)"
        )

    if args.join is not None:
        # Worker-only mode: no HTTP listener, just claim-solve-store
        # loops over the shared directory until SIGTERM/Ctrl-C.
        import signal
        import threading

        from repro.service import WorkerPool

        stop = threading.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, lambda *_: stop.set())
        pool = WorkerPool(args.join, args.workers)
        pool.start()
        print(
            f"joined work queue at {args.join} with {args.workers} "
            "worker(s); Ctrl-C or SIGTERM to stop",
            flush=True,
        )
        try:
            while not stop.wait(0.2):
                pass
        finally:
            pool.stop()
        print("workers drained; stopped cleanly")
        return 0

    import asyncio
    import signal

    from repro.obs.metrics import get_registry
    from repro.service import BrokerConfig, SolveService

    # The process-wide registry, so GET /metrics serves every series
    # this process produced — service counters and any runner/oracle
    # timings alike (one unified exposition).
    service = SolveService(
        args.cache_dir,
        host=args.host,
        port=args.port,
        config=BrokerConfig(
            queue_depth=args.queue_depth,
            solver_cap=args.solver_cap,
            default_timeout=args.timeout,
            verify=args.verify,
        ),
        metrics=get_registry(),
        workers=args.workers,
        trace=args.trace,
    )

    async def _serve() -> None:
        await service.start()
        print(
            f"solve service on {service.address} "
            f"(cache {args.cache_dir}, {args.workers} worker(s)"
            + (", verify on" if args.verify else "")
            + "); Ctrl-C or SIGTERM to drain and stop",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("draining...", flush=True)
        await service.stop(drain_timeout=args.drain_timeout)

    asyncio.run(_serve())
    print("stopped cleanly")
    return 0


def _cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceError

    if (args.trace is None) == (args.scenario is None):
        raise SystemExit(
            "error: pass exactly one of TRACE or --scenario NAME[:k=v,...]"
        )
    instance = None
    if args.trace is not None:
        from repro.workloads.trace import load_trace

        try:
            instance = load_trace(args.trace)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: {exc}")
    client = ServiceClient(args.address, timeout=args.http_timeout)
    try:
        response = client.solve(
            args.solver,
            instance=instance,
            scenario=args.scenario,
            seed=args.seed,
            params=_parse_params(args.param),
            verify=args.verify,
            timeout=args.timeout,
            retries=args.retries,
            trace=args.trace_id,
        )
    except ServiceError as exc:
        if args.json:
            print(json.dumps(
                {"status": "error", "error": exc.error.to_dict(),
                 "http_status": exc.status},
                indent=1, sort_keys=True,
            ))
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps(response.to_dict(), indent=1, sort_keys=True))
        return 0
    report = response.solve_report()
    print(
        f"{response.solver} via {response.source}"
        + (" (certified)" if response.certified else "")
        + f" digest={response.digest[:16]}…"
        + (f" trace={response.trace_id}" if response.trace_id else "")
    )
    print(report.metrics if report.metrics is not None else "infeasible")
    for name, value in sorted(report.lower_bounds.items()):
        print(f"  lower bound {name} = {value:g}")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import main as bench_main

    return bench_main(args)


def _cmd_trace(args) -> int:
    from repro.obs.export import (
        export_chrome_trace,
        phase_table,
        read_spans,
        validate_span,
    )

    try:
        spans = read_spans(args.spanlog)
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    if not spans:
        raise SystemExit(f"error: no spans in {args.spanlog!r}")
    problems = [
        f"line {i + 1}: {p}"
        for i, s in enumerate(spans)
        for p in validate_span(s)
    ]
    if problems:
        for line in problems[:10]:
            print(f"warning: {line}", file=sys.stderr)
        if len(problems) > 10:
            print(
                f"warning: ... and {len(problems) - 10} more", file=sys.stderr
            )
    if args.trace_command == "export":
        count = export_chrome_trace(spans, args.out)
        print(
            f"wrote {count} trace events to {args.out} "
            "(load in Perfetto or chrome://tracing)"
        )
        return 0
    if args.trace_command == "report":
        print(phase_table(spans, limit=args.limit))
        return 0
    raise AssertionError(  # pragma: no cover - argparse guards
        f"unhandled trace subcommand {args.trace_command}"
    )


def _write_assignment(schedule, path: str) -> None:
    from repro.core.metrics import ScheduleMetrics

    data = {
        "assignment": schedule.assignment.tolist(),
        "metrics": ScheduleMetrics.of(schedule).to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
    print(f"schedule written to {path}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scheduling Flows on a Switch (SPAA 2020) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve", help="run any registered solver on a trace or scenario"
    )
    p.add_argument("trace", nargs="?", default=None)
    p.add_argument("--solver", default="MaxWeight",
                   help="registry name (see list-solvers)")
    p.add_argument("--scenario", default=None, metavar="NAME[:k=v,...]",
                   help="generate the instance from the scenario registry "
                        "instead of reading a trace (see scenarios list)")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario generation seed (with --scenario)")
    p.add_argument("-p", "--param", action="append", metavar="KEY=VALUE",
                   help="solver parameter (repeatable; value parsed as JSON)")
    p.add_argument("--out", default=None)
    p.add_argument("--report-out", default=None, metavar="FILE",
                   help="also write the full SolveReport JSON (replayable "
                        "through 'verify --report FILE')")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a JSONL span log of the solve (inspect with "
                        "'trace report FILE'; the positional TRACE is the "
                        "input workload, hence the -out suffix)")

    p = sub.add_parser(
        "verify", help="replay work through the certificate checkers"
    )
    p.add_argument("trace", nargs="?", default=None,
                   help="JSON trace to cross-check solvers on")
    p.add_argument("--scenario", default=None, metavar="NAME[:k=v,...]",
                   help="cross-check on a generated scenario instance")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="certify a saved SolveReport JSON "
                        "(from solve --report-out)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="certify every record of a cached sweep store")
    p.add_argument("--solvers", default=None, metavar="A,B,...",
                   help="solvers to cross-check (default: all offline)")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario generation / transform seed")
    p.add_argument("--metamorphic", action="store_true",
                   help="also certify invariance under port-relabeling, "
                        "demand-scaling, and flow-shuffling transforms")
    p.add_argument("--json", action="store_true",
                   help="machine-readable verification report")

    p = sub.add_parser("list-solvers", help="enumerate the solver registry")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")

    p = sub.add_parser("scenarios", help="inspect the scenario registry")
    ssub = p.add_subparsers(dest="scenarios_command", required=True)
    p = ssub.add_parser("list", help="enumerate registered scenarios")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")

    for fig in ("fig6", "fig7"):
        p = sub.add_parser(fig, help=f"regenerate {fig} series")
        p.add_argument("--quick", action="store_true")
        p.add_argument("--paper-scale", action="store_true")
        p.add_argument("--no-lp", action="store_true")
        p.add_argument("--jobs", type=_positive_int, default=None,
                       help="parallel worker processes for the sweep")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist per-trial results here; interrupted "
                            "sweeps resume and repeated cells are served "
                            "from disk")
        p.add_argument("--resume", action="store_true",
                       help="reuse results already in --cache-dir "
                            "(the default; flag kept for explicitness)")
        p.add_argument("--no-cache", action="store_true",
                       help="recompute every cell, refreshing --cache-dir")
        p.add_argument("--verify", action="store_true",
                       help="certify every trial through the repro.verify "
                            "checkers (fails fast on any violation)")
        p.add_argument("--batch-trials", type=_positive_int, default=None,
                       metavar="N",
                       help="cap trials merged into one structure-of-arrays "
                            "batch (default: each cell batched whole; 1 runs "
                            "one trial at a time, with identical results)")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a JSONL span log of the sweep (phase "
                            "table printed after the figure; export with "
                            "'trace export FILE out.json')")
        p.add_argument("--profile", action="store_true",
                       help="run a sampling profiler alongside the sweep "
                            "and print its hot-stack report")

    p = sub.add_parser(
        "generate", help="write a Poisson/uniform (or scenario) trace"
    )
    p.add_argument("out")
    # Poisson/uniform knobs default to None so an explicit flag can be
    # detected (and rejected) when --scenario supplies the generator.
    p.add_argument("--ports", type=int, default=None,
                   help="switch size (default 24; Poisson generator only)")
    p.add_argument("--mean", type=float, default=None,
                   help="mean arrivals/round (default 24; Poisson only)")
    p.add_argument("--rounds", type=int, default=None,
                   help="generation rounds (default 10; Poisson only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", default=None, metavar="NAME[:k=v,...]",
                   help="materialize a registered scenario instead of the "
                        "default Poisson/uniform generator")

    p = sub.add_parser(
        "probe-open-problem", help="Section 6 open-question explorer"
    )
    p.add_argument("--ports", type=int, default=4)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "serve", help="run the long-lived solve service (repro.service)"
    )
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result-store directory to serve (also holds the "
                        "work queue)")
    p.add_argument("--join", default=None, metavar="DIR",
                   help="worker-only mode: steal queued jobs from a running "
                        "service's cache dir (no HTTP listener)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="listen port (0 picks a free one; default 8642)")
    p.add_argument("--workers", type=_positive_int, default=2,
                   help="work-stealing worker processes (default 2)")
    p.add_argument("--queue-depth", type=_positive_int, default=64,
                   help="max keys in flight before 429 queue-full")
    p.add_argument("--solver-cap", type=_positive_int, default=16,
                   help="max in-flight keys per solver before 429 "
                        "solver-busy")
    p.add_argument("--timeout", type=_positive_seconds, default=120.0,
                   help="default per-request wait bound, seconds")
    p.add_argument("--drain-timeout", type=_positive_seconds, default=30.0,
                   help="seconds to wait for in-flight solves on shutdown")
    p.add_argument("--verify", action="store_true",
                   help="certify every fresh solve before it is stored "
                        "and record-check cache hits before serving them")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a JSONL span log of every request (one "
                        "trace ID per request, echoed in responses)")

    p = sub.add_parser(
        "submit", help="submit one solve to a running service"
    )
    p.add_argument("trace", nargs="?", default=None,
                   help="JSON trace to submit inline")
    p.add_argument("--address", default="http://127.0.0.1:8642",
                   help="service address (default http://127.0.0.1:8642)")
    p.add_argument("--solver", default="MaxWeight",
                   help="registry name (see list-solvers)")
    p.add_argument("--scenario", default=None, metavar="NAME[:k=v,...]",
                   help="solve a generated scenario instead of a trace "
                        "(built server-side with --seed)")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario generation seed (with --scenario)")
    p.add_argument("-p", "--param", action="append", metavar="KEY=VALUE",
                   help="solver parameter (repeatable; value parsed as JSON)")
    p.add_argument("--verify", action="store_true",
                   help="request certification for this solve")
    p.add_argument("--timeout", type=_positive_seconds, default=None,
                   help="per-request wait bound, seconds (server default "
                        "otherwise)")
    p.add_argument("--retries", type=int, default=0,
                   help="retry count for 429 overload rejections "
                        "(honours Retry-After)")
    p.add_argument("--http-timeout", type=_positive_seconds,
                   default=300.0,
                   help="transport timeout per HTTP exchange, seconds")
    p.add_argument("--json", action="store_true",
                   help="print the raw protocol response; on an error, "
                        "its status, error body and HTTP status")
    p.add_argument("--trace-id", dest="trace_id", default=None,
                   metavar="ID",
                   help="caller trace ID for the service to adopt "
                        "(echoed back as trace_id; correlates this "
                        "request with the server's --trace span log)")

    p = sub.add_parser(
        "bench",
        help="run benchmark suites; write normalized BENCH_*.json snapshots",
    )
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes/repeats (CI smoke mode)")
    p.add_argument("--bench-dir", default="benchmarks", metavar="DIR",
                   help="directory holding bench_*.py suites")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="where BENCH_<suite>.json snapshots are written "
                        "(default: current directory; commit them to extend "
                        "the perf history)")
    p.add_argument("--only", default=None, metavar="A,B,...",
                   help="run only these suites (names without the bench_ "
                        "prefix)")
    p.add_argument("--check", action="store_true",
                   help="re-run each suite and exit nonzero if any "
                        "*_vs_baseline ratio regressed >20%% against the "
                        "committed BENCH_*.json in --out-dir (the CI "
                        "bench-gate; committed files are never rewritten)")

    p = sub.add_parser(
        "trace", help="inspect or export JSONL span logs (repro.obs)"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)
    t = tsub.add_parser(
        "export", help="convert a span log to Chrome trace_event JSON"
    )
    t.add_argument("spanlog", help="JSONL span log (from a --trace run)")
    t.add_argument("out", help="Chrome trace JSON output path")
    t = tsub.add_parser(
        "report", help="print a span log's per-phase duration table"
    )
    t.add_argument("spanlog", help="JSONL span log (from a --trace run)")
    t.add_argument("--limit", type=_positive_int, default=None, metavar="N",
                   help="show only the top N phases by total time")

    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "list-solvers": _cmd_list_solvers,
    "scenarios": _cmd_scenarios,
    "generate": _cmd_generate,
    "probe-open-problem": _cmd_probe,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
}


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command in ("fig6", "fig7"):
        return _cmd_figures(args, args.command)
    handler = _COMMANDS.get(args.command)
    if handler is None:
        raise AssertionError(f"unhandled command {args.command}")
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
