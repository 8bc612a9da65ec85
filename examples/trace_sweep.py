#!/usr/bin/env python
"""Observability walkthrough: trace a sweep, read the evidence back.

Runs a small Figure-6-style sweep with the ``repro.obs`` layer fully
engaged, then demonstrates every consumer of the resulting span log:

1. ``run_sweep(..., trace=...)`` writes a JSONL span log whose span
   sums reconcile exactly with the sweep's phase timer;
2. the phase table attributes the sweep wall clock per span name;
3. the Chrome ``trace_event`` export produces a file loadable in
   https://ui.perfetto.dev or ``chrome://tracing``;
4. the process-wide metrics registry — the same one a running service
   serves on ``GET /metrics`` — now holds the canonical
   ``repro_*_seconds`` histograms the traced sweep populated;
5. an ambient tracer session shows the low-level span API directly.

Run:  python examples/trace_sweep.py
"""

import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src")
)

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_sweep
from repro.obs import (
    Tracer,
    export_chrome_trace,
    get_registry,
    parse_metric,
    phase_table,
    read_spans,
    session,
    span,
)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-trace-")
    trace_path = os.path.join(workdir, "sweep.jsonl")

    # --- 1. A traced sweep -------------------------------------------
    config = ExperimentConfig(
        num_ports=6,
        load_ratios=(0.5, 1.0),
        generation_rounds=(4,),
        trials=3,
        lp_round_limit=4,
        seed=7,
    )
    sweep = run_sweep(config, trace=trace_path)
    spans = read_spans(trace_path)
    print(f"traced sweep: {len(sweep.cells)} cells, {len(spans)} spans")
    print(f"span log: {trace_path}\n")

    # Span sums reconcile exactly with the sweep's phase timer: each
    # phase is timed by one measure() call, which adds one perf_counter
    # delta to the active Timer and closes its span with that delta.
    for name in sorted(sweep.timer.totals)[:3]:
        total = sum(s["dur"] for s in spans if s["name"] == name)
        print(f"  {name:<24s} timer={sweep.timer.totals[name]:.6f}s "
              f"spans={total:.6f}s")
    print()

    # --- 2. Phase attribution ----------------------------------------
    print(phase_table(spans, limit=8))
    print()

    # --- 3. Chrome trace export --------------------------------------
    chrome_path = os.path.join(workdir, "sweep.trace.json")
    events = export_chrome_trace(spans, chrome_path)
    print(f"chrome trace: {events} events -> {chrome_path}")
    print("  (open in https://ui.perfetto.dev or chrome://tracing)\n")

    # --- 4. The shared metrics registry ------------------------------
    text = get_registry().render()
    solves = parse_metric(text, "repro_lp_solve_seconds_count")
    sims = parse_metric(text, "repro_simulate_seconds_count",
                        solver="MaxWeight")
    print(f"registry: repro_lp_solve_seconds_count={solves} "
          f"repro_simulate_seconds_count{{solver=MaxWeight}}={sims}")
    print("  (a running `repro serve` exposes exactly this on "
          "GET /metrics)\n")

    # --- 5. The ambient span API directly ----------------------------
    tracer = Tracer(trace_id="deadbeefdeadbeef")
    with session(tracer):
        with span("outer", what="demo"):
            with span("inner"):
                pass
    for record in tracer.finished:
        print(f"  span {record['span']:<6s} parent={record['parent']!r:<8} "
              f"name={record['name']}")

    print("\ntraced sweep complete")


if __name__ == "__main__":
    main()
