#!/usr/bin/env python3
"""Benchmark of the flow-scheduling reproduction in ``src/repro``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig-lp --seed 1 --seconds 35 --trace 0

Workloads (the rationale for each is recorded in ``BENCHMARK.json`` and
``perfbench/README.md``):

``fig-lp``
    Figure 6/7 sweep cells inside the LP round limit: ``Runner.run()``
    with both LP lower bounds and the paper's three policies, serial
    executor, no result cache.
``fig-sim``
    Figure 6/7 cells of the T=40 column, beyond the LP limit: the three
    policies only, 24 ports, load 1.
``solve-service``
    ``repro submit`` traffic against an in-process ``repro serve``: one
    closed-loop client alternating fresh verified FS-MRT / FS-ART /
    MinRTime solves with repeats of earlier requests.

A run measures *units* until ``--seconds`` are used up.  A unit is one
sweep, or one service session on a fresh cache directory, over input
set ``k``; the inputs of set ``k`` derive only from ``--seed`` and
``k``.  A run cycles through the workload's fixed number of input sets,
so sets run more than once, spread over the run; a set's time is its
fastest run.  Sweep units run pinned to the quieter vCPU and their times
are scaled to a reference CPU speed (see :func:`run_units`).  Every run
of a set must reproduce the set's result digest (and, when traced, its
work counters) exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
input set twice in a row, untraced then traced, and prints the
per-layer metrics: exclusive self seconds per layer (see
``perfbench/layers.py``), the work counters of set 0, the tracing
overhead, and the attribution checks.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for the service's result stores; removed at exit.
RUN_DIR = HERE / "_run"

sys.path.insert(0, str(HERE))

from layers import LayerTracer  # noqa: E402


@dataclass(frozen=True)
class SweepSpec:
    """One Figure 6/7 sweep: the grid a ``Runner.run()`` call covers."""

    ports: int
    loads: Tuple[float, ...]
    rounds: Tuple[int, ...]
    trials: int
    lp: bool


@dataclass(frozen=True)
class ServiceSpec:
    """One service session: ``trials`` inline instances, each solved fresh
    by every solver, every fresh request followed by one repeat."""

    ports: int
    mean_arrivals: float
    rounds: int
    trials: int
    solvers: Tuple[str, ...] = ("FS-MRT", "FS-ART", "MinRTime")


SWEEPS: Dict[str, SweepSpec] = {
    "fig-lp": SweepSpec(12, (1 / 3, 1.0, 2.0), (6,), 1, True),
    "fig-sim": SweepSpec(24, (1.0,), (40,), 1, False),
}
SERVICE = ServiceSpec(ports=8, mean_arrivals=8.0, rounds=6, trials=10)
WORKLOADS = tuple(SWEEPS) + ("solve-service",)
#: Input sets a run cycles through, each one trial per cell for the
#: sweeps.  More sets average over more instances; fewer give each set
#: more runs to take the fastest of.  A 35-second run makes about two
#: passes on ``fig-lp`` and ``solve-service``, and five on ``fig-sim``.
INPUT_SETS = {"fig-lp": 36, "fig-sim": 20, "solve-service": 7}

#: Relative slack of the LP lower-bound check (HiGHS optimality tolerance).
BOUND_RTOL = 1e-6


@dataclass
class Unit:
    """Outcome of one unit of work."""

    wall_s: float
    trials: int
    attempted: int
    failed: int
    digest: str
    #: Sweeps: one completion latency per cell, in grid order.
    #: Service: one round trip per fresh request.
    latencies_ms: List[float]
    hit_latencies_ms: List[float] = field(default_factory=list)
    input_set: int = 0
    traced: bool = False
    layer_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Factor to reference CPU speed (sweeps; see :func:`run_units`).
    scale: float = 1.0

    @property
    def ref_s(self) -> float:
        """Wall time at reference CPU speed."""
        return self.wall_s * self.scale

    def record(self, tracer: LayerTracer) -> None:
        self.traced = True
        self.layer_s = tracer.snapshot()
        self.calls = dict(tracer.calls)
        self.counters = dict(tracer.counters)


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def derive(seed: int, *parts) -> int:
    """A stable 32-bit seed from the workload seed and a path of parts."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def digest_of(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


#: CPUs the benchmark may run on, as it was started.
CPUS = frozenset(os.sched_getaffinity(0))
#: Reference time of :func:`probe_s`: sweep times are reported as if the
#: probe took exactly this long (about its time on a quiet vCPU of a
#: 2-vCPU Xeon VM).
PROBE_REF_S = 1.0e-3


def probe_s(repeats: int = 5) -> float:
    """Fastest of ``repeats`` timings of a fixed pure-Python loop (about
    a millisecond each): the current speed of this thread's CPU."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(15000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def pin_to_quietest_cpu() -> float:
    """Pin this thread, and the threads and processes it starts, to the
    allowed CPU on which :func:`probe_s` runs fastest right now, and
    return that probe time.

    On a shared host, other tenants slow one vCPU at a time, by up to
    1.6x for several seconds; the scheduler cannot see that, so an
    unpinned single-threaded run stays on a slowed vCPU.
    """
    timed = []
    for cpu in sorted(CPUS):
        os.sched_setaffinity(0, {cpu})
        timed.append((probe_s(), cpu))
    best, cpu = min(timed)
    os.sched_setaffinity(0, {cpu})
    return best


def unpin() -> None:
    os.sched_setaffinity(0, CPUS)


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between samples and
    never beyond them; a single sample is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------


def bound_violated(trial, spec: SweepSpec) -> bool:
    """Whether a trial breaks the paper's LP lower-bound guarantee.

    Every policy schedule is feasible without augmentation, so LP (1)-(4)
    per flow and ρ* must sit at or below its average and max response.
    """
    if not spec.lp or trial.num_flows == 0:
        return False
    if trial.lp_avg is None or trial.lp_max is None:
        return True
    for policy, avg in trial.avg_response.items():
        mx = trial.max_response[policy]
        if trial.lp_avg > avg + BOUND_RTOL * max(1.0, abs(avg)):
            return True
        if trial.lp_max > mx + BOUND_RTOL * max(1.0, abs(mx)):
            return True
    return False


def run_sweep_unit(
    spec: SweepSpec, seed: int, tracer: Optional[LayerTracer] = None
) -> Unit:
    """One ``Runner.run()`` over the spec's grid, checked per trial."""
    from repro.api import runner as runner_module
    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig(
        num_ports=spec.ports,
        load_ratios=spec.loads,
        generation_rounds=spec.rounds,
        trials=spec.trials,
        lp_round_limit=max(spec.rounds),
        seed=seed,
    )
    # The per-trial results are only visible to the cell aggregation;
    # capture them there so every trial's bounds can be checked.
    trials = []
    aggregate = runner_module.aggregate_cell

    def capture(mean, rounds, count, solvers, results):
        trials.extend(results)
        return aggregate(mean, rounds, count, solvers, results)

    runner_module.aggregate_cell = capture
    cell_done: List[float] = []
    try:
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        with tracer.root() if tracer is not None else nullcontext():
            sweep = runner_module.Runner(
                config, compute_lp_bounds=spec.lp, resume=False
            ).run(on_cell=lambda cell: cell_done.append(time.perf_counter()))
        wall = time.perf_counter() - start
    finally:
        runner_module.aggregate_cell = aggregate
    marks = [start] + cell_done
    cells = [
        dict(asdict(cell), key=[mean, rounds])
        for (mean, rounds), cell in sweep.cells.items()
    ]
    unit = Unit(
        wall_s=wall,
        trials=len(trials),
        attempted=len(trials),
        failed=sum(bound_violated(t, spec) for t in trials),
        digest=digest_of(cells),
        latencies_ms=[1e3 * (b - a) for a, b in zip(marks, marks[1:])],
    )
    if len(trials) != len(sweep.cells) * spec.trials:
        unit.failed = unit.attempted
    if tracer is not None:
        unit.record(tracer)
        unit.extra["program_lp_solve_s"] = sweep.timer.totals.get(
            "lp_bound_solve", 0.0
        )
    return unit


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------


def service_pool(spec: ServiceSpec, seed: int) -> List[dict]:
    """One input set's instances, as the wire payloads the client sends."""
    from repro.workloads.synthetic import poisson_uniform_workload

    return [
        poisson_uniform_workload(
            spec.ports, spec.mean_arrivals, spec.rounds,
            seed=derive(seed, "instance", i),
        ).to_dict()
        for i in range(spec.trials)
    ]


def run_service_unit(
    spec: ServiceSpec,
    pool: List[dict],
    seed: int,
    tracer: Optional[LayerTracer] = None,
) -> Unit:
    """One closed-loop session against a fresh service and cache dir.

    Each fresh request (an instance not yet solved by that solver) is
    followed by a repeat of a seeded-random earlier request, which the
    store must answer with the same metrics as the first answer.  When
    traced, each request's latency minus the layer time spent inside it
    is the service's own wait (queueing, polling, HTTP and JSON).
    """
    from repro.service import ServiceClient, ServiceError, ServiceThread

    picker = random.Random(derive(seed, "repeats"))
    cache_dir = tempfile.mkdtemp(prefix="service-", dir=RUN_DIR)
    fresh_ms: List[float] = []
    hit_ms: List[float] = []
    answers: List[Tuple[str, int, dict]] = []
    failed = rejected = 0
    wait_s = overlap_s = 0.0
    try:
        with ServiceThread(cache_dir, workers=1, worker_mode="thread") as svc:
            client = ServiceClient(svc.address, timeout=120.0)

            def request(solver: str, payload: dict):
                nonlocal rejected, wait_s, overlap_s
                before = tracer.snapshot() if tracer is not None else None
                t0 = time.perf_counter()
                try:
                    response = client.solve(
                        solver, instance=payload, verify=True
                    )
                except ServiceError as exc:
                    response = None
                    if exc.status in (429, 503, 504):
                        rejected += 1
                latency = time.perf_counter() - t0
                if tracer is not None:
                    after = tracer.snapshot()
                    inside = sum(after[k] - before[k] for k in after)
                    wait_s += latency - inside
                    overlap_s = max(overlap_s, inside - latency)
                return response, latency

            if tracer is not None:
                tracer.reset()
            start = time.perf_counter()
            for index, payload in enumerate(pool):
                for solver in spec.solvers:
                    response, latency = request(solver, payload)
                    fresh_ms.append(1e3 * latency)
                    ok = response is not None and response.source == "solved"
                    failed += not ok
                    answers.append(
                        (solver, index, response.report["metrics"] if ok else {})
                    )
                    solver_r, index_r, metrics = answers[
                        picker.randrange(len(answers))
                    ]
                    response, latency = request(solver_r, pool[index_r])
                    hit_ms.append(1e3 * latency)
                    failed += (
                        response is None
                        or response.source != "cache"
                        or response.report["metrics"] != metrics
                    )
            wall = time.perf_counter() - start
            unit = Unit(
                wall_s=wall,
                trials=len(pool),
                attempted=len(fresh_ms) + len(hit_ms),
                failed=failed,
                digest=digest_of(answers),
                latencies_ms=fresh_ms,
                hit_latencies_ms=hit_ms,
            )
            if tracer is not None:
                unit.record(tracer)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if tracer is not None:
        # The client's own time between requests (choosing the repeat).
        unit.layer_s["unattributed"] = unit.wall_s - 1e-3 * (
            sum(fresh_ms) + sum(hit_ms)
        )
        unit.extra["service_wait_s"] = wait_s
        unit.extra["service_rejected"] = rejected
        unit.extra["attribution_overlap_s"] = overlap_s
    return unit


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def run_unit(
    workload: str, seed: int, k: int, tracer: Optional[LayerTracer] = None
) -> Unit:
    """Measure input set ``k`` once, traced when ``tracer`` is given."""
    set_seed = derive(seed, "set", k)
    if tracer is not None:
        tracer.install()
    try:
        if workload in SWEEPS:
            unit = run_sweep_unit(SWEEPS[workload], set_seed, tracer)
        else:
            pool = service_pool(SERVICE, set_seed)
            unit = run_service_unit(SERVICE, pool, set_seed, tracer)
        if tracer is not None:
            unit.extra["unbound"] = len(tracer.unbound())
    finally:
        if tracer is not None:
            tracer.uninstall()
    unit.input_set = k
    return unit


def prepare(workload: str, seed: int) -> None:
    """Set-up before the first timed unit: one small warm-up at the
    workload's real sizes (lazy imports, first-call costs), and for the
    service the first input set and a throwaway service."""
    warm_seed = derive(seed, "warmup")
    if workload in SWEEPS:
        spec = SWEEPS[workload]
        warm = SweepSpec(spec.ports, spec.loads[-1:], spec.rounds[:1], 1, spec.lp)
        run_sweep_unit(warm, warm_seed)
        return
    from repro.service import ServiceClient, ServiceThread

    # Each unit builds its own pool outside its timed region; one pool's
    # cost is charged here so that work moved into instance building shows.
    service_pool(SERVICE, derive(seed, "set", 0))
    warm = service_pool(SERVICE, warm_seed)[0]
    cache_dir = tempfile.mkdtemp(prefix="warmup-", dir=RUN_DIR)
    try:
        with ServiceThread(cache_dir, workers=1, worker_mode="thread") as svc:
            client = ServiceClient(svc.address, timeout=120.0)
            for solver in SERVICE.solvers:
                client.solve(solver, instance=warm, verify=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def at_reference_speed(timed: Callable[[], float]) -> float:
    """Run ``timed`` (which returns the seconds it measured) pinned to
    the quietest CPU, and scale its seconds to reference CPU speed."""
    before = pin_to_quietest_cpu()
    seconds = timed()
    return seconds * PROBE_REF_S / statistics.mean((before, probe_s()))


def cold_import_s() -> float:
    """Cold import time of the program, in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        "import repro.api.runner, repro.lp.bounds, repro.service, "
        "repro.verify, scipy.optimize; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=str(ROOT),
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, repeats: int = 5) -> float:
    """Median of ``repeats`` cold imports plus the median of ``repeats``
    preparations, each at reference CPU speed."""

    def prepared_s() -> float:
        t0 = time.perf_counter()
        prepare(workload, seed)
        return time.perf_counter() - t0

    try:
        prepares = [at_reference_speed(prepared_s) for _ in range(repeats)]
        imports = [at_reference_speed(cold_import_s) for _ in range(repeats)]
    finally:
        unpin()
    return statistics.median(imports) + statistics.median(prepares)


def run_units(
    workload: str, seed: int, seconds: float, trace: bool
) -> List[Unit]:
    """Cycle through the workload's input sets until ``seconds`` are
    used; a run that has not come back to set 0 by then closes with it,
    so that every run repeats at least one set.

    Traced runs measure each set untraced and then traced, so the
    tracing overhead compares the same inputs.

    Every unit runs pinned to the quietest CPU.  Sweep times are also
    scaled to reference CPU speed: by ``PROBE_REF_S`` over the mean probe
    time on that CPU just before and just after the unit.  Other tenants
    also slow both vCPUs together, by 10-15% for minutes at a time,
    which no choice of CPU and no fastest-of-repeats within one run can
    undo.  Service times are not scaled: a request mostly waits.
    """
    tracer = LayerTracer() if trace else None
    sets = INPUT_SETS[workload]
    units: List[Unit] = []

    def measure(k: int, traced: Optional[LayerTracer]) -> None:
        before = pin_to_quietest_cpu()
        unit = run_unit(workload, seed, k, traced)
        if workload in SWEEPS:
            unit.scale = PROBE_REF_S / statistics.mean((before, probe_s()))
        units.append(unit)

    def slot(k: int) -> None:
        measure(k, None)
        if trace:
            measure(k, tracer)

    start = time.perf_counter()
    done = 0
    while True:
        slot(done % sets)
        done += 1
        elapsed = time.perf_counter() - start
        closing = elapsed / done if done <= sets else 0.0
        if done >= 2 and elapsed * (done + 1) / done + closing > seconds:
            break
    if done <= sets:
        slot(0)
    return units


def fastest_per_set(units: List[Unit]) -> List[Unit]:
    """Each input set's fastest untraced unit, in set order."""
    best: Dict[int, Unit] = {}
    for unit in units:
        if not unit.traced and (
            unit.input_set not in best
            or unit.ref_s < best[unit.input_set].ref_s
        ):
            best[unit.input_set] = unit
    return [best[k] for k in sorted(best)]


def consistency_failures(units: List[Unit]) -> Tuple[int, List[str]]:
    """Operations in units that disagree with the first unit of their
    input set (result digest; work counters for traced units)."""
    failed, notes = 0, []
    first: Dict[Tuple[int, bool], Unit] = {}
    for unit in units:
        same_set = [u for (k, _), u in first.items() if k == unit.input_set]
        if any(u.digest != unit.digest for u in same_set):
            failed += unit.attempted
            notes.append(f"set {unit.input_set}: result digest differs")
        base = first.setdefault((unit.input_set, unit.traced), unit)
        if unit.traced and (base.counters, base.calls) != (
            unit.counters, unit.calls,
        ):
            failed += unit.attempted
            notes.append(f"set {unit.input_set}: work counters differ")
    return failed, notes


def end_to_end(
    workload: str, units: List[Unit], setup_s: float
) -> Dict[str, dict]:
    """End-to-end metrics over the untraced units of a run.

    Throughput is the trials of all input sets over the sum of each
    set's fastest unit.  Latencies take each cell's or fresh request's
    fastest time over its set's runs.  Sweep latencies are per cell:
    averaged over the sets, then the p50/p95 over cells.  Service
    latencies pool the fresh requests of every set.  Sweep times are at
    reference CPU speed (see :func:`run_units`).
    """
    fastest = fastest_per_set(units)
    runs: Dict[int, List[List[float]]] = {}
    for u in units:
        if not u.traced:
            runs.setdefault(u.input_set, []).append(
                [u.scale * x for x in u.latencies_ms]
            )
    # Each cell or request's fastest latency over its set's runs.
    per_set = [[min(c) for c in zip(*r)] for r in runs.values()]
    if workload in SWEEPS:
        latencies = [statistics.mean(cell) for cell in zip(*per_set)]
    else:
        latencies = [x for requests in per_set for x in requests]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "trials_per_s": {
            "value": sum(u.trials for u in fastest)
            / sum(u.ref_s for u in fastest),
            "unit": "1/s",
        },
        "solve_latency_p50_ms": {
            "value": statistics.median(latencies), "unit": "ms",
        },
        "solve_latency_p95_ms": {
            "value": percentile(latencies, 95), "unit": "ms",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


#: Per-layer metric -> layer row whose median self seconds it reports.
SELF_METRICS = {
    "workloads.self_s": "workloads",
    "online.self_s": "online",
    "matching.self_s": "matching",
    "lp.build_s": "lp.build",
    "lp.solve_s": "lp.solve",
    "lp.bound_s": "lp.bound",
    "mrt.self_s": "mrt",
    "art.self_s": "art",
    "verify.self_s": "verify",
    "api.store.get_s": "api.store.get",
    "api.store.put_s": "api.store.put",
    "unattributed.self_s": "unattributed",
}

#: Per-layer work counters, reported for input set 0 of the seed.
COUNT_METRICS = (
    "matching.assignment_calls",
    "matching.hk_calls",
    "lp.builds",
    "lp.solves",
    "lp.rho_probes",
    "lp.rho_infeasible",
    "mrt.rounding_iterations",
    "art.rounding_iterations",
    "verify.violations",
)


def per_layer(units: List[Unit]) -> Tuple[Dict[str, dict], List[str]]:
    """Per-layer metrics of a traced run, plus attribution problems.

    Seconds are medians over the traced units (one per input set);
    counters are those of input set 0, so they repeat exactly per seed.
    """
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    head = traced[0]
    notes = []

    def median_of(get) -> float:
        return statistics.median(get(u) for u in traced)

    def value(v, unit: str) -> dict:
        return {"value": v, "unit": unit}

    metrics = {
        name: value(median_of(lambda u, row=row: u.layer_s.get(row, 0.0)), "s")
        for name, row in SELF_METRICS.items()
    }
    metrics["service.wait_s"] = value(
        median_of(lambda u: u.extra.get("service_wait_s", 0.0)), "s"
    )
    metrics["workloads.calls"] = value(head.calls["workloads"], "count")
    metrics["online.calls"] = value(head.calls["online"], "count")
    for name in COUNT_METRICS:
        metrics[name] = value(head.counters.get(name, 0), "count")
    solves = head.counters.get("lp.solves", 0)
    metrics["lp.cols_mean"] = value(
        head.counters.get("lp.cols_total", 0) / solves if solves else 0.0,
        "count",
    )
    reads = head.counters.get("api.store.reads", 0)
    metrics["api.store.hit_ratio"] = value(
        head.counters.get("api.store.read_hits", 0) / reads if reads else 0.0,
        "ratio",
    )
    metrics["service.rejected"] = value(
        sum(u.extra.get("service_rejected", 0) for u in traced), "count"
    )
    hits = [x for u in plain for x in u.hit_latencies_ms]
    metrics["service.hit_latency_p50_ms"] = value(
        statistics.median(hits) if hits else 0.0, "ms"
    )
    metrics["service.hit_latency_p95_ms"] = value(
        percentile(hits, 95) if hits else 0.0, "ms"
    )
    metrics["traced_wall_s"] = value(median_of(lambda u: u.wall_s), "s")
    # Each set ran untraced and then traced: pair them.
    ratios = [t.ref_s / p.ref_s for p, t in zip(plain, traced)]
    metrics["trace_overhead_pct"] = value(
        100.0 * (statistics.median(ratios) - 1.0), "%"
    )

    def gap(u: Unit) -> float:
        rows = sum(u.layer_s.values()) + u.extra.get("service_wait_s", 0.0)
        return 100.0 * (rows - u.wall_s) / u.wall_s

    worst_gap = max((gap(u) for u in traced), key=abs)
    metrics["attribution_gap_pct"] = value(worst_gap, "%")
    if abs(worst_gap) > 2.0:
        notes.append(f"layer rows miss the wall clock by {worst_gap:.2f}%")
    for u in traced:
        overlap = u.extra.get("attribution_overlap_s", 0.0)
        if overlap > 0.02 * u.wall_s:
            notes.append(f"layer time overlapped a request by {overlap:.4f}s")
    # Cross-check against the program's own LP timer (fig-lp only).
    program = median_of(lambda u: u.extra.get("program_lp_solve_s", 0.0))
    metrics["lp.solve_timer_gap_pct"] = value(
        100.0 * (metrics["lp.solve_s"]["value"] / program - 1.0)
        if program
        else 0.0,
        "%",
    )
    unbound = max(u.extra.get("unbound", 0) for u in traced)
    if unbound:
        notes.append(f"{unbound} by-name bindings escaped the wrappers")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    RUN_DIR.mkdir(exist_ok=True)
    try:
        setup_s = measure_setup(args.workload, args.seed)
        units = run_units(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    attempted = sum(u.attempted for u in units)
    mismatched, notes = consistency_failures(units)
    failed = min(attempted, sum(u.failed for u in units) + mismatched)
    if args.trace:
        metrics, attribution = per_layer(units)
        notes += attribution
    else:
        metrics = end_to_end(args.workload, units, setup_s)
    # Run summary: lets two runs of one seed be compared for identical
    # results and identical work.
    set0 = [u for u in units if u.input_set == 0]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "unit_wall_s": [[u.input_set, round(u.wall_s, 4)] for u in units],
        "set0_digest": set0[0].digest,
        "set0_counters": dict(sorted(set0[-1].counters.items())) or None,
        "notes": notes,
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
