"""The :class:`Runner` facade: sweeps as (cell × trial × solver) items.

Replaces the nested loops of the legacy ``run_sweep``: a sweep is
flattened into independent :class:`WorkItem`\\ s (one per generated
instance), grouped into same-cell :class:`BatchWorkItem`\\ s, each
executed by :func:`run_batch` — a pure function of the batch, so any
order-preserving executor and any batch size yield byte-identical
results — and re-aggregated into the same :class:`~repro.experiments.
harness.CellResult` / :class:`~repro.experiments.harness.SweepResult`
shapes the figure renderers consume.  A one-item batch is the per-trial
mode (``batch_trials=1``).

Because solvers are resolved through the plugin registry, the same
sweep machinery runs online heuristics, offline pipelines, or any
third-party solver registered under :func:`repro.api.registry.
register_solver` — the registry name is the series label.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.executors import Executor, make_executor
from repro.api.registry import get_solver
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import CellResult, SweepResult, format_cell_line
from repro.obs.spans import TraceContext, Tracer, activate, deactivate, new_trace_id
from repro.utils.rng import derive_seed
from repro.core.switch import Switch
from repro.utils.timing import Timer, measure
from repro.workloads.synthetic import poisson_uniform_workload


@dataclass(frozen=True)
class WorkItem:
    """One (cell, trial) unit of sweep work — picklable and self-contained.

    ``cache_dir`` (when set) points at a :class:`repro.api.store.
    ResultStore` directory: the item's solver runs and LP bounds are
    looked up there before any work happens and persisted after.
    ``use_cache=False`` recomputes everything but still refreshes the
    store.

    ``scenario`` (when set) is a :meth:`repro.scenarios.ScenarioSpec.
    to_dict` payload: the trial's instance is generated by the scenario
    registry instead of the paper's Poisson/uniform generator, with the
    seed derived from (config seed, spec digest, trial) — so the cache
    key (the generated instance's content digest) covers the full spec.

    ``verify=True`` routes every solver result through the certificate
    checkers (:mod:`repro.verify`): fresh solves get the full schedule
    feasibility + LP-certificate pass, cache hits get the record-level
    pass, and the trial's LP bounds are certified against every
    augmentation-free solver objective.  Any violation raises
    :class:`repro.verify.VerificationError` (before a fresh result can
    poison the cache).
    """

    arrival_mean: float
    rounds: int
    trial: int
    config: ExperimentConfig
    solvers: Tuple[str, ...]
    want_lp: bool
    cache_dir: Optional[str] = None
    use_cache: bool = True
    scenario: Optional[dict] = None
    verify: bool = False


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one :class:`WorkItem` (inputs echoed for aggregation)."""

    arrival_mean: float
    rounds: int
    trial: int
    num_flows: int
    avg_response: Dict[str, float]
    max_response: Dict[str, float]
    lp_avg: Optional[float]
    lp_max: Optional[float]
    timings: Dict[str, float]
    timing_counts: Dict[str, int]


@dataclass(frozen=True)
class BatchWorkItem:
    """A run of same-cell :class:`WorkItem`\\ s executed as one unit.

    Items share (cell, scenario, solvers, cache settings) and differ
    only in ``trial`` — the shape :func:`plan_batches` produces — so
    :func:`run_batch` can generate every trial's instance (seeds still
    derived per trial) and hand the cache misses to each solver's
    ``solve_batch`` in one call.
    """

    items: Tuple[WorkItem, ...]


def plan_batches(
    items: Sequence[WorkItem],
    trials: int,
    batch_trials: Optional[int] = None,
) -> List[BatchWorkItem]:
    """Group a cell-major item list into per-cell :class:`BatchWorkItem`\\ s.

    ``items`` must be ordered cell-major / trial-minor with exactly
    ``trials`` consecutive items per cell (how :meth:`Runner.run` builds
    them); batches never straddle a cell.  ``batch_trials`` caps the
    batch size (``None``: one batch per cell).
    """
    if batch_trials is not None and batch_trials < 1:
        raise ValueError(f"batch_trials must be >= 1, got {batch_trials}")
    batches = []
    for start in range(0, len(items), trials):
        cell = items[start : start + trials]
        step = batch_trials or len(cell)
        for j in range(0, len(cell), step):
            batches.append(BatchWorkItem(tuple(cell[j : j + step])))
    return batches


#: Pseudo-solver names the LP bounds are stored under in the result store.
LP_AVG_KEY = "lp:art_avg"
LP_MAX_KEY = "lp:mrt_max"


def _spec_salt(spec) -> int:
    """A 60-bit integer salt from a scenario spec's canonical digest, so
    per-trial seeds are a stable function of the spec's *content*."""
    return int(spec.digest()[:15], 16)


def _bound_report(solver: str, lower_bounds: Dict[str, float], params: dict) -> dict:
    """``SolveReport.to_dict()`` payload for a schedule-less LP bound."""
    from repro.api.report import SolveReport

    return SolveReport(
        solver=solver,
        kind="bound",
        metrics=None,
        lower_bounds=lower_bounds,
        params=params,
    ).to_dict()


def _certify_trial_bounds(
    trial_label: str,
    solvers: Sequence[str],
    avg: Dict[str, float],
    mx: Dict[str, float],
    aug: Dict[str, int],
    lp_avg: float,
    lp_max: float,
) -> None:
    """Certify one trial's LP bounds against its solver objectives.

    The certified bounds must sit at or below every *augmentation-free*
    solver's objective (an augmented schedule is not a feasible solution
    of the original problem, so it may legitimately beat the bounds);
    works identically on cache-warm trials because only the stored
    metrics are consulted.  Raises :class:`repro.verify.
    VerificationError` on any inversion.
    """
    from repro.verify import VerificationReport
    from repro.verify.checkers import check_bound_inversion

    verification = VerificationReport(f"lp-bounds@{trial_label}")
    verification.ran("trial-bounds")
    for name in solvers:
        if aug.get(name, 0) != 0:
            continue
        # Per-flow averages on both sides, so the shared inequality
        # applies unchanged.
        check_bound_inversion(
            verification, "cross-bound-total", name,
            "lp_total_response", lp_avg, avg[name],
        )
        check_bound_inversion(
            verification, "cross-bound-max", name,
            "rho_star", lp_max, mx[name],
        )
    verification.raise_if_failed()


def _grid_seed(item: WorkItem) -> int:
    """The single definition of grid-trial seed derivation: (config
    seed, M, T, trial), exactly as the legacy harness did."""
    return derive_seed(
        item.config.seed, int(round(item.arrival_mean * 1000)), item.rounds,
        item.trial,
    )


def _generate_instance(item: WorkItem):
    """Generate one work item's instance with its derived seed.

    Grid trials derive their seed via :func:`_grid_seed`; scenario
    trials from (config seed, spec digest salt, trial).
    """
    config = item.config
    if item.scenario is not None:
        from repro.scenarios import ScenarioSpec, build_instance

        spec = ScenarioSpec.from_dict(item.scenario)
        # Scenario generation is deterministic by contract, so a config
        # without a seed still derives a reproducible per-trial one.
        seed = derive_seed(config.seed or 0, _spec_salt(spec), item.trial)
        with measure("generate"):
            return build_instance(spec, seed=seed)
    with measure("generate"):
        return poisson_uniform_workload(
            config.num_ports, item.arrival_mean, item.rounds,
            seed=_grid_seed(item),
        )


def _generate_batch(items: Sequence[WorkItem]) -> list:
    """Generate a batch's instances, amortizing same-cell grid trials.

    When every item is a grid trial of the same (ports, M, T) cell —
    the shape :func:`run_batch` receives from the sweep partitioner —
    the whole cell shares one validated switch and each trial runs
    through the single-RNG-block array path of
    :func:`~repro.workloads.synthetic.poisson_uniform_workload_batch`.
    Seeds still derive per trial via :func:`_grid_seed`, so instances
    (flows, fids, digests) are byte-identical to per-item
    :func:`_generate_instance` calls.

    Timer events: the cell is wrapped in ``batch_generate`` for phase
    attribution, while each trial still records its own ``generate``
    event — one per trial, batched or not.
    """
    head = items[0]
    uniform_grid = all(it.scenario is None for it in items) and all(
        it.config.num_ports == head.config.num_ports
        and it.arrival_mean == head.arrival_mean
        and it.rounds == head.rounds
        for it in items
    )
    if not uniform_grid:
        return [_generate_instance(item) for item in items]
    from repro.workloads.synthetic import _poisson_uniform_on

    m = head.config.num_ports
    with measure("batch_generate"):
        switch = Switch.create(m, m, 1)
        instances = []
        for item in items:
            with measure("generate"):
                instances.append(
                    _poisson_uniform_on(
                        switch, item.arrival_mean, item.rounds,
                        _grid_seed(item), 1,
                    )
                )
    return instances


def run_batch(batch: BatchWorkItem) -> List[TrialResult]:
    """Execute a same-cell batch of work items: generate, solve, bound.

    All trials' instances are generated first — through the amortized
    same-cell path of :func:`_generate_batch`; the instance seed derives
    from (config seed, M, T, trial) exactly as the legacy harness did,
    so sweeps reproduce the seed repo's numbers.  Then, for each solver,
    the cache misses are solved through the solver's ``solve_batch`` —
    one merged structure-of-arrays simulation for the batchable online
    policies, a per-trial loop otherwise — and the fresh records are
    persisted with **one** shard append
    (:meth:`~repro.api.store.ResultStore.put_many`).  LP bounds and
    ``verify`` certification run per trial.

    With ``cache_dir`` set, each solver run and each LP bound is first
    looked up in the on-disk result store by ``(solver, instance
    digest, params)`` and only computed — then persisted — on a miss.
    Instance generation always runs (the digest *is* the cache key), so
    a cache-warm trial costs one workload draw and zero solves, and the
    stored values round-trip through JSON exactly: a resumed sweep is
    byte-identical to an uninterrupted one.

    Interrupt safety: any in-flight exception (including the
    ``KeyboardInterrupt`` behind :class:`~repro.api.executors.
    SweepInterrupted`) flushes every record completed so far before
    propagating, so a killed sweep resumes from its finished trials.

    Equivalence contract: each returned :class:`TrialResult` is the
    same whatever the batch size (a one-item batch is the per-trial
    mode) except ``timings``/``timing_counts``, which cover the whole
    batch and are attached to the first result only (so aggregation
    totals stay correct without double counting).
    """
    items = batch.items
    head = items[0]
    n = len(items)
    timer = Timer()
    with timer.recording():
        instances = _generate_batch(items)
        store = None
        if head.cache_dir is not None and any(
            inst.num_flows > 0 for inst in instances
        ):
            from repro.api.store import open_store

            store = open_store(head.cache_dir, read=head.use_cache)
        digests = [
            inst.digest() if store is not None and inst.num_flows > 0 else ""
            for inst in instances
        ]
        labels = [
            f"M={item.arrival_mean} T={item.rounds} trial={item.trial}"
            for item in items
        ]
        live = [k for k in range(n) if instances[k].num_flows > 0]
        avg: List[Dict[str, float]] = [{} for _ in range(n)]
        mx: List[Dict[str, float]] = [{} for _ in range(n)]
        aug: List[Dict[str, int]] = [{} for _ in range(n)]
        lp_avg: List[Optional[float]] = [None] * n
        lp_max: List[Optional[float]] = [None] * n
        pending: List[tuple] = []

        def reject_infeasible(name: str, k: int) -> None:
            item = items[k]
            raise ValueError(
                f"solver {name!r} returned an infeasible report "
                f"(metrics=None) for sweep cell M={item.arrival_mean} "
                f"T={item.rounds} trial={item.trial}; sweeps require "
                "solvers that always produce a schedule"
            )

        try:
            for name in head.solvers:
                records: Dict[int, dict] = {}
                if store is not None:
                    for k in live:
                        cached = store.get(name, digests[k], {})
                        if cached is not None:
                            records[k] = cached
                missing = [k for k in live if k not in records]
                if missing:
                    solver = get_solver(name)
                    # ``solve_batch`` is an optional extension of the Solver
                    # protocol; third-party solvers exposing only ``solve``
                    # run per trial with identical results.
                    batch_solve = getattr(solver, "solve_batch", None)
                    if batch_solve is not None:
                        with measure(f"simulate:{name}"):
                            reports = batch_solve(
                                [instances[k] for k in missing]
                            )
                        pairs = zip(missing, reports)
                    else:

                        def solve_each(solver=solver, name=name):
                            for k in missing:
                                with measure(f"simulate:{name}"):
                                    yield k, solver.solve(instances[k])

                        pairs = solve_each()
                    # Each report is recorded as soon as it exists, so an
                    # interrupt mid-loop still flushes the completed trials.
                    for k, report in pairs:
                        if report.metrics is None:
                            reject_infeasible(name, k)
                        if head.verify:
                            from repro.verify import certify_solve

                            certify_solve(
                                report, instances[k],
                                subject=f"{name}@{labels[k]}",
                            ).raise_if_failed()
                        record = report.to_stored_dict()
                        if store is not None:
                            pending.append((name, digests[k], {}, record))
                        records[k] = record
                for k in live:
                    record = records[k]
                    metrics = record["metrics"]
                    if metrics is None:  # a poisoned record from an old store
                        reject_infeasible(name, k)
                    if head.verify and k not in missing:
                        from repro.verify import check_record

                        check_record(
                            record, subject=f"{name}@{labels[k]}"
                        ).raise_if_failed()
                    avg[k][name] = metrics["average_response"]
                    mx[k][name] = float(metrics["max_response"])
                    aug[k][name] = int(metrics["max_augmentation"])

            if any(item.want_lp for item in items):
                from repro.lp.bounds import art_lower_bound, mrt_lower_bound

                for k in live:
                    item = items[k]
                    if not item.want_lp:
                        continue
                    instance = instances[k]
                    horizon = instance.compact_horizon_bound()
                    avg_params = {"horizon": horizon}
                    record = (
                        store.get(LP_AVG_KEY, digests[k], avg_params)
                        if store is not None
                        else None
                    )
                    if record is None:
                        with measure("lp_avg_bound"):
                            total = art_lower_bound(instance, horizon=horizon)
                        record = _bound_report(
                            LP_AVG_KEY,
                            {"lp_total_response": float(total)},
                            avg_params,
                        )
                        if store is not None:
                            pending.append(
                                (LP_AVG_KEY, digests[k], avg_params, record)
                            )
                    lp_avg[k] = (
                        record["lower_bounds"]["lp_total_response"]
                        / instance.num_flows
                    )
                    record = (
                        store.get(LP_MAX_KEY, digests[k], {})
                        if store is not None
                        else None
                    )
                    if record is None:
                        with measure("lp_max_bound"):
                            rho = float(mrt_lower_bound(instance))
                        record = _bound_report(
                            LP_MAX_KEY, {"rho_star": rho}, {}
                        )
                        if store is not None:
                            pending.append(
                                (LP_MAX_KEY, digests[k], {}, record)
                            )
                    lp_max[k] = float(record["lower_bounds"]["rho_star"])
                    if item.verify:
                        _certify_trial_bounds(
                            labels[k], item.solvers, avg[k], mx[k], aug[k],
                            lp_avg[k], lp_max[k],
                        )
        except BaseException:
            # Flush every completed trial's records before the interrupt (or
            # error) propagates — the SweepInterrupted promise for batches.
            if store is not None and pending:
                store.put_many(pending)
            raise
        if store is not None and pending:
            store.put_many(pending)
    return [
        TrialResult(
            arrival_mean=items[k].arrival_mean,
            rounds=items[k].rounds,
            trial=items[k].trial,
            num_flows=instances[k].num_flows,
            avg_response=avg[k],
            max_response=mx[k],
            lp_avg=lp_avg[k],
            lp_max=lp_max[k],
            timings=dict(timer.totals) if k == 0 else {},
            timing_counts=dict(timer.counts) if k == 0 else {},
        )
        for k in range(n)
    ]


def _flatten(outcome_lists):
    """Yield each batch's trial results in order.

    A generator (not itertools.chain) so that ``close()`` — the
    Runner's early-exit cleanup — deterministically propagates into the
    suspended executor ``imap`` and releases its pool.
    """
    try:
        for results in outcome_lists:
            yield from results
    finally:
        close = getattr(outcome_lists, "close", None)
        if close is not None:
            close()


def _trace_branch(batch: BatchWorkItem) -> str:
    """The deterministic span-ID path segment for one batch.

    The head trial encodes its cell coordinates (``M8-T40-t3``) or, for
    a scenario trial, the spec's content digest (``s1a2b3c4d-T40-t3``),
    followed by the batch width (``...-b32``) — a pure function of the
    batch, so the span tree is byte-identical across executors.
    """
    head = batch.items[0]
    if head.scenario is not None:
        digest = hashlib.sha256(
            json.dumps(head.scenario, sort_keys=True).encode("utf-8")
        ).hexdigest()[:8]
        branch = f"s{digest}-T{head.rounds}-t{head.trial}"
    else:
        branch = f"M{head.arrival_mean:g}-T{head.rounds}-t{head.trial}"
    return f"{branch}-b{len(batch.items)}"


class _TracedCall:
    """Picklable wrapper running :func:`run_batch` inside its own span.

    This is the cross-process propagation mechanism: ``ctx`` (the
    parent's :class:`~repro.obs.spans.TraceContext`) ships with the
    callable into the executor; on the other side a fresh in-memory
    tracer resumes that context, opens a ``batch`` span whose ID is
    grafted at the deterministic :func:`_trace_branch` segment, and
    runs the batch with the tracer ambient — so every
    :func:`~repro.utils.timing.measure` phase inside becomes a child
    span.  The collected span records return alongside the result for
    the parent to absorb into its sink (:func:`_absorb`).
    """

    def __init__(self, ctx: TraceContext):
        self.ctx = ctx

    def __call__(self, batch: BatchWorkItem):
        tracer = Tracer(trace_id=self.ctx.trace_id)
        prev = activate(tracer)
        try:
            with tracer.resume(self.ctx):
                with tracer.span("batch", id_suffix=_trace_branch(batch)):
                    result = run_batch(batch)
        finally:
            deactivate(prev)
        return result, tracer.drain()


def _absorb(outcomes, tracer: Tracer):
    """Unwrap ``(result, spans)`` pairs from :class:`_TracedCall`,
    folding the spans into ``tracer`` in arrival (item) order —
    deterministic because both executors preserve input order.
    Propagates ``close()`` like :func:`_flatten`.
    """
    try:
        for result, spans in outcomes:
            tracer.absorb(spans)
            yield result
    finally:
        close = getattr(outcomes, "close", None)
        if close is not None:
            close()


def aggregate_cell(
    arrival_mean: float,
    rounds: int,
    trials: int,
    solvers: Sequence[str],
    results: Sequence[TrialResult],
) -> CellResult:
    """Fold per-trial results into one :class:`CellResult`.

    Trials are folded in trial order and zero-flow instances skipped,
    mirroring the legacy aggregation bit for bit.
    """
    avg_samples: Dict[str, List[float]] = {p: [] for p in solvers}
    max_samples: Dict[str, List[float]] = {p: [] for p in solvers}
    lp_avg_samples: List[float] = []
    lp_max_samples: List[float] = []
    flow_counts: List[float] = []
    for tr in sorted(results, key=lambda r: r.trial):
        if tr.num_flows == 0:
            continue
        flow_counts.append(float(tr.num_flows))
        for p in solvers:
            avg_samples[p].append(tr.avg_response[p])
            max_samples[p].append(tr.max_response[p])
        if tr.lp_avg is not None:
            lp_avg_samples.append(tr.lp_avg)
        if tr.lp_max is not None:
            lp_max_samples.append(tr.lp_max)

    def mean_of(samples: List[float]) -> float:
        return float(np.mean(samples)) if samples else 0.0

    def std_of(samples: List[float]) -> float:
        return float(np.std(samples)) if samples else 0.0

    return CellResult(
        arrival_mean=arrival_mean,
        rounds=rounds,
        trials=trials,
        num_flows_mean=mean_of(flow_counts),
        avg_response={p: mean_of(avg_samples[p]) for p in solvers},
        max_response={p: mean_of(max_samples[p]) for p in solvers},
        avg_response_std={p: std_of(avg_samples[p]) for p in solvers},
        max_response_std={p: std_of(max_samples[p]) for p in solvers},
        lp_avg_bound=mean_of(lp_avg_samples) if lp_avg_samples else None,
        lp_max_bound=mean_of(lp_max_samples) if lp_max_samples else None,
    )


class Runner:
    """Execution facade: solvers × workloads through a pluggable executor.

    Parameters
    ----------
    config:
        The sweep configuration (grid, trials, seed, LP limit).
    executor:
        ``"serial"`` (default), ``"multiprocessing"``, or any object with
        an order-preserving ``map(fn, items)``.
    jobs:
        Worker count; ``jobs > 1`` upgrades the default executor to a
        multiprocessing pool.
    compute_lp_bounds:
        Also compute the LP lower bounds for cells within
        ``config.lp_round_limit``.
    cache_dir:
        Directory of a content-addressed result store (see
        :mod:`repro.api.store`).  Finished solver runs and LP bounds are
        persisted there per (cell, trial), so an interrupted sweep
        resumes where it stopped and repeated sweeps are served from
        disk — across processes.  ``None`` (default) disables
        persistence.
    resume:
        With a ``cache_dir``: read previously stored results (default).
        ``False`` recomputes everything while still refreshing the store
        (the CLI's ``--no-cache``).
    verify:
        Certify every trial through :mod:`repro.verify`: fresh solver
        runs get the full schedule + LP-certificate pass, cache hits the
        record-level pass, and each trial's LP bounds are certified
        against its augmentation-free solver objectives.  A violation
        raises :class:`repro.verify.VerificationError` instead of
        aggregating a bad cell.
    batch_trials:
        Cap on the trials grouped into one :class:`BatchWorkItem`
        (``None``, the default, batches each cell whole; ``1`` runs one
        trial at a time).  Every batch runs through :func:`run_batch`:
        one merged structure-of-arrays simulation per (batch, solver)
        and one shard append per batch, with results identical for
        every batch size.
    trace:
        Observability: a path to a JSONL span log (the CLI's ``--trace
        FILE``), or an existing :class:`repro.obs.spans.Tracer` to emit
        into.  The sweep runs under a root ``sweep`` span, every work
        item under a ``trial``/``batch`` span with deterministic IDs
        (identical across executors), and every
        :func:`~repro.utils.timing.measure` phase becomes a child span —
        all durations also land in the shared
        :mod:`repro.obs.metrics` registry.  ``None`` (default) traces
        nothing.  The trace ID is derived from the sweep configuration
        and solver names, so fixed-seed sweeps produce byte-stable logs
        (timestamps aside).

    Example
    -------
    >>> from repro.experiments.config import smoke_config
    >>> sweep = Runner(smoke_config()).run(solvers=["MaxWeight", "FIFO"])
    >>> sorted(next(iter(sweep.cells.values())).avg_response)
    ['FIFO', 'MaxWeight']
    """

    def __init__(
        self,
        config: ExperimentConfig,
        executor: "str | Executor" = "serial",
        jobs: Optional[int] = None,
        compute_lp_bounds: bool = True,
        cache_dir: "Optional[str]" = None,
        resume: bool = True,
        verify: bool = False,
        batch_trials: Optional[int] = None,
        trace: "Optional[str | Tracer]" = None,
    ):
        self.config = config
        self.executor = make_executor(executor, jobs=jobs)
        self.compute_lp_bounds = compute_lp_bounds
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.resume = resume
        self.verify = verify
        if batch_trials is not None and batch_trials < 1:
            raise ValueError(f"batch_trials must be >= 1, got {batch_trials}")
        self.batch_trials = batch_trials
        self.trace = trace

    def _open_trace(self, kind: str, names: Sequence[str]):
        """``(tracer, owned)`` for this run: ``(None, False)`` when
        tracing is off, otherwise a tracer emitting into the configured
        sink and the shared metrics registry.  ``owned`` says whether
        the run must ``finish()`` the tracer (it created the sink)."""
        if self.trace is None:
            return None, False
        from repro.obs.metrics import get_registry

        if isinstance(self.trace, Tracer):
            return self.trace, False
        from repro.obs.export import JsonlSink

        label = f"{kind}:{self.config!r}:{','.join(names)}"
        tracer = Tracer(
            trace_id=new_trace_id(label),
            sink=JsonlSink(str(self.trace)),
            metrics=get_registry(),
        )
        return tracer, True

    def _stream_outcomes(
        self, items: List[WorkItem], tracer: Optional[Tracer] = None
    ):
        """An iterator of :class:`TrialResult`\\ s in item order.

        Items are grouped into per-cell :class:`BatchWorkItem`\\ s and
        the executor schedules each batch as one unit (so a
        multiprocessing sweep ships whole cells to workers).

        With a ``tracer``, the work function is wrapped in
        :class:`_TracedCall` (each batch runs under its own span, nested
        under the caller's open sweep span even across process
        boundaries) and the returned spans are folded back in batch
        order.
        """
        fn = run_batch if tracer is None else _TracedCall(tracer.context())
        work = plan_batches(items, self.config.trials, self.batch_trials)
        if hasattr(self.executor, "imap"):
            outcomes = self.executor.imap(fn, work)
        else:
            outcomes = iter(self.executor.map(fn, work))
        if tracer is not None:
            outcomes = _absorb(outcomes, tracer)
        return _flatten(outcomes)

    def _run_cells(
        self,
        items: List[WorkItem],
        cells: Sequence[Tuple[float, int]],
        names: Tuple[str, ...],
        trace: Tuple[str, Sequence[str], dict],
        finish: Callable[[int, CellResult, List[TrialResult]], None],
    ) -> None:
        """Run a sweep's items and aggregate them cell by cell.

        ``items`` hold ``config.trials`` consecutive trials per cell, in
        ``cells`` order (each an ``(arrival_mean, rounds)`` pair);
        ``finish(index, cell, trials)`` receives each aggregated
        :class:`CellResult` with its trial results as soon as the cell's
        last trial arrives, so verbose lines and ``on_cell`` fire
        incrementally even on multi-hour sweeps.  ``trace`` is the
        ``(kind, names, attrs)`` of the root ``sweep`` span.
        """
        trials = self.config.trials
        if trials == 0:  # degenerate config: empty cells, no items
            for index, (mean, rounds) in enumerate(cells):
                finish(index, aggregate_cell(mean, rounds, 0, names, []), [])
            return
        kind, trace_names, attrs = trace
        tracer, owned = self._open_trace(kind, trace_names)
        prev = activate(tracer) if tracer is not None else None
        sweep_span = (
            tracer.open("sweep", attrs=attrs) if tracer is not None else None
        )
        try:
            outcomes = self._stream_outcomes(items, tracer)
            chunk: List[TrialResult] = []
            index = 0
            try:
                for tr in outcomes:
                    chunk.append(tr)
                    if len(chunk) < trials:
                        continue
                    mean, rounds = cells[index]
                    cell = aggregate_cell(mean, rounds, trials, names, chunk)
                    finish(index, cell, chunk)
                    index += 1
                    chunk = []
            finally:
                # Deterministically release the executor's resources
                # (e.g. the multiprocessing pool held open inside a
                # suspended imap generator) if iteration stops early.
                close = getattr(outcomes, "close", None)
                if close is not None:
                    close()
        finally:
            if tracer is not None:
                tracer.close(sweep_span)
                deactivate(prev)
                if owned:
                    tracer.finish()

    def cell_grid(
        self,
        workloads: Optional[Iterable[Tuple[float, int]]] = None,
    ) -> List[Tuple[float, int]]:
        """The (M, T) cells to run: ``workloads`` or the config grid."""
        if workloads is not None:
            return [(float(m), int(t)) for m, t in workloads]
        return [
            (mean, rounds)
            for mean in self.config.arrival_means()
            for rounds in self.config.generation_rounds
        ]

    def run(
        self,
        solvers: Optional[Sequence[str]] = None,
        workloads: Optional[Iterable[Tuple[float, int]]] = None,
        verbose: bool = False,
        on_cell: Optional[Callable[[CellResult], None]] = None,
    ) -> SweepResult:
        """Run ``solvers`` over every (cell, trial) and aggregate.

        ``solvers`` defaults to ``config.policies``; ``workloads`` to the
        config's full (M, T) grid.  ``on_cell`` streams each
        :class:`CellResult` as soon as its trials complete.
        """
        config = self.config
        names = tuple(solvers) if solvers is not None else tuple(config.policies)
        for name in names:  # fail fast on unknown solver names
            get_solver(name)
        cells = self.cell_grid(workloads)
        items = [
            WorkItem(
                arrival_mean=mean,
                rounds=rounds,
                trial=trial,
                config=config,
                solvers=names,
                want_lp=(
                    self.compute_lp_bounds and rounds <= config.lp_round_limit
                ),
                cache_dir=self.cache_dir,
                use_cache=self.resume,
                verify=self.verify,
            )
            for (mean, rounds) in cells
            for trial in range(config.trials)
        ]
        result = SweepResult(config)

        def finish(index: int, cell: CellResult, trials) -> None:
            result.cells[cells[index]] = cell
            for done in trials:
                result.timer.merge(done.timings, done.timing_counts)
            if on_cell is not None:
                on_cell(cell)
            if verbose:  # pragma: no cover - console output
                print(format_cell_line(cell, names))

        attrs = {
            "solvers": list(names),
            "cells": len(cells),
            "trials": config.trials,
        }
        self._run_cells(items, cells, names, ("sweep", names, attrs), finish)
        return result

    def run_scenarios(
        self,
        scenarios: Sequence,
        solvers: Optional[Sequence[str]] = None,
        verbose: bool = False,
        on_cell: Optional[Callable[[CellResult], None]] = None,
    ) -> Dict[str, CellResult]:
        """Sweep ``solvers`` over declarative scenarios instead of the
        (M, T) grid.

        Each entry of ``scenarios`` is a :class:`repro.scenarios.
        ScenarioSpec` or its compact text form (``"hotspot:ports=32,
        mean=48"``); every spec gets ``config.trials`` trials with seeds
        derived from (config seed, spec digest, trial), runs through the
        same cached :func:`run_batch` machinery as the grid sweep (so
        ``cache_dir``/``resume`` work unchanged), and aggregates into
        one :class:`CellResult` keyed by the spec's label.  Specs must
        resolve to a bounded horizon (the offline/simulated solvers need
        a materialized instance; use :func:`repro.online.simulator.
        simulate_stream` directly for unbounded runs).
        """
        from repro.experiments.harness import format_scenario_line
        from repro.scenarios import build_stream, get_scenario, parse_scenario

        config = self.config
        names = tuple(solvers) if solvers is not None else tuple(config.policies)
        for name in names:  # fail fast on unknown solver names
            get_solver(name)
        specs = []
        seen_labels = set()
        for item in scenarios:
            spec = parse_scenario(item) if isinstance(item, str) else item
            label = spec.label()
            if label in seen_labels:
                raise ValueError(
                    f"duplicate scenario {label!r} in sweep; results are "
                    "keyed by label, so a repeat would silently overwrite "
                    "the first run"
                )
            seen_labels.add(label)
            _, _, horizon = get_scenario(spec.scenario).resolve(spec)
            if horizon is None:
                # No declared horizon, but the source itself may bound
                # the stream (trace replay: rounds = last release + 1).
                horizon = build_stream(spec, seed=0).rounds
            if horizon is None:
                raise ValueError(
                    f"scenario {spec.label()!r} is unbounded; set "
                    "horizon= to sweep it"
                )
            specs.append((spec, horizon))

        items = [
            WorkItem(
                arrival_mean=0.0,
                rounds=horizon,
                trial=trial,
                config=config,
                solvers=names,
                want_lp=(
                    self.compute_lp_bounds
                    and horizon <= config.lp_round_limit
                ),
                cache_dir=self.cache_dir,
                use_cache=self.resume,
                scenario=spec.to_dict(),
                verify=self.verify,
            )
            for (spec, horizon) in specs
            for trial in range(config.trials)
        ]
        result: Dict[str, CellResult] = {}
        labels = [spec.label() for spec, _ in specs]

        def finish(index: int, cell: CellResult, trials) -> None:
            result[labels[index]] = cell
            if on_cell is not None:
                on_cell(cell)
            if verbose:  # pragma: no cover - console output
                print(format_scenario_line(labels[index], cell, names))

        attrs = {
            "solvers": list(names),
            "scenarios": labels,
            "trials": config.trials,
        }
        self._run_cells(
            items,
            [(0.0, horizon) for _, horizon in specs],
            names,
            ("scenarios", labels + list(names), attrs),
            finish,
        )
        return result
