"""The sweep runner behind Figures 6 and 7.

Mirrors the paper's methodology: for each (M, T) cell, ``trials``
independent Poisson/uniform instances are generated; each heuristic is
simulated on the *same* instances; results are averaged over trials.
For cells with ``T <= lp_round_limit`` the LP lower bounds are computed
on the same instances: LP (1)–(4) for average response (Figure 6) and
the binary-searched LP (19)–(21) for max response (Figure 7).

Execution is delegated to :class:`repro.api.runner.Runner`, which
flattens the sweep into (cell, trial) work items, runs each solver from
the plugin registry on them, and re-aggregates — so ``run_sweep`` gains
parallel execution (``jobs > 1``) while producing byte-identical
results to the serial legacy loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.utils.timing import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import Tracer


@dataclass(frozen=True)
class CellResult:
    """Aggregated results of one (M, T) cell.

    ``avg_response[solver]`` / ``max_response[solver]`` are means over
    trials; the LP fields are ``None`` when the cell exceeded the LP
    round limit.
    """

    arrival_mean: float
    rounds: int
    trials: int
    num_flows_mean: float
    avg_response: Dict[str, float]
    max_response: Dict[str, float]
    avg_response_std: Dict[str, float]
    max_response_std: Dict[str, float]
    lp_avg_bound: Optional[float] = None
    lp_max_bound: Optional[float] = None


@dataclass
class SweepResult:
    """All cells of a sweep plus the configuration and phase timings."""

    config: ExperimentConfig
    cells: Dict[Tuple[float, int], CellResult] = field(default_factory=dict)
    timer: Timer = field(default_factory=Timer)

    def cell(self, arrival_mean: float, rounds: int) -> CellResult:
        """Cell lookup by (M, T)."""
        return self.cells[(arrival_mean, rounds)]


def format_bound(value: Optional[float], precision: int) -> str:
    """Render an LP bound for console output (``-`` only when absent).

    A computed bound of exactly ``0.0`` is a real value and is printed
    as such — only ``None`` (bound not computed) renders as ``-``.
    """
    if value is None:
        return "-"
    return f"{value:.{precision}f}"


def format_cell_line(cell: CellResult, solvers: Sequence[str]) -> str:
    """One verbose progress line per cell (legacy console format)."""
    lp6 = format_bound(cell.lp_avg_bound, 2)
    lp7 = format_bound(cell.lp_max_bound, 1)
    return (
        f"M={cell.arrival_mean:7.2f} T={cell.rounds:3d}  "
        + "  ".join(
            f"{p}:avg={cell.avg_response[p]:.2f}/max="
            f"{cell.max_response[p]:.1f}"
            for p in solvers
        )
        + f"  LPavg={lp6} LPmax={lp7}"
    )


def format_scenario_line(
    label: str, cell: CellResult, solvers: Sequence[str]
) -> str:
    """One verbose progress line per scenario cell."""
    lp6 = format_bound(cell.lp_avg_bound, 2)
    lp7 = format_bound(cell.lp_max_bound, 1)
    return (
        f"{label:<40s}  "
        + "  ".join(
            f"{p}:avg={cell.avg_response[p]:.2f}/max="
            f"{cell.max_response[p]:.1f}"
            for p in solvers
        )
        + f"  LPavg={lp6} LPmax={lp7}"
    )


def run_scenario_sweep(
    config: ExperimentConfig,
    scenarios: Sequence,
    solvers: Optional[Sequence[str]] = None,
    compute_lp_bounds: bool = True,
    verbose: bool = False,
    executor: str = "serial",
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = True,
    batch_trials: Optional[int] = None,
    trace: "Optional[str | Tracer]" = None,
) -> Dict[str, CellResult]:
    """Sweep solvers over declarative *scenarios* instead of (M, T) cells.

    The scenario-registry counterpart of :func:`run_sweep`: every entry
    of ``scenarios`` (a :class:`repro.scenarios.ScenarioSpec` or its
    compact ``"name:k=v,..."`` text form) becomes one aggregated
    :class:`CellResult` over ``config.trials`` trials, keyed by the
    spec's label.  Execution, parallelism, result caching, trial
    batching, and span tracing (``trace=<file>.jsonl``) all reuse
    :meth:`repro.api.runner.Runner.run_scenarios`.
    """
    from repro.api.runner import Runner

    return Runner(
        config,
        executor=executor,
        jobs=jobs,
        compute_lp_bounds=compute_lp_bounds,
        cache_dir=cache_dir,
        resume=resume,
        batch_trials=batch_trials,
        trace=trace,
    ).run_scenarios(scenarios, solvers=solvers, verbose=verbose)


def run_sweep(
    config: ExperimentConfig,
    compute_lp_bounds: bool = True,
    verbose: bool = False,
    executor: str = "serial",
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = True,
    verify: bool = False,
    batch_trials: Optional[int] = None,
    trace: "Optional[str | Tracer]" = None,
) -> SweepResult:
    """Run the full Figure 6/7 sweep for ``config``.

    Parameters
    ----------
    config:
        The sweep grid, trial count, seed, and policy list.
    compute_lp_bounds:
        Also compute LP bounds for cells within ``config.lp_round_limit``.
    verbose:
        Print one progress line per finished cell.
    executor / jobs:
        Execution backend (see :mod:`repro.api.executors`); ``jobs > 1``
        runs trials in parallel with byte-identical results.
    cache_dir / resume:
        Persist per-trial solver runs and LP bounds to a content-addressed
        on-disk store so interrupted sweeps resume and repeated sweeps are
        served from disk; ``resume=False`` recomputes but still refreshes
        the store (see :class:`repro.api.runner.Runner`).
    verify:
        Certify every trial through the :mod:`repro.verify` checkers
        (see :class:`repro.api.runner.Runner`).
    batch_trials:
        Cap on the trials per structure-of-arrays batch (see
        :class:`repro.api.runner.Runner`): ``None`` batches each cell
        whole, ``1`` runs one trial at a time; results are identical
        either way.
    trace:
        Write a JSONL span log of the sweep to this path (see
        :mod:`repro.obs`); phase durations also feed the shared metrics
        registry.  A pre-built :class:`repro.obs.Tracer` is accepted in
        place of a path (spans go to its sink, or stay in memory).
    """
    from repro.api.runner import Runner

    return Runner(
        config,
        executor=executor,
        jobs=jobs,
        compute_lp_bounds=compute_lp_bounds,
        cache_dir=cache_dir,
        resume=resume,
        verify=verify,
        batch_trials=batch_trials,
        trace=trace,
    ).run(verbose=verbose)
