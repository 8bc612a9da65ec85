"""Unified solver API: one protocol, one registry, one runner.

The three pieces (see the module docstrings for details):

* :class:`~repro.api.protocol.Solver` /
  :class:`~repro.api.report.SolveReport` — every algorithm solves an
  instance and reports through one schema;
* :func:`~repro.api.registry.register_solver` /
  :func:`~repro.api.registry.get_solver` /
  :func:`~repro.api.registry.list_solvers` — decorator-based plugin
  registry, pre-populated with adapters for the whole library;
* :class:`~repro.api.runner.Runner` — executes (cell × trial × solver)
  sweeps through pluggable serial / multiprocessing executors with
  per-item derived seeds, so results are byte-identical across backends.

Quick start
-----------
>>> from repro.api import get_solver, list_solvers
>>> from repro.workloads import poisson_uniform_workload
>>> inst = poisson_uniform_workload(8, 4.0, 4, seed=0)
>>> report = get_solver("MaxWeight").solve(inst)
>>> report.kind
'online'
>>> "FS-ART" in list_solvers("offline")
True
"""

from repro.api.executors import (
    EXECUTOR_NAMES,
    Executor,
    MultiprocessingExecutor,
    SerialExecutor,
    SweepInterrupted,
    make_executor,
)
from repro.api.protocol import SOLVER_KINDS, Solver
from repro.api.registry import (
    get_solver,
    list_solvers,
    register_solver,
    unregister_solver,
)
from repro.api.report import SolveReport
from repro.api.runner import (
    BatchWorkItem,
    Runner,
    TrialResult,
    WorkItem,
    plan_batches,
    run_batch,
)
from repro.api.store import ResultStore, open_store

# Importing the adapters registers every builtin.  Eager on purpose:
# any path to the registry imports this package first, so builtins are
# always present before user code can register or look up a solver,
# and Python's import lock provides the thread safety a lazy loader
# would need its own (deadlock-prone) lock for.
from repro.api import adapters as _adapters  # noqa: F401  (side effect)

__all__ = [
    "Solver",
    "SolveReport",
    "SOLVER_KINDS",
    "register_solver",
    "unregister_solver",
    "get_solver",
    "list_solvers",
    "Runner",
    "WorkItem",
    "BatchWorkItem",
    "TrialResult",
    "run_batch",
    "plan_batches",
    "ResultStore",
    "open_store",
    "Executor",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "SweepInterrupted",
    "make_executor",
    "EXECUTOR_NAMES",
]
