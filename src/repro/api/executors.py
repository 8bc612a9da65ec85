"""Pluggable work-item executors for the :class:`~repro.api.runner.Runner`.

Executors provide one operation — ``map(fn, items)`` — with the contract
that the returned list is **ordered like the input** and every element
is ``fn(item)``.  Because the Runner derives a seed per item, results
are byte-identical regardless of backend; the executor only changes
wall-clock time.

``SerialExecutor`` runs in-process (zero overhead, easiest debugging);
``MultiprocessingExecutor`` fans items out over a process pool in
chunks — the first real speed lever for the Figure 6/7 sweeps, which
are embarrassingly parallel over (cell, trial) work items.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
)

from repro.utils.validation import check_positive_int


class SweepInterrupted(KeyboardInterrupt):
    """A sweep was interrupted mid-flight, with partial results flushed.

    Raised by :class:`MultiprocessingExecutor` in place of a bare
    ``KeyboardInterrupt`` after every open result-store shard — the
    workers' and the parent's — has been flushed and closed, so the
    message it carries is true: completed work items survive on disk
    and a rerun against the same ``--cache-dir`` resumes from them.
    Subclasses ``KeyboardInterrupt`` so existing Ctrl-C handling
    (shells, test harnesses, ``except KeyboardInterrupt``) sees exactly
    the exception it expects.
    """


class _WorkerInterrupted(Exception):
    """Picklable stand-in for a ``KeyboardInterrupt`` inside a pool worker.

    ``multiprocessing.Pool`` workers only ship ``Exception`` results back
    to the parent; a raw ``KeyboardInterrupt`` (``BaseException``) kills
    the worker's task loop instead, the item's result is never delivered,
    and the parent's ``map`` blocks forever — the interrupt is silently
    swallowed.  Wrapping it as a regular ``Exception`` makes the pool
    propagate it like any task failure.
    """


class _InterruptSafe:
    """Wraps the mapped function so worker-side interrupts surface cleanly.

    On ``KeyboardInterrupt`` (a terminal Ctrl-C is delivered to the whole
    process group, so workers race the parent to it) the worker first
    flushes and closes its open result-store shards — no half-buffered
    records are lost with the process — then raises
    :class:`_WorkerInterrupted` for the parent to convert back.
    """

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __call__(self, item):
        try:
            return self.fn(item)
        except KeyboardInterrupt:
            from repro.api.store import close_open_stores

            close_open_stores()
            raise _WorkerInterrupted()


def _interrupted(cause: BaseException) -> SweepInterrupted:
    """Flush the parent's stores and build the partial-results interrupt."""
    from repro.api.store import close_open_stores

    close_open_stores()
    exc = SweepInterrupted(
        "sweep interrupted — completed work items were flushed to their "
        "result-store shards; rerun with the same --cache-dir to resume"
    )
    exc.__cause__ = cause
    return exc


class Executor(Protocol):
    """Order-preserving ``map``/``imap`` over work items."""

    name: str

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order."""
        ...

    def imap(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[Any]:
        """Like ``map`` but yields results as they become available
        (still in input order), so callers can stream progress."""
        ...


class SerialExecutor:
    """In-process, single-threaded execution (the default)."""

    name = "serial"

    def map(self, fn, items):
        return [fn(item) for item in items]

    def imap(self, fn, items):
        for item in items:
            yield fn(item)


class MultiprocessingExecutor:
    """Chunked process-pool execution.

    Parameters
    ----------
    jobs:
        Worker process count, a positive integer (default: all CPUs).
    chunk_size:
        Items per task handed to a worker; default splits the item list
        into ~4 chunks per worker, amortizing IPC without starving the
        pool on skewed item costs.
    """

    name = "multiprocessing"

    def __init__(
        self, jobs: Optional[int] = None, chunk_size: Optional[int] = None
    ):
        self.jobs = (
            (os.cpu_count() or 1)
            if jobs is None
            else check_positive_int(jobs, "jobs")
        )
        self.chunk_size = chunk_size

    def _plan(self, items):
        """Materialize ``items`` and pick worker/chunk counts (shared by
        ``map`` and ``imap`` so the two can never diverge)."""
        items = list(items)
        workers = min(self.jobs, len(items))
        if workers <= 1:
            return items, workers, 1
        chunk = self.chunk_size or max(
            1, math.ceil(len(items) / (workers * 4))
        )
        return items, workers, chunk

    def map(self, fn, items):
        items, workers, chunk = self._plan(items)
        if workers <= 1:
            return [fn(item) for item in items]
        with multiprocessing.Pool(processes=workers) as pool:
            try:
                return pool.map(_InterruptSafe(fn), items, chunksize=chunk)
            except (KeyboardInterrupt, _WorkerInterrupted) as exc:
                raise _interrupted(exc)

    def imap(self, fn, items):
        items, workers, chunk = self._plan(items)
        if workers <= 1:
            for item in items:
                yield fn(item)
            return
        with multiprocessing.Pool(processes=workers) as pool:
            try:
                yield from pool.imap(_InterruptSafe(fn), items, chunksize=chunk)
            except (KeyboardInterrupt, _WorkerInterrupted) as exc:
                raise _interrupted(exc)


#: Registry of executor names accepted by :func:`make_executor`.
EXECUTOR_NAMES = ("serial", "multiprocessing")


def make_executor(
    spec: "str | Executor" = "serial", jobs: Optional[int] = None
) -> Executor:
    """Coerce ``spec`` (a name or an executor instance) into an executor.

    ``jobs > 1`` with the default spec upgrades ``"serial"`` to a
    multiprocessing pool, so callers can simply plumb a ``--jobs`` flag.
    An executor *instance* is returned as-is and must not be combined
    with ``jobs`` — configure the instance instead.
    """
    if not isinstance(spec, str):
        if jobs is not None:
            raise ValueError(
                "jobs applies only to executor names; configure "
                f"the {type(spec).__name__} instance directly"
            )
        return spec
    if spec == "serial":
        if jobs is not None and check_positive_int(jobs, "jobs") > 1:
            return MultiprocessingExecutor(jobs)
        return SerialExecutor()
    if spec == "multiprocessing":
        return MultiprocessingExecutor(jobs)
    raise ValueError(
        f"unknown executor {spec!r}; available: {EXECUTOR_NAMES}"
    )
