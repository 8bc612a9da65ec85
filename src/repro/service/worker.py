"""Work-stealing solve workers over a shared cache directory.

A worker is just a loop over :meth:`~repro.service.jobs.JobQueue.claim`:
scan the queue, win jobs via exclusive claim files, solve them, persist
the report into this worker's own result-store shard (the store's
shard-per-writer layout means workers never contend on a file), and
publish a done marker.  Nothing about the loop knows whether its peers
are threads, processes, or other machines — the filesystem is the whole
coordination protocol, which is what turns ``repro serve --join
<cache-dir>`` into a distributed executor.

:class:`WorkerPool` runs N such loops as daemon processes (real
parallelism for CPU-bound LP solves) or threads (cheap, deterministic
test fixtures); both share one stop event and drain cleanly: a stopping
worker finishes the job it claimed — never abandoning a claim — then
flushes and closes its shard.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
from typing import Callable, List, Optional

from repro.service.jobs import DEFAULT_CLAIM_TIMEOUT, Job, JobQueue
from repro.utils.timing import Timer


def default_owner() -> str:
    """Claim-file identity of this worker: host, pid, thread."""
    return (
        f"{socket.gethostname()}:{os.getpid()}:"
        f"{threading.current_thread().name}"
    )


def execute_job(job: Job, store) -> dict:
    """Run one claimed job to a done-marker outcome payload.

    Mirrors the sweep's :func:`repro.api.runner.run_batch` contract
    exactly: the stored record is the schedule- and timing-stripped
    :meth:`~repro.api.report.SolveReport.to_stored_dict` payload, and
    with ``job.verify`` the fresh report is certified
    (:func:`repro.verify.certify_solve`) *before* the store put, so a
    bad result can never poison the shared cache.  Failures — solver
    exceptions, bad params, verification violations — never raise: they
    become structured error outcomes for the broker to serve, and the
    worker moves on to the next job.

    When ``job.trace`` carries a :class:`~repro.obs.spans.TraceContext`
    payload, the job runs under a ``job`` span resumed from it — worker
    spans nest under the broker's request span across the process (or
    machine) boundary — and the collected span records ship back in the
    outcome's ``spans`` field for the broker to absorb.
    """
    from repro.obs.spans import TraceContext, Tracer, activate, deactivate

    if job.trace is None:
        return _run_job(job, store)
    try:
        ctx = TraceContext.from_dict(job.trace)
    except (KeyError, TypeError):  # malformed carrier: run untraced
        return _run_job(job, store)
    tracer = Tracer(trace_id=ctx.trace_id)
    prev = activate(tracer)
    try:
        with tracer.resume(ctx):
            with tracer.span("job", id_suffix="job", solver=job.solver):
                outcome = _run_job(job, store)
    finally:
        deactivate(prev)
    outcome["spans"] = tracer.drain()
    return outcome


def _run_job(job: Job, store) -> dict:
    """The traced-or-not core of :func:`execute_job`."""
    from repro.core.instance import Instance

    timer = Timer()
    try:
        instance = Instance.from_dict(job.instance)
        from repro.api.registry import get_solver

        solver = get_solver(job.solver)
        with timer.measure("solve"):
            report = solver.solve(instance, **dict(job.params))
        certified = False
        if job.verify and report.schedule is not None:
            from repro.verify import certify_solve

            with timer.measure("verify"):
                certify_solve(
                    report, instance, subject=f"{job.solver}@{job.key[:12]}"
                ).raise_if_failed()
            certified = True
        stored = report.to_stored_dict()
        store.put(job.solver, instance.digest(), dict(job.params), stored)
        return {
            "ok": True,
            "key": job.key,
            "solver": job.solver,
            "digest": instance.digest(),
            "certified": certified,
            "report": stored,
            "timings": dict(timer.totals),
        }
    except BaseException as exc:
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        from repro.verify import VerificationError

        code = (
            "verification-failed"
            if isinstance(exc, VerificationError)
            else "solver-error"
        )
        return {
            "ok": False,
            "key": job.key,
            "solver": job.solver,
            "error": {
                "code": code,
                "message": f"{type(exc).__name__}: {exc}",
            },
            "timings": dict(timer.totals),
        }


def worker_loop(
    cache_dir: str,
    stop,
    *,
    owner: Optional[str] = None,
    poll_interval: float = 0.05,
    claim_timeout: float = DEFAULT_CLAIM_TIMEOUT,
    on_job: Optional[Callable[[Job], None]] = None,
) -> int:
    """Claim-and-solve until ``stop`` is set; returns jobs completed.

    ``stop`` is any object with ``is_set()`` / ``wait(timeout)`` —
    ``threading.Event`` and ``multiprocessing.Event`` both qualify, so
    the same loop body serves thread workers, process workers, and the
    ``--join`` CLI.  An idle pass (nothing claimable) sleeps
    ``poll_interval`` on the event, so stopping is prompt.  ``on_job``
    is a test hook observing each claimed job *before* it runs.

    The worker opens its own private :class:`~repro.api.store.
    ResultStore` (one shard per worker) and closes it on the way out —
    including on ``KeyboardInterrupt``, so a Ctrl-C'd worker leaves
    every completed record flushed and readable.
    """
    from repro.api.store import ResultStore

    store = ResultStore(cache_dir)
    queue = JobQueue(cache_dir)
    me = owner or default_owner()
    completed = 0
    try:
        while not stop.is_set():
            progressed = False
            for key in queue.pending_keys():
                if stop.is_set():
                    break
                job = queue.claim(key, me, stale_after=claim_timeout)
                if job is None:
                    continue
                if on_job is not None:
                    on_job(job)
                outcome = execute_job(job, store)
                outcome["worker"] = me
                queue.complete(key, outcome)
                completed += 1
                progressed = True
            if not progressed:
                stop.wait(poll_interval)
    except KeyboardInterrupt:
        pass  # fall through to the flush below; records survive
    finally:
        store.close()
    return completed


def _process_entry(cache_dir, stop, owner, poll_interval, claim_timeout):
    # Separate module-level entry so spawn-based start methods can
    # pickle the target.
    worker_loop(
        cache_dir,
        stop,
        owner=owner,
        poll_interval=poll_interval,
        claim_timeout=claim_timeout,
    )


class WorkerPool:
    """N work-stealing workers over one cache dir, stopped as a unit.

    ``mode="process"`` (default) runs each worker in its own daemon
    process — real parallelism for the CPU-bound solves and exactly the
    topology a multi-machine deployment has, just co-located.
    ``mode="thread"`` runs them as daemon threads in-process: cheaper to
    spin up and able to share test instrumentation (``on_job``), at the
    cost of the GIL.
    """

    def __init__(
        self,
        cache_dir: "str | os.PathLike",
        workers: int = 2,
        *,
        mode: str = "process",
        poll_interval: float = 0.05,
        claim_timeout: float = DEFAULT_CLAIM_TIMEOUT,
        on_job: Optional[Callable[[Job], None]] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if mode not in ("process", "thread"):
            raise ValueError(f"mode must be 'process' or 'thread', got {mode!r}")
        if on_job is not None and mode != "thread":
            raise ValueError("on_job instrumentation requires mode='thread'")
        self.cache_dir = str(cache_dir)
        self.workers = int(workers)
        self.mode = mode
        self.poll_interval = poll_interval
        self.claim_timeout = claim_timeout
        self.on_job = on_job
        self._members: List = []
        self._stop = (
            threading.Event() if mode == "thread" else multiprocessing.Event()
        )

    def start(self) -> "WorkerPool":
        if self._members:
            raise RuntimeError("worker pool already started")
        for i in range(self.workers):
            if self.mode == "thread":
                member = threading.Thread(
                    target=worker_loop,
                    args=(self.cache_dir, self._stop),
                    kwargs=dict(
                        owner=f"{default_owner()}#w{i}",
                        poll_interval=self.poll_interval,
                        claim_timeout=self.claim_timeout,
                        on_job=self.on_job,
                    ),
                    name=f"repro-worker-{i}",
                    daemon=True,
                )
            else:
                member = multiprocessing.Process(
                    target=_process_entry,
                    args=(
                        self.cache_dir,
                        self._stop,
                        None,  # owner derived in the child (its own pid)
                        self.poll_interval,
                        self.claim_timeout,
                    ),
                    name=f"repro-worker-{i}",
                    daemon=True,
                )
            member.start()
            self._members.append(member)
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Signal every worker and wait for the drain.

        Workers finish the job they are on (claims are never abandoned)
        before exiting; a worker still alive after ``timeout`` seconds
        is abandoned (processes are daemonic, so interpreter exit still
        reaps it).
        """
        self._stop.set()
        for member in self._members:
            member.join(timeout=timeout)
        self._members = []

    @property
    def alive(self) -> int:
        """Workers still running."""
        return sum(1 for m in self._members if m.is_alive())

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
