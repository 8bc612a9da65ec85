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
test fixtures); both share one lock-free stop flag and drain cleanly: a
stopping worker finishes the job it claimed — never abandoning a claim —
then flushes and closes its shard.

Within a pool, two :class:`Doorbell` pipes replace most of the polling.
A co-located broker rings the pool's *work* bell after each enqueue,
which wakes idle workers at once; each worker rings the *done* bell
after publishing a done marker, which the broker's event loop watches.
A ring only says "look now": the queue scan at ``poll_interval`` stays
the durable path, and the only one that ``--join`` workers in other
processes, other brokers and crash recovery see.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import socket
import threading
import time
from typing import Callable, List, Optional

from repro.service.jobs import DEFAULT_CLAIM_TIMEOUT, Job, JobQueue
from repro.utils.timing import Timer, measure
from repro.utils.validation import check_positive_int


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
    """The traced-or-not core of :func:`execute_job`.

    The job records into its own :class:`Timer`, active on this worker
    thread only: ``solve``, ``verify`` and any phase the certification
    runs outside the solver's own Timer.
    """
    from repro.core.instance import Instance

    timer = Timer()
    try:
        with timer.recording():
            instance = Instance.from_dict(job.instance)
            from repro.api.registry import get_solver

            solver = get_solver(job.solver)
            with measure("solve"):
                report = solver.solve(instance, **dict(job.params))
            certified = False
            if job.verify and report.schedule is not None:
                from repro.verify import certify_solve

                with measure("verify"):
                    certify_solve(
                        report, instance,
                        subject=f"{job.solver}@{job.key[:12]}",
                    ).raise_if_failed()
                certified = True
            stored = report.to_stored_dict()
            store.put(
                job.solver, instance.digest(), dict(job.params), stored
            )
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


class Doorbell:
    """A wake-up hint across threads and processes: a one-byte pipe write.

    :meth:`ring` writes one byte into a non-blocking pipe and never
    blocks: when the pipe is full, a ring is already pending and the
    byte is dropped.  :meth:`wait` sleeps in ``select`` until a ring or
    its timeout and, when rung, drains every pending byte (an idle
    timeout costs no read).  Neither side takes a lock, so a peer
    SIGKILLed while ringing or waiting leaves nothing held, and a bell
    nobody reads (a ``--join`` pool's done bell) costs its ringers
    nothing.

    The two ends are :class:`multiprocessing.connection.Connection`
    objects, so a doorbell passed to a :class:`multiprocessing.Process`
    as an argument reaches the child under fork, spawn and forkserver
    alike.  Holding both ends in every process that holds the bell
    means the read end never sees end-of-file while the bell is open.
    """

    def __init__(self) -> None:
        self._reader, self._writer = multiprocessing.Pipe(duplex=False)
        os.set_blocking(self._reader.fileno(), False)
        os.set_blocking(self._writer.fileno(), False)

    def fileno(self) -> int:
        """The read end, for ``select`` or ``loop.add_reader``."""
        return self._reader.fileno()

    def ring(self) -> None:
        """Wake the waiters; returns at once, even when nobody reads."""
        try:
            os.write(self._writer.fileno(), b"\0")
        except BlockingIOError:
            pass  # pipe full: a ring is already pending

    def wait(self, timeout: float) -> None:
        """Return after a ring or ``timeout`` seconds, rings drained."""
        if select.select([self._reader], [], [], timeout)[0]:
            self.drain()

    def drain(self) -> None:
        """Consume every pending ring without blocking."""
        try:
            while os.read(self._reader.fileno(), 4096):
                pass
        except BlockingIOError:
            pass  # empty

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


class _StopFlag:
    """A stop flag shared with process workers: one byte, no lock.

    Not a ``multiprocessing.Event``: its ``set()`` notifies a condition
    variable and then waits for every registered sleeper to wake, so a
    worker SIGKILLed while asleep would block ``set()`` forever.
    """

    def __init__(self) -> None:
        self._value = multiprocessing.RawValue("b", 0)

    def set(self) -> None:
        self._value.value = 1

    def is_set(self) -> bool:
        return bool(self._value.value)


def worker_loop(
    cache_dir: str,
    stop,
    *,
    owner: Optional[str] = None,
    poll_interval: float = 0.05,
    claim_timeout: float = DEFAULT_CLAIM_TIMEOUT,
    on_job: Optional[Callable[[Job], None]] = None,
    wake: Optional[Doorbell] = None,
    done: Optional[Doorbell] = None,
) -> int:
    """Claim-and-solve until ``stop`` is set; returns jobs completed.

    ``stop`` is any object with ``is_set()`` — a ``threading.Event``,
    or the pool's shared flag — checked before every scan and every
    claim, so the same loop body serves thread workers, process
    workers, and the ``--join`` CLI.  An idle pass (nothing claimable)
    waits up to ``poll_interval`` for a ring of ``wake`` (the pool's
    work bell, rung after each enqueue and on stop), then scans again;
    without a bell it sleeps ``poll_interval``.  A stopping worker rings
    ``wake`` once more on its way out, so every idle peer wakes to the
    stop.  After publishing each done marker the loop rings ``done``,
    the pool's completion bell.  ``on_job`` is a test hook observing
    each claimed job *before* it runs.

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
                if done is not None:
                    done.ring()
                completed += 1
                progressed = True
            if progressed:
                continue
            if wake is not None:
                wake.wait(poll_interval)
            else:
                time.sleep(poll_interval)
        if wake is not None:
            # Pass the stop ring on: this worker's drain may have taken
            # the ring a peer is still waiting for.
            wake.ring()
    except KeyboardInterrupt:
        pass  # fall through to the flush below; records survive
    finally:
        store.close()
    return completed


class WorkerPool:
    """N work-stealing workers over one cache dir, stopped as a unit.

    ``mode="process"`` (default) runs each worker in its own daemon
    process — real parallelism for the CPU-bound solves and exactly the
    topology a multi-machine deployment has, just co-located.
    ``mode="thread"`` runs them as daemon threads in-process: cheaper to
    spin up and able to share test instrumentation (``on_job``), at the
    cost of the GIL.

    The pool owns two :class:`Doorbell` pipes for its whole life:
    ``work``, which a co-located broker rings after each enqueue, and
    ``done``, which every worker rings after each completed job (see
    :meth:`~repro.service.broker.SolveBroker.connect`).  Its stop flag
    is a bare shared byte, not a ``multiprocessing.Event``, and
    :meth:`stop` wakes the workers through ``work``: nothing shared with
    the workers takes a lock, so a SIGKILLed worker cannot wedge
    :meth:`stop`.  ``poll_interval`` is each idle worker's fallback
    cadence when no ring comes.  A stopped pool closes its doorbells and
    cannot be started again.
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
        workers = check_positive_int(workers, "workers")
        if mode not in ("process", "thread"):
            raise ValueError(f"mode must be 'process' or 'thread', got {mode!r}")
        if on_job is not None and mode != "thread":
            raise ValueError("on_job instrumentation requires mode='thread'")
        self.cache_dir = str(cache_dir)
        self.workers = workers
        self.mode = mode
        self.poll_interval = poll_interval
        self.claim_timeout = claim_timeout
        self.on_job = on_job
        self._members: List = []
        self._stop = _StopFlag()
        self.work = Doorbell()
        self.done = Doorbell()

    def start(self) -> "WorkerPool":
        if self._members:
            raise RuntimeError("worker pool already started")
        if self._stop.is_set():
            raise RuntimeError("worker pool already stopped")
        common = dict(
            poll_interval=self.poll_interval,
            claim_timeout=self.claim_timeout,
            wake=self.work,
            done=self.done,
        )
        for i in range(self.workers):
            if self.mode == "thread":
                member = threading.Thread(
                    target=worker_loop,
                    args=(self.cache_dir, self._stop),
                    kwargs=dict(
                        common,
                        owner=f"{default_owner()}#w{i}",
                        on_job=self.on_job,
                    ),
                    name=f"repro-worker-{i}",
                    daemon=True,
                )
            else:
                # The child derives its owner (its own pid); every
                # argument is pickled under spawn and forkserver.
                member = multiprocessing.Process(
                    target=worker_loop,
                    args=(self.cache_dir, self._stop),
                    kwargs=common,
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
        reaps it).  Then the doorbells are closed, unless an abandoned
        worker is a thread of this process that may still ring them.
        """
        if self._stop.is_set():
            return
        self._stop.set()
        self.work.ring()  # each stopping worker passes it on
        for member in self._members:
            member.join(timeout=timeout)
        if self.mode == "process" or self.alive == 0:
            self.work.close()
            self.done.close()
        self._members = []

    @property
    def alive(self) -> int:
        """Workers still running."""
        return sum(1 for m in self._members if m.is_alive())

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
