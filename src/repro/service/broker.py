"""The request broker: digest-coalescing, admission control, timeouts.

One broker fronts one shared result-store directory.  Every request is
normalized to the store's own content address — ``canonical_key(solver,
Instance.digest(), params)`` — and then falls through three tiers:

1. **Store** — completed work is answered straight from the shared
   :class:`~repro.api.store.ResultStore` (refreshed incrementally, so
   records solved by *other* processes count), costing one index lookup.
2. **Coalesce** — a request whose key is already in flight attaches to
   the existing :class:`asyncio.Future`; a burst of N identical requests
   performs exactly one solve and N waiters share its outcome.
3. **Admit** — genuinely new work passes admission control (bounded
   queue depth, per-solver concurrency cap, drain flag) and is published
   to the on-disk :class:`~repro.service.jobs.JobQueue`, where any
   worker — this process's pool or a ``--join`` process on another
   machine — steals it.

Completion flows back through the queue's done markers (which carry
worker identity, per-phase timings, and structured errors) with the
store itself as fallback: if another broker consumed a shared done
marker first, the record's appearance in the store still settles the
waiters.  Per-request timeouts detach the waiter only — the solve keeps
running and lands in the store for the next request.

With a co-located :class:`~repro.service.worker.WorkerPool` wired in
through :meth:`SolveBroker.connect`, the broker rings the pool's work
doorbell after each enqueue and sweeps as soon as a worker rings the
done doorbell; every sweep still reads the same done markers and store,
so a ring changes when settlement happens, never how.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.api.store import ResultStore, canonical_key
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer, new_trace_id
from repro.service.jobs import Job, JobQueue
from repro.service.protocol import (
    ProtocolError,
    SolveRequest,
    SolveResponse,
    error_response,
)
from repro.service.worker import Doorbell


@dataclass(frozen=True)
class BrokerConfig:
    """Admission-control and polling knobs of one broker."""

    #: Maximum keys simultaneously in flight (queued + solving).  A
    #: request that would exceed it is rejected 429 ``queue-full``.
    queue_depth: int = 64
    #: Maximum in-flight keys per solver name; the cheap-solver traffic
    #: keeps flowing when one expensive solver saturates.  Rejected
    #: requests get 429 ``solver-busy``.
    solver_cap: int = 16
    #: Wait bound (seconds) for requests that do not set their own.
    default_timeout: Optional[float] = 120.0
    #: ``Retry-After`` value (seconds) stamped on overload rejections.
    retry_after: float = 1.0
    #: Certify every fresh solve (workers run
    #: :func:`repro.verify.certify_solve` before the store put) and
    #: record-check cache hits before serving them.
    verify: bool = False
    #: Reaper fallback cadence: the longest gap between two sweeps of
    #: the done markers and the store.  A connected worker pool's done
    #: doorbell triggers a sweep sooner; the cadence is what settles
    #: work finished by ``--join`` workers or for other brokers.  It is
    #: also the grace a stored record gets for its done marker.
    poll_interval: float = 0.02
    #: Age (seconds) after which unclaimed done markers are swept.
    done_ttl: float = 300.0


class _Pending:
    """One in-flight key: the shared future and its bookkeeping."""

    __slots__ = ("key", "solver", "digest", "future", "waiters", "stored_at")

    def __init__(self, key: str, solver: str, digest: str, future):
        self.key = key
        self.solver = solver
        self.digest = digest
        self.future = future
        self.waiters = 0
        #: Loop time of the first sweep that found the stored record.
        self.stored_at: Optional[float] = None


class SolveBroker:
    """Coalescing front-end over one cache dir (see module docstring)."""

    def __init__(
        self,
        cache_dir: "str",
        config: Optional[BrokerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.cache_dir = str(cache_dir)
        self.config = config or BrokerConfig()
        self.metrics = metrics or MetricsRegistry()
        # Span collection is explicit (``Tracer.emit``) rather than
        # ambient: concurrent requests interleave on one event-loop
        # thread, so a thread-local span stack would mis-nest them.
        self.tracer = tracer
        self.store = ResultStore(self.cache_dir)
        self.queue = JobQueue(self.cache_dir)
        self.pending: Dict[str, _Pending] = {}
        self.draining = False
        self._reaper: Optional[asyncio.Task] = None
        #: What the reaper awaits: resolved by a done ring or its timer.
        self._wake: Optional[asyncio.Future] = None
        #: A connected pool's doorbells (see :meth:`connect`).
        self._work: Optional[Doorbell] = None
        self._done: Optional[Doorbell] = None
        #: Loop time of the next collection of ownerless done markers.
        self._collect_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start the completion reaper (idempotent)."""
        if self._reaper is None:
            self._reaper = asyncio.create_task(self._reap_loop())
        self.metrics.gauge(
            "repro_draining", 0.0,
            help="1 while the service is draining (rejecting new work)",
        )

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting new work; wait for in-flight keys to settle.

        Only keys someone is still waiting on hold the drain open: an
        in-flight key whose every requester already timed out is
        settled immediately (its job file survives, so a later worker
        still completes it into the store).  Returns ``True`` when the
        queue drained fully; on timeout the leftover waiters are
        settled with a structured ``draining`` error (never left
        hanging) and ``False`` is returned.
        """
        self.draining = True
        self.metrics.gauge("repro_draining", 1.0)
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        abandoned = {
            "ok": False,
            "error": {
                "code": "draining",
                "message": "service shut down before this solve completed",
            },
        }
        while True:
            for key, entry in list(self.pending.items()):
                if entry.waiters <= 0:
                    self._settle(key, dict(abandoned))
            if not self.pending:
                return True
            if deadline is not None and loop.time() >= deadline:
                for key in list(self.pending):
                    self._settle(key, dict(abandoned))
                return False
            await asyncio.sleep(self.config.poll_interval)

    def connect(self, work: Doorbell, done: Doorbell) -> None:
        """Wire in a co-located worker pool's doorbells (on the loop).

        From now on every enqueue rings ``work``, and a ring of ``done``
        runs the completion sweep at once instead of at the next poll.
        """
        asyncio.get_running_loop().add_reader(done.fileno(), self._on_done)
        self._work, self._done = work, done

    def disconnect(self) -> None:
        """Unwire the pool's doorbells; call before the pool closes them."""
        if self._done is not None:
            asyncio.get_running_loop().remove_reader(self._done.fileno())
        self._work = self._done = None

    async def stop(self) -> None:
        """Cancel the reaper and release the store."""
        self.disconnect()
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        self.store.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    async def submit(self, request: SolveRequest) -> SolveResponse:
        """Answer one solve request through cache → coalesce → admit.

        With a tracer attached, the whole request runs under a root
        ``request`` span on its own trace (the caller's
        ``request.trace`` ID when given, else a fresh one), the solve
        wait under a ``solve_wait`` child, and the executing worker's
        spans — shipped back through the done marker — nest under the
        request across the process boundary.  The trace ID is echoed in
        ``SolveResponse.trace_id`` either way.
        """
        trace_id = request.trace or (
            new_trace_id() if self.tracer is not None else None
        )
        if self.tracer is None:
            response = await self._submit_inner(request, trace_id)
        else:
            start = time.time()
            t0 = time.perf_counter()
            response = await self._submit_inner(request, trace_id)
            dt = time.perf_counter() - t0
            self.tracer.emit(
                "request", start, start + dt, "0",
                trace_id=trace_id,
                attrs={
                    "solver": request.solver,
                    "status": response.status,
                    "source": response.source,
                },
            )
        if trace_id is not None:
            response = dataclasses.replace(response, trace_id=trace_id)
        return response

    async def _submit_inner(
        self, request: SolveRequest, trace_id: Optional[str]
    ) -> SolveResponse:
        cfg = self.config
        try:
            instance_dict, digest = await asyncio.to_thread(
                _materialize, request
            )
        except ProtocolError as exc:
            self._count_outcome(request.solver, "rejected")
            return error_response(exc.code, str(exc))
        params = dict(request.params)
        key = canonical_key(request.solver, digest, params)
        verify = cfg.verify or request.verify

        # Tier 1: the store (answers work finished by anyone, ever).
        self.store.refresh()
        record = self.store.lookup(key)
        if record is not None:
            return self._serve_record(
                request.solver, digest, key, record, verify
            )

        # Tier 2: coalesce onto an in-flight solve of the same key.
        entry = self.pending.get(key)
        coalesced = entry is not None
        if entry is not None:
            self.metrics.counter(
                "repro_coalesced_total",
                help="requests attached to an already-in-flight solve",
            )
            self._count_outcome(request.solver, "coalesced")
        else:
            # Tier 3: admission control, then publish the job.
            rejection = self._admission_error(request.solver)
            if rejection is not None:
                return rejection
            future = asyncio.get_running_loop().create_future()
            entry = _Pending(key, request.solver, digest, future)
            self.pending[key] = entry
            self.metrics.gauge(
                "repro_queue_depth", float(len(self.pending)),
                help="keys in flight (queued + solving)",
            )
            self.metrics.counter(
                "repro_enqueued_total", solver=request.solver,
                help="jobs published to the work queue",
            )
            job = Job(
                key=key,
                solver=request.solver,
                instance=instance_dict,
                params=params,
                verify=verify,
                trace=(
                    {"trace_id": trace_id, "span_id": "0"}
                    if self.tracer is not None and trace_id is not None
                    else None
                ),
            )
            try:
                await asyncio.to_thread(self.queue.enqueue, job)
            except OSError as exc:
                self._settle(key, {
                    "ok": False,
                    "error": {
                        "code": "internal",
                        "message": f"could not enqueue job: {exc}",
                    },
                })
            else:
                if self._work is not None:
                    self._work.ring()

        entry.waiters += 1
        timeout = (
            request.timeout
            if request.timeout is not None
            else cfg.default_timeout
        )
        wait_wall, wait_t0 = time.time(), time.perf_counter()
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(entry.future), timeout
            )
        except asyncio.TimeoutError:
            self._emit_wait_span(trace_id, wait_wall, wait_t0, "timeout")
            self.metrics.counter(
                "repro_timeouts_total",
                help="requests that hit their wait bound",
            )
            self._count_outcome(request.solver, "timeout")
            return error_response(
                "timeout",
                f"no result within {timeout:g}s; the solve is still "
                f"running and will be served from cache once finished "
                f"(GET /result/{digest}?solver={request.solver})",
            )
        finally:
            entry.waiters -= 1
        self._emit_wait_span(trace_id, wait_wall, wait_t0, "settled")
        return self._outcome_response(
            request.solver, digest, key, outcome,
            source="coalesced" if coalesced else "solved",
        )

    def _emit_wait_span(
        self, trace_id: Optional[str], wall: float, t0: float, outcome: str
    ) -> None:
        """Record the ``solve_wait`` child span of one traced request."""
        if self.tracer is None or trace_id is None:
            return
        dt = time.perf_counter() - t0
        self.tracer.emit(
            "solve_wait", wall, wall + dt, "0.1", parent_id="0",
            trace_id=trace_id, attrs={"outcome": outcome},
        )

    def result(
        self, digest: str, solver: str, params: Optional[dict] = None
    ) -> Optional[dict]:
        """The stored report for ``(solver, digest, params)``, if any."""
        self.store.refresh()
        return self.store.lookup(canonical_key(solver, digest, params or {}))

    def healthz(self) -> dict:
        """Liveness payload for ``GET /healthz``."""
        return {
            "status": "draining" if self.draining else "ok",
            "pending": len(self.pending),
            "records": len(self.store),
            "cache_dir": self.cache_dir,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _count_outcome(self, solver: str, outcome: str) -> None:
        self.metrics.counter(
            "repro_solve_requests_total",
            solver=solver or "?",
            outcome=outcome,
            help="solve requests by terminal outcome",
        )

    def _admission_error(self, solver: str) -> Optional[SolveResponse]:
        cfg = self.config
        if self.draining:
            code, message = "draining", (
                "service is draining and admits no new work"
            )
        elif len(self.pending) >= cfg.queue_depth:
            code, message = "queue-full", (
                f"{len(self.pending)} keys in flight (limit "
                f"{cfg.queue_depth}); retry shortly"
            )
        elif (
            sum(1 for e in self.pending.values() if e.solver == solver)
            >= cfg.solver_cap
        ):
            code, message = "solver-busy", (
                f"solver {solver!r} already has {cfg.solver_cap} keys in "
                f"flight; retry shortly"
            )
        else:
            return None
        self.metrics.counter(
            "repro_rejected_total", reason=code,
            help="requests rejected by admission control",
        )
        self._count_outcome(solver, "rejected")
        return error_response(code, message, retry_after=cfg.retry_after)

    def _serve_record(
        self, solver: str, digest: str, key: str, record: dict, verify: bool
    ) -> SolveResponse:
        certified = False
        if verify:
            from repro.verify import check_record

            verification = check_record(record, subject=f"{solver}@{digest[:12]}")
            if not verification.ok:
                self._count_outcome(solver, "error")
                return error_response(
                    "verification-failed",
                    f"stored record failed certification: "
                    f"{verification.render()}",
                )
            certified = True
        self.metrics.counter(
            "repro_cache_hits_total",
            help="requests answered straight from the result store",
        )
        self._count_outcome(solver, "cache")
        return SolveResponse(
            status="ok",
            solver=solver,
            digest=digest,
            key=key,
            source="cache",
            certified=certified,
            report=record,
        )

    def _outcome_response(
        self,
        solver: str,
        digest: str,
        key: str,
        outcome: dict,
        source: str = "solved",
    ) -> SolveResponse:
        if outcome.get("ok"):
            self._count_outcome(solver, source)
            return SolveResponse(
                status="ok",
                solver=solver,
                digest=digest,
                key=key,
                source=source,
                certified=bool(outcome.get("certified", False)),
                report=outcome.get("report"),
            )
        error = outcome.get("error") or {}
        self._count_outcome(solver, "error")
        return error_response(
            str(error.get("code", "solver-error")),
            str(error.get("message", "solve failed")),
        )

    def _settle(self, key: str, outcome: dict) -> None:
        entry = self.pending.pop(key, None)
        self.metrics.gauge("repro_queue_depth", float(len(self.pending)))
        # Worker-side span records ride the done marker; fold them into
        # this broker's trace sink (and strip them from the outcome the
        # waiters see — spans are observability, not payload).
        spans = outcome.pop("spans", None)
        if spans and self.tracer is not None:
            self.tracer.absorb(spans)
        if entry is None:
            return
        solve_seconds = (outcome.get("timings") or {}).get("solve")
        if solve_seconds is not None:
            self.metrics.observe(
                "repro_solve_seconds", float(solve_seconds),
                solver=entry.solver,
                help="worker-side solve wall-clock per completed job",
            )
        if outcome.get("ok"):
            self.metrics.counter(
                "repro_solved_total", solver=entry.solver,
                help="jobs completed successfully",
            )
        else:
            self.metrics.counter(
                "repro_solve_failures_total", solver=entry.solver,
                help="jobs that ended in a structured error",
            )
        if not entry.future.done():
            entry.future.set_result(outcome)

    def _reap_once(self) -> None:
        """One completion sweep: done markers first, store as fallback."""
        now = asyncio.get_running_loop().time()
        queue = self.queue
        done = set(queue.done_keys())
        for key in list(self.pending):
            if key not in done:
                continue
            outcome = queue.read_done(key)
            if outcome is not None:
                self._settle(key, outcome)
                queue.discard_done(key)
        if self.pending:
            self.store.refresh()
            for key, entry in list(self.pending.items()):
                record = self.store.lookup(key)
                if record is None:
                    continue
                # The record lands before its done marker (the worker
                # puts, then publishes), and only the marker carries the
                # timings and the certified stamp.  Give the marker one
                # poll interval of loop time, however many rings sweep
                # in between, before settling from the store.
                if entry.stored_at is None:
                    entry.stored_at = now
                elif now - entry.stored_at >= self.config.poll_interval:
                    self._settle(key, {
                        "ok": True,
                        "key": key,
                        "solver": entry.solver,
                        "digest": entry.digest,
                        "certified": False,
                        "report": record,
                        "timings": {},
                    })
        self.metrics.gauge("repro_store_records", float(len(self.store)))
        if now >= self._collect_at:
            # Once per done_ttl: collect markers no broker owns.
            self._collect_at = now + self.config.done_ttl
            self.queue.sweep_done(self.config.done_ttl)

    def _on_done(self) -> None:
        """Reader callback of the done doorbell: wake the reaper now."""
        self._done.drain()
        if self._wake is not None:
            _resolve(self._wake, "ring")

    async def _reap_loop(self) -> None:
        """Sweep on every done ring, and at least every poll interval.

        Each round awaits a future that either :meth:`_on_done` or a
        ``call_later`` timer resolves, then runs :meth:`_reap_once`, the
        one settlement path.  The rounds run every poll interval even
        when idle, so each is kept to one future and one timer handle
        (``asyncio.wait_for`` on an event would add a task and a timeout
        per round).  ``repro_reaper_sweeps_total`` counts the rounds by
        trigger.
        """
        loop = asyncio.get_running_loop()
        while True:
            self._wake = loop.create_future()
            timer = loop.call_later(
                self.config.poll_interval, _resolve, self._wake, "timer"
            )
            try:
                trigger = await self._wake
            finally:
                timer.cancel()
            self.metrics.counter(
                "repro_reaper_sweeps_total", trigger=trigger,
                help="completion sweeps by trigger: a worker's done ring "
                "or the poll timer",
            )
            try:
                self._reap_once()
            except Exception as exc:  # pragma: no cover - defensive
                # A transient filesystem error must not kill completion
                # delivery for every in-flight request.
                self.metrics.counter(
                    "repro_reaper_errors_total",
                    help="exceptions swallowed by the completion reaper",
                    kind=type(exc).__name__,
                )


def _resolve(future: asyncio.Future, trigger: str) -> None:
    """Wake the reaper with ``trigger`` unless something already did."""
    if not future.done():
        future.set_result(trigger)


def _materialize(request: SolveRequest):
    """Resolve a request to ``(instance payload, digest)``.

    Inline instances are round-tripped through
    :class:`~repro.core.instance.Instance` so the digest is always the
    canonical one; scenario requests are generated server-side with the
    request's seed.  Unknown solvers and malformed inputs become
    :class:`ProtocolError` with the right code.
    """
    from repro.api.registry import get_solver
    from repro.core.instance import Instance

    try:
        get_solver(request.solver)
    except ValueError as exc:
        raise ProtocolError(str(exc), code="unknown-solver")
    if request.instance is not None:
        try:
            instance = Instance.from_dict(request.instance)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ProtocolError(
                f"malformed inline instance: {type(exc).__name__}: {exc}"
            )
    else:
        from repro.scenarios import ScenarioSpec, build_instance

        try:
            spec = (
                request.scenario
                if isinstance(request.scenario, str)
                else ScenarioSpec.from_dict(request.scenario)
            )
            instance = build_instance(spec, seed=request.seed)
        except (OSError, ValueError) as exc:
            raise ProtocolError(f"cannot build scenario: {exc}")
    if instance.num_flows == 0:
        raise ProtocolError(
            "instance has no flows; nothing to solve (zero-flow instances "
            "are skipped by sweeps and rejected by the service)"
        )
    return instance.to_dict(), instance.digest()
