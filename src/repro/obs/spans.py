"""Hierarchical spans with cross-process context propagation.

A *span* is one named, timed region of work; spans nest, and the nesting
survives process boundaries: a :class:`TraceContext` — just ``(trace_id,
span_id)`` — is picklable, rides inside work items and job payloads, and
lets a worker process open spans that parent under the coordinating
process's work item.

Design constraints, in order:

* **Deterministic identity.**  Span IDs are hierarchical paths
  (``"0"``, ``"0.M8-T40-t3"``, ``"0.M8-T40-t3.2"``): the root counter
  and per-parent child counters are deterministic, and cross-process
  children are grafted by an explicit ``id_suffix`` derived from the
  work item itself — so two runs of the same seeded sweep produce
  byte-identical span logs apart from timestamps.
* **Near-zero cost when off.**  The ambient API (:func:`span`,
  :func:`current_tracer`) is a single ``threading.local`` attribute
  read; with no tracer active, :func:`span` returns a shared no-op
  context manager and nothing else happens.
* **Exact reconciliation with :class:`~repro.utils.timing.Timer`.**
  ``Tracer.close(handle, duration=dt)`` accepts the *same*
  ``perf_counter`` delta :func:`~repro.utils.timing.measure` adds to
  the active Timer, so per-phase span sums equal its totals exactly
  (the span's wall-clock ``end`` is ``start + dt``).

The current tracer is **per thread** (a ``threading.local``), which is
what makes the service's thread workers and the runner's executors
coexist: each thread of work activates its own tracer for the duration
of its unit and restores the previous one after.
"""

from __future__ import annotations

import hashlib
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

#: Format stamp written into every span record.
SPAN_SCHEMA_VERSION = 1


def new_trace_id(seed: Optional[str] = None) -> str:
    """A 16-hex-digit trace ID — random, or deterministic from ``seed``.

    Seeded IDs are how a fixed-seed sweep gets a byte-stable span log:
    the runner derives the seed from its configuration, so the same
    sweep always carries the same trace ID.
    """
    if seed is None:
        return uuid.uuid4().hex[:16]
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """The picklable cross-process carrier: ``(trace_id, span_id)``.

    Whoever holds one can open spans in another process that nest under
    ``span_id`` — the whole propagation protocol.
    """

    trace_id: str
    span_id: str

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_dict(data: dict) -> "TraceContext":
        return TraceContext(
            trace_id=str(data["trace_id"]), span_id=str(data["span_id"])
        )


class _OpenSpan:
    """An in-flight span frame on one thread's stack."""

    __slots__ = (
        "name", "span_id", "parent_id", "start_wall", "start_perf",
        "attrs", "children", "phantom",
    )

    def __init__(self, name, span_id, parent_id, attrs, phantom=False):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.children = 0
        self.phantom = phantom
        self.start_wall = 0.0 if phantom else time.time()
        self.start_perf = 0.0 if phantom else time.perf_counter()


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanCm:
    """Context manager over :meth:`Tracer.open` / :meth:`Tracer.close`."""

    __slots__ = ("_tracer", "_name", "_id_suffix", "_attrs", "_handle")

    def __init__(self, tracer, name, id_suffix, attrs):
        self._tracer = tracer
        self._name = name
        self._id_suffix = id_suffix
        self._attrs = attrs
        self._handle = None

    def __enter__(self) -> "_SpanCm":
        self._handle = self._tracer.open(
            self._name, attrs=self._attrs, id_suffix=self._id_suffix
        )
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.close(self._handle)


class _ResumeCm:
    """Context manager pushing a phantom parent frame (cross-process)."""

    __slots__ = ("_tracer", "_ctx", "_frame")

    def __init__(self, tracer, ctx):
        self._tracer = tracer
        self._ctx = ctx
        self._frame = None

    def __enter__(self) -> "_ResumeCm":
        self._frame = self._tracer._push_phantom(self._ctx)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._pop_phantom(self._frame)


class Tracer:
    """One trace: hierarchical spans collected to a sink or in memory.

    Thread-aware: every thread using this tracer gets its own span
    stack, so concurrent workers never corrupt each other's nesting.
    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) makes
    every closed span also feed the canonical ``repro_*_seconds``
    histogram for its name — the bridge that populates ``GET /metrics``
    from a traced run.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        sink=None,
        metrics=None,
    ):
        self.trace_id = trace_id or new_trace_id()
        self._sink = sink
        self._metrics = metrics
        self._observer_for = None
        # span name -> pre-resolved metrics observer closure; populated
        # lazily.  Event-name resolution and histogram lookup are done
        # once per name, not once per closed span — the difference
        # between ~1.5us and ~0.6us on the batch-kernel hot path.
        self._observers: Dict[str, Any] = {}
        if metrics is not None:
            from repro.obs.metrics import event_observer

            self._observer_for = event_observer
        self._lock = threading.Lock()
        self._spans: List[dict] = []
        self._local = threading.local()
        self._stacks: Dict[int, List[_OpenSpan]] = {}
        self._roots = 0

    # ------------------------------------------------------------------
    # Span stack plumbing
    # ------------------------------------------------------------------

    def _stack(self) -> List[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def _next_root_id(self) -> str:
        with self._lock:
            span_id = str(self._roots)
            self._roots += 1
        return span_id

    def open(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        id_suffix: Optional[str] = None,
    ) -> _OpenSpan:
        """Open a span nested under this thread's innermost open span.

        ``id_suffix`` overrides the child counter with an explicit path
        segment — the deterministic graft point for spans whose identity
        comes from a work item rather than call order.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None:
            span_id = id_suffix if id_suffix is not None else self._next_root_id()
            parent_id = None
        elif id_suffix is not None:
            span_id = f"{parent.span_id}.{id_suffix}"
            parent_id = parent.span_id
        else:
            parent.children += 1
            span_id = f"{parent.span_id}.{parent.children}"
            parent_id = parent.span_id
        frame = _OpenSpan(name, span_id, parent_id, attrs)
        stack.append(frame)
        return frame

    def close(
        self, frame: _OpenSpan, duration: Optional[float] = None
    ) -> dict:
        """Close ``frame`` and record it; returns the span record.

        ``duration`` (seconds) overrides the measured ``perf_counter``
        delta — :func:`~repro.utils.timing.measure` passes the delta it
        adds to the active Timer, so the two reconcile exactly.
        """
        stack = self._stack()
        # Tolerate mismatched closes defensively: pop through anything
        # opened after `frame` (an exception path that skipped closes).
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        if duration is None:
            duration = time.perf_counter() - frame.start_perf
        # ``dur`` is authoritative: recovering the duration as
        # ``end - start`` loses ~1e-7 s to float cancellation against
        # the epoch-scale ``start``, which matters when reconciling
        # span sums against Timer totals exactly.
        record = {
            "schema": SPAN_SCHEMA_VERSION,
            "trace": self.trace_id,
            "span": frame.span_id,
            "parent": frame.parent_id,
            "name": frame.name,
            "start": frame.start_wall,
            "end": frame.start_wall + duration,
            "dur": duration,
            "attrs": frame.attrs or {},
        }
        self._record(record)
        if self._observer_for is not None:
            self._observe(frame.name, duration)
        return record

    def _observe(self, name: str, duration: float) -> None:
        obs = self._observers.get(name)
        if obs is None:
            obs = self._observer_for(name, registry=self._metrics)
            self._observers[name] = obs
        obs(duration)

    def span(self, name: str, id_suffix: Optional[str] = None, **attrs):
        """``with tracer.span("hk_solve", trial=3): ...``"""
        return _SpanCm(self, name, id_suffix, attrs or None)

    # ------------------------------------------------------------------
    # Cross-process context
    # ------------------------------------------------------------------

    def context(self) -> Optional[TraceContext]:
        """The innermost open span of this thread as a carrier, if any."""
        stack = self._stack()
        if not stack:
            return None
        return TraceContext(self.trace_id, stack[-1].span_id)

    def resume(self, ctx: TraceContext) -> _ResumeCm:
        """Nest subsequent spans under a remote parent's ``ctx``.

        Pushes a *phantom* frame (never recorded — the real span was, or
        will be, recorded by the process that owns it); spans opened
        inside parent under ``ctx.span_id``.
        """
        return _ResumeCm(self, ctx)

    def _push_phantom(self, ctx: TraceContext) -> _OpenSpan:
        frame = _OpenSpan(
            "<resume>", ctx.span_id, None, None, phantom=True
        )
        self._stack().append(frame)
        return frame

    def _pop_phantom(self, frame: _OpenSpan) -> None:
        stack = self._stack()
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()

    # ------------------------------------------------------------------
    # Record collection
    # ------------------------------------------------------------------

    def _record(self, record: dict) -> None:
        if self._sink is not None:
            self._sink.write(record)
        else:
            with self._lock:
                self._spans.append(record)

    def absorb(self, records: Iterable[dict]) -> None:
        """Fold span records produced elsewhere (a child process, a
        worker's done marker) into this tracer's sink/collection.

        Absorbed spans also feed the metrics bridge: the producing
        tracer ran without a registry (it only collected records to
        ship home), so this is where executor- and worker-side phase
        durations reach the canonical ``repro_*_seconds`` histograms.
        """
        for record in records or ():
            record = dict(record)
            self._record(record)
            if self._observer_for is not None:
                name = record.get("name")
                dur = record.get("dur")
                if isinstance(name, str) and isinstance(dur, (int, float)):
                    self._observe(name, float(dur))

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        span_id: str,
        parent_id: Optional[str] = None,
        trace_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> dict:
        """Record a completed span with explicit identity.

        The escape hatch for async code (the service broker), where an
        ambient per-thread stack would interleave concurrent requests:
        the caller assigns IDs and timestamps itself.
        """
        record = {
            "schema": SPAN_SCHEMA_VERSION,
            "trace": trace_id or self.trace_id,
            "span": span_id,
            "parent": parent_id,
            "name": name,
            "start": float(start),
            "end": float(end),
            "dur": max(0.0, float(end) - float(start)),
            "attrs": attrs or {},
        }
        self._record(record)
        if self._observer_for is not None:
            self._observe(name, max(0.0, float(end) - float(start)))
        return record

    def drain(self) -> List[dict]:
        """Remove and return the in-memory span records (sink-less mode)."""
        with self._lock:
            records, self._spans = self._spans, []
        return records

    @property
    def finished(self) -> List[dict]:
        """A snapshot of the in-memory span records."""
        with self._lock:
            return list(self._spans)

    def finish(self) -> None:
        """Flush and close the sink, if any."""
        if self._sink is not None:
            close = getattr(self._sink, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------
    # Profiler support
    # ------------------------------------------------------------------

    def open_span_names(self) -> Dict[int, str]:
        """Innermost *real* open span name per thread ident.

        Read by the sampling profiler from its own thread; best-effort
        (stacks are mutated concurrently) but safe — list reads are
        atomic enough under the GIL, and a torn read costs one sample.
        """
        out: Dict[int, str] = {}
        with self._lock:
            stacks = list(self._stacks.items())
        for tid, stack in stacks:
            for frame in reversed(stack):
                if not frame.phantom:
                    out[tid] = frame.name
                    break
        return out


# ---------------------------------------------------------------------------
# Ambient (per-thread) tracer
# ---------------------------------------------------------------------------

_LOCAL = threading.local()

#: Thread ident -> active tracer, readable across threads (the sampling
#: profiler's view).  ``_LOCAL`` is the fast path; this mirror exists
#: because ``threading.local`` cannot be read from another thread.
_ACTIVE: Dict[int, "Tracer"] = {}
_ACTIVE_LOCK = threading.Lock()


def activate(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as this thread's ambient tracer; returns the
    previous one (pass it back to :func:`deactivate` to restore)."""
    prev = getattr(_LOCAL, "tracer", None)
    _LOCAL.tracer = tracer
    ident = threading.get_ident()
    with _ACTIVE_LOCK:
        if tracer is None:
            _ACTIVE.pop(ident, None)
        else:
            _ACTIVE[ident] = tracer
    return prev


def deactivate(prev: Optional[Tracer]) -> None:
    """Restore the tracer returned by the matching :func:`activate`."""
    activate(prev)


def current_tracer() -> Optional[Tracer]:
    """This thread's ambient tracer, or ``None`` (tracing off)."""
    return getattr(_LOCAL, "tracer", None)


def active_tracers() -> Dict[int, Tracer]:
    """Thread ident -> tracer for every thread with an active tracer."""
    with _ACTIVE_LOCK:
        return dict(_ACTIVE)


def span(name: str, **attrs):
    """Ambient span: nests under the current tracer, no-op without one.

    The hook instrumented code calls unconditionally::

        with span("hk_solve", trials=n):
            ...
    """
    tracer = current_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def trace_context() -> Optional[TraceContext]:
    """The ambient :class:`TraceContext` to ship across a process
    boundary, or ``None`` when tracing is off."""
    tracer = current_tracer()
    if tracer is None:
        return None
    return tracer.context()


class session:
    """Activate ``tracer`` on this thread for the block::

        with session(Tracer(sink=JsonlSink(path))) as tracer:
            with tracer.span("sweep"):
                ...
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._prev: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._prev = activate(self.tracer)
        return self.tracer

    def __exit__(self, *exc) -> None:
        deactivate(self._prev)
