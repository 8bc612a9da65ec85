"""Per-phase wall-clock timing: one call times a phase.

``with measure(name):`` is the only way code times a phase.  It takes
one ``perf_counter`` delta, adds it to the innermost :class:`Timer`
active on the calling thread (``with timer.recording():``) and, when a
``repro.obs`` tracer is ambient, closes a span of the same name with
that same delta, so span sums equal Timer totals exactly.

Three places activate a Timer: each built-in solver's
``SolverAdapter.solve`` (one per report), the sweep runner's
``run_batch`` and the service's ``_run_job``.  A phase lands in the
innermost, per thread: a solver's phases in its report, the sweep's or
job's own (generation, LP bounds, certification) in theirs.

Two per-round aggregates, ``sim_round`` and ``batch_select``, call
:meth:`Timer.add` on :func:`current_timer` and open no span: a span per
round would triple the spans (45 to 135 a run) of the traced cell that
``repro bench`` holds to a 3% tracing overhead.  Mutations hold the
Timer's lock: service threads and the profiler hook share Timers.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.obs.spans import current_tracer

_LOCAL = threading.local()


@dataclass
class Timer:
    """Accumulating named stopwatch.

    Example
    -------
    >>> timer = Timer()
    >>> with timer.recording():
    ...     with measure("lp"):
    ...         pass
    >>> "lp" in timer.totals
    True
    """

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    @contextmanager
    def recording(self) -> Iterator["Timer"]:
        """Make this the active Timer of this thread for the block."""
        prev = getattr(_LOCAL, "timer", None)
        _LOCAL.timer = self
        try:
            yield self
        finally:
            _LOCAL.timer = prev

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` against ``name`` directly."""
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + seconds
            self.counts[name] = self.counts.get(name, 0) + 1

    def merge(self, totals: Dict[str, float], counts: Dict[str, int]) -> None:
        """Fold another timer's ``totals``/``counts`` into this one."""
        with self._lock:
            for name, seconds in totals.items():
                self.totals[name] = self.totals.get(name, 0.0) + seconds
            for name, count in counts.items():
                self.counts[name] = self.counts.get(name, 0) + count

    def mean(self, name: str) -> float:
        """Mean elapsed seconds per measurement of ``name``."""
        with self._lock:
            if self.counts.get(name, 0) == 0:
                return 0.0
            return self.totals[name] / self.counts[name]

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Snapshot as plain data: ``{"totals": {...}, "counts": {...}}``.

        The round-trip half of :meth:`from_dict` — what crosses process
        boundaries and lands in JSON payloads.
        """
        with self._lock:
            return {"totals": dict(self.totals), "counts": dict(self.counts)}

    @staticmethod
    def from_dict(data: Dict[str, Dict[str, float]]) -> "Timer":
        """Rebuild a :class:`Timer` from :meth:`as_dict` output."""
        return Timer(
            totals=dict(data.get("totals", {})),
            counts={k: int(v) for k, v in data.get("counts", {}).items()},
        )

    def report(self) -> str:
        """Human-readable multi-line summary, sorted by total time."""
        with self._lock:
            totals = dict(self.totals)
            counts = dict(self.counts)
        lines = []
        for name in sorted(totals, key=totals.get, reverse=True):
            count = counts.get(name, 0)
            mean = totals[name] / count if count else 0.0
            lines.append(
                f"{name:<30s} total={totals[name]:9.3f}s "
                f"n={count:<6d} mean={mean:9.4f}s"
            )
        return "\n".join(lines)


def current_timer() -> Optional[Timer]:
    """The innermost :class:`Timer` active on this thread, or ``None``."""
    return getattr(_LOCAL, "timer", None)


class measure:
    """``with measure(name):`` times the block as phase ``name``."""

    __slots__ = ("_name", "_timer", "_tracer", "_span", "_start")

    def __init__(self, name: str):
        self._name = name

    def __enter__(self) -> "measure":
        self._timer = getattr(_LOCAL, "timer", None)
        self._tracer = tracer = current_tracer()
        if tracer is not None:
            self._span = tracer.open(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        if self._timer is not None:
            self._timer.add(self._name, elapsed)
        if self._tracer is not None:
            self._tracer.close(self._span, duration=elapsed)
