"""Process-wide metrics registry with Prometheus text-format export.

The single canonical home for metric *names* as well as values: the
registry class (counters, gauges, fixed-bucket histograms keyed by
``(name, sorted labels)``) lives here so the service, the sweep runner,
and the batch kernels all feed one namespace.

Three layers live here:

* :class:`MetricsRegistry` — the registry itself, rendered in the
  Prometheus exposition format (text/plain 0.0.4) by ``render()``;
  exactly what ``GET /metrics`` serves.  Stdlib-only by design.
* The **canonical timer-event namespace** — :func:`timer_metric` maps
  every ``repro.utils.timing.Timer`` event name (``lp_bound_solve``,
  ``batch_match``, ``simulate:FIFO``, …) onto its canonical
  ``repro_*_seconds`` metric, and :func:`observe_event` records a span
  or timer duration under that name.  This is the bridge that makes a
  traced sweep populate the same registry the service scrapes.
* :data:`BENCH_SECONDS_KEYS` — the closed set of ``*_seconds`` keys a
  BENCH payload may contain, enforced by ``repro.bench`` so a typo'd
  key fails loudly instead of silently minting a new baseline series.

Updates are lock-protected so the asyncio loop, the broker's reaper,
in-process worker threads, and traced sweep threads can all feed the
same registry; :func:`parse_metric` is the inverse used by tests and
the CI smoke job to assert on scraped values.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

#: Default latency buckets (seconds).  Spans sub-millisecond cache hits
#: through multi-minute LP solves; +Inf is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 120.0,
)

#: Finer buckets for per-phase timer events, whose durations start in
#: the tens of microseconds (a single batched select) rather than the
#: milliseconds a whole request takes.
TIMER_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 120.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _render_labels(key: _LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Counter/gauge/histogram registry for one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, _LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], float] = {}
        # histogram -> mutable [bucket bounds, per-bucket (non-cumulative)
        # counts, sum, count]; rendered cumulatively.  Mutable so the hot
        # observe path updates in place instead of rebuilding tuples.
        self._hists: Dict[Tuple[str, _LabelKey], list] = {}
        self._help: Dict[str, Tuple[str, str]] = {}  # name -> (type, help)

    def _declare(self, name: str, kind: str, help_text: str) -> None:
        if name not in self._help:
            self._help[name] = (kind, help_text)

    def counter(
        self, name: str, amount: float = 1.0, help: str = "", **labels: str
    ) -> None:
        """Increment counter ``name`` (monotone; amount must be >= 0)."""
        with self._lock:
            self._declare(name, "counter", help)
            key = (name, _label_key(labels))
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def gauge(
        self, name: str, value: float, help: str = "", **labels: str
    ) -> None:
        """Set gauge ``name`` to ``value``."""
        with self._lock:
            self._declare(name, "gauge", help)
            self._gauges[(name, _label_key(labels))] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> None:
        """Record ``value`` into histogram ``name``."""
        self.observe_key(name, value, _label_key(labels), help, buckets)

    def observe_key(
        self,
        name: str,
        value: float,
        label_key: _LabelKey,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        """:meth:`observe` with an already-canonical label key.

        The per-span hot path (:func:`observe_event`) caches the sorted
        label tuple per event name and lands here directly — skipping
        the kwargs round-trip and re-sort on every closed span.
        """
        with self._lock:
            key = (name, label_key)
            entry = self._hists.get(key)
            if entry is None:
                self._declare(name, "histogram", help)
                entry = [tuple(buckets), [0] * len(buckets), 0.0, 0]
                self._hists[key] = entry
            bounds = entry[0]
            # Non-cumulative bucket counts (one increment per observe;
            # value <= bound belongs to the first such bucket); render()
            # accumulates to the Prometheus cumulative form.
            i = bisect_left(bounds, value)
            if i < len(bounds):
                entry[1][i] += 1
            entry[2] += float(value)
            entry[3] += 1

    def value(self, name: str, **labels: str) -> float:
        """Current counter/gauge value (0.0 when never touched)."""
        key = (name, _label_key(labels))
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key, 0.0)

    def histogram_sum(self, name: str, **labels: str) -> float:
        """Sum of all observations into histogram ``name`` (0.0 if none)."""
        key = (name, _label_key(labels))
        with self._lock:
            entry = self._hists.get(key)
            return entry[2] if entry is not None else 0.0

    def render(self) -> str:
        """The registry in Prometheus exposition format (0.0.4)."""
        with self._lock:
            lines: List[str] = []
            for name in sorted(self._help):
                kind, help_text = self._help[name]
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                if kind == "counter":
                    series = self._counters
                elif kind == "gauge":
                    series = self._gauges
                else:
                    for (hname, key), entry in sorted(self._hists.items()):
                        if hname != name:
                            continue
                        bounds, counts, total, n = entry
                        running = 0
                        for bound, count in zip(bounds, counts):
                            running += count
                            le = f'le="{_format_value(bound)}"'
                            lines.append(
                                f"{name}_bucket{_render_labels(key, le)} "
                                f"{running}"
                            )
                        inf = 'le="+Inf"'
                        lines.append(
                            f"{name}_bucket{_render_labels(key, inf)} {n}"
                        )
                        lines.append(
                            f"{name}_sum{_render_labels(key)} "
                            f"{_format_value(total)}"
                        )
                        lines.append(f"{name}_count{_render_labels(key)} {n}")
                    continue
                for (sname, key), value in sorted(series.items()):
                    if sname != name:
                        continue
                    lines.append(
                        f"{name}{_render_labels(key)} {_format_value(value)}"
                    )
            return "\n".join(lines) + "\n" if lines else ""


def parse_metric(
    text: str, name: str, **labels: str
) -> Optional[float]:
    """Read one series value back out of :meth:`MetricsRegistry.render`.

    Matches ``name`` exactly and requires every given label pair to be
    present on the series (extra labels on the line are allowed, so
    callers can select e.g. ``endpoint="solve"`` without naming every
    label).  Returns ``None`` when no line matches — the assertion
    helper for tests and the CI smoke job.
    """
    want = [f'{k}="{_escape(str(v))}"' for k, v in labels.items()]
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        if not head or not value:
            continue
        series, brace, labelpart = head.partition("{")
        if series != name:
            continue
        if brace and not labelpart.endswith("}"):
            continue
        body = labelpart[:-1] if brace else ""
        if all(pair in body for pair in want):
            try:
                return float(value)
            except ValueError:
                return None
    return None


# ---------------------------------------------------------------------------
# The process-wide default registry
# ---------------------------------------------------------------------------

REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide shared registry (what ``repro serve`` exposes)."""
    return REGISTRY


# ---------------------------------------------------------------------------
# Canonical timer-event -> metric namespace
# ---------------------------------------------------------------------------

#: Timer/span event names with a dedicated canonical metric.  Everything
#: else falls through to ``repro_<slug>_seconds`` via :func:`timer_metric`.
_EVENT_METRICS: Dict[str, str] = {
    "lp_bound_solve": "repro_lp_solve_seconds",
    "lp_bound_build": "repro_lp_build_seconds",
    "lp_avg_bound": "repro_lp_avg_bound_seconds",
    "lp_max_bound": "repro_lp_max_bound_seconds",
    "batch_select": "repro_batch_select_seconds",
    "batch_match": "repro_batch_match_seconds",
    "batch_pack": "repro_batch_pack_seconds",
    "batch_generate": "repro_batch_generate_seconds",
    "generate": "repro_generate_seconds",
    "solve": "repro_solve_seconds",
    "verify": "repro_verify_seconds",
    "sim_round": "repro_sim_round_seconds",
    "matching_solve": "repro_matching_solve_seconds",
    "coloring": "repro_coloring_seconds",
    "amrt_batch": "repro_amrt_batch_seconds",
    "rounding_lp": "repro_rounding_lp_seconds",
}

_SLUG_RE = re.compile(r"[^a-zA-Z0-9_]+")


def _slug(event: str) -> str:
    slug = _SLUG_RE.sub("_", event).strip("_").lower()
    return slug or "unnamed"


def timer_metric(event: str) -> Tuple[str, Dict[str, str]]:
    """Canonical ``(metric_name, labels)`` for a timer/span event name.

    ``simulate:<solver>`` events share one metric with a ``solver``
    label; ``lp:*`` aggregate keys map to their bound kind; anything
    unrecognized gets ``repro_<slug>_seconds`` so no duration is ever
    dropped on the floor.
    """
    if event.startswith("simulate:"):
        return "repro_simulate_seconds", {"solver": event.split(":", 1)[1]}
    known = _EVENT_METRICS.get(event)
    if known is not None:
        return known, {}
    return f"repro_{_slug(event)}_seconds", {}


@lru_cache(maxsize=1024)
def _event_series(event: str) -> Tuple[str, _LabelKey, str]:
    """Cached ``(metric name, canonical label key, help text)`` per event
    name — the per-span hot path must not re-derive these on every
    close."""
    name, labels = timer_metric(event)
    return (
        name,
        _label_key(labels),
        f"Seconds spent in the '{event}' phase.",
    )


def observe_event(
    event: str,
    seconds: float,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Record one timer/span duration under its canonical metric name."""
    reg = registry if registry is not None else REGISTRY
    name, label_key, help_text = _event_series(event)
    reg.observe_key(
        name,
        float(seconds),
        label_key,
        help=help_text,
        buckets=TIMER_BUCKETS,
    )


def event_observer(
    event: str, registry: Optional[MetricsRegistry] = None
):
    """A pre-resolved observer closure for one timer/span event name.

    Does the name mapping, label canonicalization, declaration, and
    histogram-entry creation once, up front; the returned callable only
    takes the registry lock, bisects, and increments.  This is what the
    tracer caches per span name — the per-closed-span metrics cost has
    to stay near the cost of the increments themselves for the traced
    overhead gate to hold on span-dense batch cells.
    """
    reg = registry if registry is not None else REGISTRY
    name, label_key, help_text = _event_series(event)
    with reg._lock:
        key = (name, label_key)
        entry = reg._hists.get(key)
        if entry is None:
            reg._declare(name, "histogram", help_text)
            entry = [
                tuple(TIMER_BUCKETS), [0] * len(TIMER_BUCKETS), 0.0, 0,
            ]
            reg._hists[key] = entry
    lock = reg._lock
    bounds, counts = entry[0], entry[1]
    n_buckets = len(bounds)

    def observe(seconds: float) -> None:
        with lock:
            i = bisect_left(bounds, seconds)
            if i < n_buckets:
                counts[i] += 1
            entry[2] += seconds
            entry[3] += 1

    return observe


def record_store(event: str, amount: int = 1) -> None:
    """Count a :class:`~repro.api.store.ResultStore` event.

    ``event`` is one of ``hits``/``misses``/``puts``; maps onto
    ``repro_store_hits_total`` etc. on the shared registry.
    """
    REGISTRY.counter(
        f"repro_store_{event}_total",
        float(amount),
        help=f"Total ResultStore {event}.",
    )


# ---------------------------------------------------------------------------
# Canonical BENCH payload keys
# ---------------------------------------------------------------------------

#: The closed set of ``*_seconds`` keys a BENCH payload may carry.
#: ``repro.bench`` rejects any other ``*_seconds`` key before
#: normalizing, so a renamed or typo'd timing silently minting a fresh
#: baseline series fails loudly instead.  Extend this set (here, in the
#: registry) when a benchmark legitimately grows a new timing.
BENCH_SECONDS_KEYS = frozenset(
    {
        "seconds",
        "serial_seconds",
        "batched_seconds",
        "batched_phase_seconds",
        "legacy_seconds",
        "new_seconds",
        "generate_seconds",
        "simulate_seconds",
        "traced_seconds",
        "untraced_seconds",
    }
)


def is_canonical_seconds_key(key: str) -> bool:
    """Whether ``key`` (a BENCH payload field ending ``_seconds`` or the
    bare ``seconds``) is registered in :data:`BENCH_SECONDS_KEYS`."""
    return key in BENCH_SECONDS_KEYS
