"""repro.service — the long-lived solve service.

A stdlib-only (asyncio + ``http.client``) service that turns the
repository's content-addressed result store into a network-facing,
digest-batching solve endpoint:

* :mod:`~repro.service.protocol` — schema-versioned wire dataclasses
  (``SolveRequest`` / ``SolveResponse`` / ``ErrorInfo``).
* :mod:`~repro.service.broker` — per-digest request coalescing,
  admission control (bounded queue depth, per-solver caps, drain flag),
  per-request timeouts.
* :mod:`~repro.service.jobs` / :mod:`~repro.service.worker` — the
  filesystem work-stealing queue and the claim-solve-store worker
  loops; any process sharing the cache dir (``repro serve --join``)
  steals work with zero duplicate solves.
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — the
  asyncio HTTP front-end and the blocking client behind
  ``repro submit``.
* :mod:`repro.obs.metrics` (re-exported here) — Prometheus-text
  counters, gauges, and latency histograms served on ``GET /metrics``.

>>> from repro.service import ServiceThread, ServiceClient
>>> with ServiceThread(cache_dir, workers=2, worker_mode="thread") as svc:
...     response = ServiceClient(svc.address).solve(
...         "lp-rounding", scenario="hotspot:ports=8,mean=4,horizon=6")
"""

from repro.service.broker import BrokerConfig, SolveBroker
from repro.service.client import ServiceClient, ServiceError
from repro.obs.metrics import MetricsRegistry, parse_metric
from repro.service.jobs import Job, JobQueue
from repro.service.protocol import (
    ERROR_STATUS,
    PROTOCOL_VERSION,
    ErrorInfo,
    ProtocolError,
    SolveRequest,
    SolveResponse,
    error_response,
)
from repro.service.server import ServiceThread, SolveService
from repro.service.worker import WorkerPool, execute_job, worker_loop

__all__ = [
    "BrokerConfig",
    "SolveBroker",
    "ServiceClient",
    "ServiceError",
    "Job",
    "JobQueue",
    "MetricsRegistry",
    "parse_metric",
    "ERROR_STATUS",
    "PROTOCOL_VERSION",
    "ErrorInfo",
    "ProtocolError",
    "SolveRequest",
    "SolveResponse",
    "error_response",
    "ServiceThread",
    "SolveService",
    "WorkerPool",
    "execute_job",
    "worker_loop",
]
