"""Shared pytest-benchmark configuration.

``--json-out [PATH]`` (default ``BENCH_matching.json``) makes the bench
session write machine-readable throughput numbers — ops/sec per kernel
per size — for every benchmark that registers itself through the
``record_ops`` fixture.  The same schema is produced by running
``benchmarks/bench_matching.py`` as a script (which needs no
pytest-benchmark; CI's bench-smoke job uses that mode).
"""

from __future__ import annotations

import json

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--json-out",
        action="store",
        nargs="?",
        const="BENCH_matching.json",
        default=None,
        help="write ops/sec per kernel per size to this JSON file",
    )


@pytest.fixture
def record_ops(request):
    """Record a finished ``benchmark`` run under (kernel, size).

    Usage: ``benchmark(fn); record_ops(benchmark, "kernel", "size")``.
    No-op unless the session was started with ``--json-out``.
    """
    path = request.config.getoption("--json-out")

    def _record(benchmark, kernel: str, size: str) -> None:
        if path is None or benchmark.stats is None:
            return
        store = getattr(request.config, "_bench_records", None)
        if store is None:
            store = {}
            request.config._bench_records = store
        mean = benchmark.stats["mean"]
        store.setdefault(kernel, {})[size] = {
            "seconds": mean,
            "ops_per_sec": (1.0 / mean) if mean > 0 else float("inf"),
        }

    return _record


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--json-out", default=None)
    records = getattr(session.config, "_bench_records", None)
    if path and records:
        with open(path, "w") as fh:
            json.dump({"kernels": records}, fh, indent=1, sort_keys=True)

