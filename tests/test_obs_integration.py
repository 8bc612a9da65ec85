"""Integration tests for ``repro.obs`` across the real execution paths.

The claims the observability layer makes — span sums reconcile with the
sweep timer, trace IDs survive multiprocessing executors and the
service worker path, and a fixed-seed sweep's span log is byte-stable
modulo timestamps — are only meaningful end-to-end, so these tests run
real (tiny) sweeps, a real threaded service, and the real file-backed
job queue.
"""

from __future__ import annotations

import json

import pytest

from repro.api.store import ResultStore, canonical_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_sweep
from repro.obs import parse_metric, read_spans, validate_span
from repro.obs.metrics import get_registry
from repro.service import (
    BrokerConfig,
    Job,
    JobQueue,
    ServiceClient,
    ServiceThread,
    execute_job,
)
from repro.workloads.synthetic import poisson_uniform_workload


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_ports=6,
        load_ratios=(0.5,),
        generation_rounds=(3,),
        trials=2,
        lp_round_limit=3,
        seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def stripped(spans):
    """Span records minus the volatile wall-clock fields."""
    out = []
    for s in spans:
        s = dict(s)
        s.pop("start"), s.pop("end"), s.pop("dur")
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# Traced sweeps
# ---------------------------------------------------------------------------


class TestTracedSweep:
    def test_serial_sweep_spans_reconcile_with_timer(self, tmp_path):
        trace = tmp_path / "sweep.jsonl"
        sweep = run_sweep(tiny_config(), trace=str(trace))
        spans = read_spans(str(trace))
        assert spans, "traced sweep wrote no spans"
        for s in spans:
            assert validate_span(s) == []
        # Exactly one trace, deterministic from the config.
        assert len({s["trace"] for s in spans}) == 1
        # Per-phase span sums equal the sweep timer totals exactly: the
        # timer->span bridge closes each span with the very delta it
        # added to the timer, and file order is add order.
        sums = {}
        for s in spans:
            if s["name"] in sweep.timer.totals:
                sums[s["name"]] = sums.get(s["name"], 0.0) + s["dur"]
        assert sums, "no timer-bridged spans found"
        for name, total in sums.items():
            assert total == sweep.timer.totals[name], name

    def test_span_parents_all_recorded(self, tmp_path):
        trace = tmp_path / "sweep.jsonl"
        run_sweep(tiny_config(), trace=str(trace))
        spans = read_spans(str(trace))
        ids = {s["span"] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                assert s["parent"] in ids, (
                    f"span {s['span']} has unrecorded parent {s['parent']}"
                )

    def test_multiprocessing_sweep_propagates_one_trace(self, tmp_path):
        trace = tmp_path / "mp.jsonl"
        config = tiny_config()
        sweep = run_sweep(config, jobs=2, trace=str(trace))
        spans = read_spans(str(trace))
        assert spans
        for s in spans:
            assert validate_span(s) == []
        # One trace ID across the process boundary...
        assert len({s["trace"] for s in spans}) == 1
        # ...with the worker-side spans grafted under recorded parents.
        ids = {s["span"] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                assert s["parent"] in ids
        # The sweep still produced the same cells.
        assert set(sweep.cells) == set(run_sweep(config).cells)

    def test_fixed_seed_span_log_is_stable_modulo_timestamps(self, tmp_path):
        # The LP bounds keep no state between calls, so the second run
        # does the first run's work, bounds included.
        config = tiny_config()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_sweep(config, trace=str(a))
        run_sweep(config, trace=str(b))
        assert stripped(read_spans(str(a))) == stripped(read_spans(str(b)))

    def test_traced_sweep_populates_shared_registry(self, tmp_path):
        run_sweep(tiny_config(), trace=str(tmp_path / "t.jsonl"))
        text = get_registry().render()
        assert parse_metric(text, "repro_simulate_seconds_count") is not None


# ---------------------------------------------------------------------------
# Service worker path (the --join carrier)
# ---------------------------------------------------------------------------


class TestJobTraceCarrier:
    def test_execute_job_ships_spans_in_outcome(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        instance = poisson_uniform_workload(4, 3.0, 3, seed=1)
        job = Job(
            key=canonical_key("Greedy", instance.digest(), {}),
            solver="Greedy",
            instance=instance.to_dict(),
            trace={"trace_id": "a" * 16, "span_id": "0"},
        )
        outcome = execute_job(job, store)
        assert outcome["ok"]
        spans = outcome["spans"]
        assert spans, "traced job shipped no spans"
        for s in spans:
            assert validate_span(s) == []
            assert s["trace"] == "a" * 16
        names = {s["name"] for s in spans}
        assert "job" in names
        job_span = next(s for s in spans if s["name"] == "job")
        assert job_span["span"] == "0.job"
        assert job_span["parent"] == "0"

    def test_job_trace_survives_queue_roundtrip(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        instance = poisson_uniform_workload(4, 3.0, 3, seed=2)
        job = Job(
            key=canonical_key("Greedy", instance.digest(), {}),
            solver="Greedy",
            instance=instance.to_dict(),
            trace={"trace_id": "b" * 16, "span_id": "0"},
        )
        assert queue.enqueue(job)
        claimed = queue.claim(job.key, owner="test-worker")
        assert claimed is not None
        assert claimed.trace == {"trace_id": "b" * 16, "span_id": "0"}

    def test_malformed_carrier_runs_untraced(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        instance = poisson_uniform_workload(4, 3.0, 3, seed=3)
        job = Job(
            key=canonical_key("Greedy", instance.digest(), {}),
            solver="Greedy",
            instance=instance.to_dict(),
            trace={"bogus": True},
        )
        outcome = execute_job(job, store)
        assert outcome["ok"]
        assert "spans" not in outcome


# ---------------------------------------------------------------------------
# Service end-to-end
# ---------------------------------------------------------------------------


class TestTracedService:
    def test_trace_id_echo_and_span_log(self, tmp_path):
        trace_path = tmp_path / "service.jsonl"
        with ServiceThread(
            str(tmp_path / "cache"),
            workers=1,
            worker_mode="thread",
            trace=str(trace_path),
            config=BrokerConfig(
                queue_depth=8, solver_cap=4, default_timeout=30.0,
                retry_after=0.25, poll_interval=0.005,
            ),
        ) as service:
            client = ServiceClient(service.address, timeout=60.0)
            instance = poisson_uniform_workload(4, 3.0, 3, seed=7)
            response = client.solve(
                "Greedy", instance=instance, trace="c" * 16
            )
            assert response.ok
            assert response.trace_id == "c" * 16
            # An untagged request still runs under a broker-minted trace.
            other = client.solve(
                "Greedy", instance=poisson_uniform_workload(4, 3.0, 3, seed=8)
            )
            assert other.ok and other.trace_id
            # The unified registry backs GET /metrics.
            text = client.metrics()
            assert parse_metric(
                text, "repro_solve_requests_total"
            ) is not None
        spans = read_spans(str(trace_path))
        assert spans, "traced service wrote no spans"
        for s in spans:
            assert validate_span(s) == []
        by_trace = {}
        for s in spans:
            by_trace.setdefault(s["trace"], set()).add(s["name"])
        assert "c" * 16 in by_trace
        assert "request" in by_trace["c" * 16]
        # The worker-side job span landed in the same trace.
        assert "job" in by_trace["c" * 16]
