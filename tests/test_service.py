"""Tests for the solve service (``repro.service``).

Covers the wire protocol, the metrics registry, the filesystem work
queue, worker execution, and — through a real threaded server fixture —
the end-to-end behaviours the subsystem exists for: digest-coalescing
(N identical concurrent requests, exactly one solve), admission control
with ``Retry-After``, structured timeout errors, ``/metrics``
observability, and multi-pool work stealing with zero duplicate solves.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.api.store import ResultStore, canonical_key, live_records
from repro.core.instance import Instance
from repro.service import (
    BrokerConfig,
    Job,
    JobQueue,
    MetricsRegistry,
    ProtocolError,
    ServiceClient,
    ServiceError,
    ServiceThread,
    SolveRequest,
    SolveResponse,
    WorkerPool,
    error_response,
    execute_job,
    parse_metric,
    worker_loop,
)
from repro.workloads.synthetic import poisson_uniform_workload


def small_instance(seed: int = 0) -> Instance:
    """A tiny (fast-to-solve) distinct-per-seed instance."""
    return poisson_uniform_workload(4, 3.0, 3, seed=seed)


def shard_line_count(cache_dir) -> int:
    """Total records ever appended across every store shard.

    The duplicate-solve detector: every solve appends exactly one line
    to its worker's shard, so N unique jobs solved exactly once leave
    exactly N lines — a duplicate solve leaves N+1 even though the
    last-writer-wins *index* would hide it.
    """
    return sum(
        len([ln for ln in path.read_text().splitlines() if ln.strip()])
        for path in Path(cache_dir).glob("results-*.jsonl")
    )


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_request_roundtrip(self):
        request = SolveRequest(
            solver="Greedy",
            instance=small_instance().to_dict(),
            params={"x": 1},
            verify=True,
            timeout=5.0,
        )
        again = SolveRequest.from_dict(request.to_dict())
        assert again == request

    def test_scenario_request_roundtrip(self):
        request = SolveRequest(solver="FS-MRT", scenario="hotspot:ports=8",
                               seed=3)
        assert SolveRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize(
        "body,code",
        [
            ({"solver": "Greedy"}, "bad-request"),  # no instance/scenario
            ({"scenario": "hotspot"}, "bad-request"),  # no solver
            ({"solver": "G", "scenario": "h", "instance": {}},
             "bad-request"),  # both sources
            ({"solver": "G", "scenario": "h", "bogus": 1}, "bad-request"),
            ({"solver": "G", "scenario": "h", "seed": "x"}, "bad-request"),
            ({"solver": "G", "scenario": "h", "timeout": -1}, "bad-request"),
            ({"solver": "G", "scenario": "h", "schema_version": 99},
             "unsupported-version"),
        ],
    )
    def test_request_validation(self, body, code):
        with pytest.raises(ProtocolError) as excinfo:
            SolveRequest.from_dict(body)
        assert excinfo.value.code == code

    def test_response_roundtrip_and_error(self):
        response = error_response("queue-full", "busy", retry_after=2.5)
        again = SolveResponse.from_dict(response.to_dict())
        assert not again.ok
        assert again.error.code == "queue-full"
        assert again.error.retry_after == 2.5
        with pytest.raises(ValueError):
            again.solve_report()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_render_parse(self):
        m = MetricsRegistry()
        m.counter("a_total", help="a", solver="G")
        m.counter("a_total", solver="G")
        m.gauge("depth", 3, help="d")
        m.observe("lat_seconds", 0.03, help="l", endpoint="solve")
        text = m.render()
        assert "# TYPE a_total counter" in text
        assert parse_metric(text, "a_total", solver="G") == 2
        assert parse_metric(text, "depth") == 3
        assert parse_metric(text, "lat_seconds_count", endpoint="solve") == 1
        # 0.03 lands in every bucket with bound >= 0.05
        assert parse_metric(text, "lat_seconds_bucket", le="0.05") == 1
        assert parse_metric(text, "lat_seconds_bucket", le="0.005") == 0
        assert parse_metric(text, "lat_seconds_bucket", le="+Inf") == 1
        assert parse_metric(text, "nope") is None

    def test_label_escaping(self):
        m = MetricsRegistry()
        m.counter("e_total", kind='we"ird\nname')
        text = m.render()
        assert '\\"' in text and "\\n" in text
        assert parse_metric(text, "e_total", kind='we"ird\nname') == 1

    def test_value_reads_back(self):
        m = MetricsRegistry()
        m.counter("c_total", amount=4)
        assert m.value("c_total") == 4
        assert m.value("untouched") == 0.0


# ---------------------------------------------------------------------------
# Work queue
# ---------------------------------------------------------------------------


def _job(key="k1", seed=0, solver="Greedy", verify=False) -> Job:
    return Job(
        key=key,
        solver=solver,
        instance=small_instance(seed).to_dict(),
        verify=verify,
    )


class TestJobQueue:
    def test_enqueue_claim_complete_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path)
        assert queue.enqueue(_job())
        assert queue.pending_keys() == ["k1"]
        # Second broker enqueueing the same key is a no-op.
        assert not queue.enqueue(_job())
        job = queue.claim("k1", "me")
        assert job is not None and job.solver == "Greedy"
        # The claim is exclusive: a racing worker loses.
        assert queue.claim("k1", "other") is None
        queue.complete("k1", {"ok": True, "key": "k1"})
        assert queue.pending_keys() == []
        assert queue.done_keys() == ["k1"]
        # Done markers are read non-destructively, then discarded.
        assert queue.read_done("k1")["ok"] is True
        assert queue.read_done("k1")["ok"] is True
        queue.discard_done("k1")
        assert queue.read_done("k1") is None
        # A done marker also blocks re-enqueueing until consumed.
        queue.enqueue(_job())
        assert queue.pending_keys() == ["k1"]

    def test_concurrent_claims_exactly_one_winner(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_job())
        wins = []
        barrier = threading.Barrier(8)

        def racer(i):
            barrier.wait()
            if queue.claim("k1", f"w{i}") is not None:
                wins.append(i)

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_stale_claim_broken_fresh_claim_kept(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_job())
        assert queue.claim("k1", "crashed") is not None
        # Fresh claim survives a scan.
        assert queue.claim("k1", "thief", stale_after=600) is None
        # Backdate the claim beyond the staleness bound; the first
        # attempt breaks it, the next wins it.
        claim = queue.dir / "k1.claim"
        import os

        old = time.time() - 10_000
        os.utime(claim, (old, old))
        assert queue.claim("k1", "thief", stale_after=600) is None
        job = queue.claim("k1", "thief", stale_after=600)
        assert job is not None

    def test_claim_on_vanished_job_releases(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_job())
        (queue.dir / "k1.job").unlink()
        assert queue.claim("k1", "me") is None
        # The claim was released, not wedged.
        assert not (queue.dir / "k1.claim").exists()

    def test_sweep_done(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_job())
        queue.claim("k1", "me")
        queue.complete("k1", {"ok": True})
        assert queue.sweep_done(older_than=9_999) == 0
        assert queue.sweep_done(older_than=-1) == 1
        assert queue.done_keys() == []

    def test_job_schema_version_rejected(self):
        data = _job().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            Job.from_dict(data)


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


class TestWorkers:
    def test_execute_job_stores_and_reports(self, tmp_path):
        inst = small_instance(1)
        key = canonical_key("Greedy", inst.digest(), {})
        store = ResultStore(tmp_path)
        outcome = execute_job(_job(key=key, seed=1, verify=True), store)
        store.close()
        assert outcome["ok"] and outcome["certified"]
        assert outcome["key"] == key
        assert outcome["timings"]["solve"] > 0
        # The stored record is the sweep-identical stripped payload.
        fresh = ResultStore(tmp_path)
        record = fresh.get("Greedy", inst.digest(), {})
        assert record == outcome["report"]
        assert "timings" not in record or not record["timings"]
        fresh.close()

    def test_execute_job_failure_is_structured(self, tmp_path):
        store = ResultStore(tmp_path)
        bad = Job(
            key="bad", solver="NoSuchSolver",
            instance=small_instance().to_dict(),
        )
        outcome = execute_job(bad, store)
        store.close()
        assert not outcome["ok"]
        assert outcome["error"]["code"] == "solver-error"
        assert "NoSuchSolver" in outcome["error"]["message"]

    def test_worker_loop_drains_and_stops(self, tmp_path):
        queue = JobQueue(tmp_path)
        keys = []
        for i in range(4):
            inst = small_instance(i)
            key = canonical_key("Greedy", inst.digest(), {})
            queue.enqueue(Job(key=key, solver="Greedy",
                              instance=inst.to_dict()))
            keys.append(key)
        stop = threading.Event()
        done = threading.Thread(
            target=lambda: (time.sleep(0.05), stop.set())
        )

        seen = []
        counts = {}

        def spin():
            counts["n"] = worker_loop(
                str(tmp_path), stop, poll_interval=0.01,
                on_job=seen.append,
            )

        worker = threading.Thread(target=spin)
        worker.start()
        deadline = time.time() + 20
        while queue.pending_keys() and time.time() < deadline:
            time.sleep(0.01)
        done.start()
        stop.set()
        worker.join(20)
        done.join()
        assert counts["n"] == 4
        assert sorted(j.key for j in seen) == sorted(keys)
        assert sorted(queue.done_keys()) == sorted(keys)
        for key in keys:
            assert queue.read_done(key)["ok"] is True

    def test_two_pools_drain_50_jobs_zero_duplicates(self, tmp_path):
        """Acceptance: two pools over one cache dir, 50 jobs, 50 solves."""
        queue = JobQueue(tmp_path)
        keys = set()
        for i in range(50):
            inst = small_instance(i)
            key = canonical_key("Greedy", inst.digest(), {})
            queue.enqueue(Job(key=key, solver="Greedy",
                              instance=inst.to_dict()))
            keys.add(key)
        assert len(keys) == 50  # distinct seeds -> distinct digests
        pool_a = WorkerPool(tmp_path, 2, mode="thread", poll_interval=0.005)
        pool_b = WorkerPool(tmp_path, 2, mode="thread", poll_interval=0.005)
        with pool_a, pool_b:
            deadline = time.time() + 60
            while queue.pending_keys() and time.time() < deadline:
                time.sleep(0.02)
        assert queue.pending_keys() == []
        live = live_records(tmp_path)
        assert set(live) == keys
        # Zero duplicate solves: exactly one shard line per job, ever.
        assert shard_line_count(tmp_path) == 50


# ---------------------------------------------------------------------------
# End-to-end service (threaded server fixture)
# ---------------------------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    """A live service: thread workers, tight polling, short timeouts."""
    with ServiceThread(
        str(tmp_path / "cache"),
        workers=2,
        worker_mode="thread",
        config=BrokerConfig(
            queue_depth=8, solver_cap=4, default_timeout=30.0,
            retry_after=0.25, poll_interval=0.005,
        ),
    ) as thread:
        yield thread


class TestServiceEndToEnd:
    def test_roundtrip_solve_cache_and_result(self, service):
        client = ServiceClient(service.address, timeout=60.0)
        inst = small_instance(2)
        first = client.solve("Greedy", instance=inst, verify=True)
        assert first.ok and first.source == "solved" and first.certified
        assert first.digest == inst.digest()
        report = first.solve_report()
        assert report.solver == "Greedy"
        assert report.metrics is not None
        # Identical resubmission is answered from the store.
        second = client.solve("Greedy", instance=inst)
        assert second.source == "cache"
        # GET /result finds it by content address...
        fetched = client.result(inst.digest(), "Greedy")
        assert fetched.ok and fetched.report == first.report
        # ...and 404s cleanly for an unknown address.
        with pytest.raises(ServiceError) as excinfo:
            client.result("0" * 64, "Greedy")
        assert excinfo.value.code == "not-found"
        assert excinfo.value.status == 404

    def test_scenario_request_solved_server_side(self, service):
        client = ServiceClient(service.address, timeout=60.0)
        response = client.solve(
            "Greedy", scenario="hotspot:ports=8,mean=4,horizon=6", seed=5
        )
        assert response.ok
        from repro.scenarios import build_instance

        assert response.digest == build_instance(
            "hotspot:ports=8,mean=4,horizon=6", seed=5
        ).digest()

    def test_unknown_solver_rejected(self, service):
        client = ServiceClient(service.address, timeout=60.0)
        with pytest.raises(ServiceError) as excinfo:
            client.solve("NoSuchSolver", instance=small_instance())
        assert excinfo.value.code == "unknown-solver"
        assert excinfo.value.status == 400

    def test_healthz(self, service):
        payload = ServiceClient(service.address, timeout=60.0).healthz()
        assert payload["status"] == "ok"

    def test_coalescing_16_identical_requests_one_solve(self, service):
        """Acceptance: 16 concurrent identical-digest requests, 1 solve."""
        client = ServiceClient(service.address, timeout=60.0)
        inst = small_instance(33)
        results = [None] * 16
        barrier = threading.Barrier(16)

        def submit(i):
            barrier.wait()
            results[i] = client.solve("Greedy", instance=inst, timeout=30)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is not None and r.ok for r in results)
        reports = {json.dumps(r.report, sort_keys=True) for r in results}
        assert len(reports) == 1  # every waiter saw the same record
        # Exactly one solve hit the store...
        cache_dir = service.service.broker.cache_dir
        assert shard_line_count(cache_dir) == 1
        # ...and the coalesce counter proves 15 requests attached.
        text = client.metrics()
        assert parse_metric(text, "repro_coalesced_total") == 15
        assert parse_metric(
            text, "repro_solved_total", solver="Greedy"
        ) == 1
        sources = sorted(r.source for r in results)
        assert sources.count("coalesced") == 15
        assert sources.count("solved") == 1

    def test_metrics_endpoint_nonzero_after_traffic(self, service):
        client = ServiceClient(service.address, timeout=60.0)
        client.solve("Greedy", instance=small_instance(8))
        client.solve("Greedy", instance=small_instance(8))
        text = client.metrics()
        assert parse_metric(
            text, "repro_http_requests_total", endpoint="solve",
            status="200",
        ) == 2
        assert parse_metric(text, "repro_cache_hits_total") == 1
        assert parse_metric(text, "repro_solved_total", solver="Greedy") == 1
        assert parse_metric(
            text, "repro_request_seconds_count", endpoint="solve"
        ) == 2
        assert (
            parse_metric(text, "repro_solve_seconds_count", solver="Greedy")
            == 1
        )


class TestAdmissionAndTimeouts:
    """Against a worker-less service, so jobs stay queued forever."""

    @pytest.fixture
    def stalled(self, tmp_path):
        with ServiceThread(
            str(tmp_path / "cache"),
            workers=0,
            config=BrokerConfig(
                queue_depth=2, solver_cap=1, default_timeout=30.0,
                retry_after=1.5, poll_interval=0.005,
            ),
        ) as thread:
            yield thread

    def test_timeout_is_structured_and_leaves_work_running(self, stalled):
        client = ServiceClient(stalled.address, timeout=60.0)
        inst = small_instance(40)
        with pytest.raises(ServiceError) as excinfo:
            client.solve("Greedy", instance=inst, timeout=0.1)
        assert excinfo.value.code == "timeout"
        assert excinfo.value.status == 504
        # The job is still queued (the solve was not cancelled)...
        queue = JobQueue(stalled.service.broker.cache_dir)
        assert len(queue.pending_keys()) == 1
        # ...so a late-joining worker finishes it and the result serves.
        pool = WorkerPool(
            stalled.service.broker.cache_dir, 1, mode="thread",
            poll_interval=0.005,
        )
        with pool:
            # Wait on GET /result (the path the 504 advertises) until the
            # late worker has stored the record.  A resubmission sent
            # while the key is still pending would be coalesced onto it.
            deadline = time.time() + 30
            while True:
                try:
                    stored = client.result(inst.digest(), "Greedy")
                    break
                except ServiceError as exc:
                    assert exc.code == "not-found", exc
                    assert time.time() < deadline, "late worker never stored"
                    time.sleep(0.01)
            response = client.solve("Greedy", instance=inst, timeout=30)
        assert stored.ok
        assert response.ok and response.source == "cache"

    def test_solver_cap_rejects_with_retry_after(self, stalled):
        client = ServiceClient(stalled.address, timeout=60.0)
        results = {}

        def bg(i):
            try:
                client.solve("Greedy", instance=small_instance(50 + i),
                             timeout=1.2)
            except ServiceError as exc:
                results[i] = exc

        # First request occupies the solver's single slot...
        t0 = threading.Thread(target=bg, args=(0,))
        t0.start()
        deadline = time.time() + 10
        while not stalled.service.broker.pending and time.time() < deadline:
            time.sleep(0.005)
        # ...so a different-digest request for the same solver bounces.
        with pytest.raises(ServiceError) as excinfo:
            client.solve("Greedy", instance=small_instance(60))
        assert excinfo.value.code == "solver-busy"
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 1.5
        t0.join()
        assert results[0].code == "timeout"

    def test_queue_depth_rejects_queue_full(self, tmp_path):
        with ServiceThread(
            str(tmp_path / "cache"),
            workers=0,
            config=BrokerConfig(
                queue_depth=1, solver_cap=8, default_timeout=30.0,
                retry_after=0.5, poll_interval=0.005,
            ),
        ) as thread:
            client = ServiceClient(thread.address, timeout=60.0)

            def bg():
                try:
                    client.solve("Greedy", instance=small_instance(70),
                                 timeout=1.2)
                except ServiceError:
                    pass

            t0 = threading.Thread(target=bg)
            t0.start()
            deadline = time.time() + 10
            broker = thread.service.broker
            while not broker.pending and time.time() < deadline:
                time.sleep(0.005)
            with pytest.raises(ServiceError) as excinfo:
                client.solve("FIFO", instance=small_instance(71))
            assert excinfo.value.code == "queue-full"
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 0.5
            rejected = parse_metric(
                client.metrics(), "repro_rejected_total", reason="queue-full"
            )
            assert rejected == 1
            t0.join()

    def test_client_retries_honour_retry_after(self, tmp_path):
        """A retrying client eventually lands once capacity frees up."""
        with ServiceThread(
            str(tmp_path / "cache"),
            workers=1,
            worker_mode="thread",
            config=BrokerConfig(
                queue_depth=1, solver_cap=8, default_timeout=30.0,
                retry_after=0.1, poll_interval=0.005,
            ),
        ) as thread:
            client = ServiceClient(thread.address, timeout=60.0)
            threads = [
                threading.Thread(
                    target=client.solve,
                    args=("Greedy",),
                    kwargs=dict(
                        instance=small_instance(80 + i),
                        timeout=30,
                        retries=100,
                    ),
                )
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            live = live_records(thread.service.broker.cache_dir)
            assert len(live) == 3
