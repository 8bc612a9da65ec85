"""Tests for the solve service (``repro.service``).

Covers the wire protocol, the metrics registry, the filesystem work
queue, worker execution, and — through a real threaded server fixture —
the end-to-end behaviours the subsystem exists for: digest-coalescing
(N identical concurrent requests, exactly one solve), admission control
with ``Retry-After``, structured timeout errors, ``/metrics``
observability, and multi-pool work stealing with zero duplicate solves.
The doorbell wake-ups are tested with 30 s poll intervals, so only a
ring can answer in time, and worker crashes with real SIGKILLs, run in
subprocesses so that a hang fails its test instead of the suite.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api.adapters import GreedySolver
from repro.api.registry import register_solver, unregister_solver
from repro.api.store import ResultStore, canonical_key, live_records
from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
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
from repro.service.broker import SolveBroker, _Pending
from repro.service.worker import Doorbell
from repro.workloads.synthetic import poisson_uniform_workload

#: ``PYTHONPATH`` for subprocesses: the tree this suite imports.
SRC = str(Path(repro.__file__).resolve().parents[1])

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="needs Linux /proc"
)


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

    def test_fs_mrt_greedy_shortcut_is_certified(self, service):
        # rho* = 4 = the greedy cap: FS-MRT returns the greedy schedule
        # with no LP, and certification still passes.
        inst = Instance.create(
            Switch.create(4), [Flow(i, 0) for i in range(4)]
        )
        client = ServiceClient(service.address, timeout=60.0)
        response = client.solve("FS-MRT", instance=inst, verify=True)
        assert response.ok and response.source == "solved"
        assert response.certified is True
        report = response.solve_report()
        assert report.extras["lp_solves"] == 0
        assert report.extras["rounding_iterations"] == 0
        assert report.metrics.max_augmentation == 0
        assert report.metrics.max_response == report.lower_bounds["rho_star"]

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

    @pytest.mark.parametrize("caps", [[1.5, 1, 1, 1], [10**30, 1, 1, 1]])
    def test_malformed_capacities_rejected(self, service, caps):
        """A float capacity was truncated and solved (HTTP 200), a
        capacity beyond int64 escaped as HTTP 500."""
        client = ServiceClient(service.address, timeout=60.0)
        payload = small_instance().to_dict()
        payload["switch"]["input_capacities"] = caps
        with pytest.raises(ServiceError) as excinfo:
            client.solve("Greedy", instance=payload)
        assert excinfo.value.code == "bad-request"
        assert excinfo.value.status == 400
        assert "input_capacities" in str(excinfo.value)

    def test_healthz(self, service):
        payload = ServiceClient(service.address, timeout=60.0).healthz()
        assert payload["status"] == "ok"

    def test_coalescing_16_identical_requests_one_solve(self, service):
        """Acceptance: 16 concurrent identical-digest requests, 1 solve.

        The solve waits until the broker counts 15 coalesced waiters, so
        no request can arrive after it finishes and become a cache hit.
        """
        client = ServiceClient(service.address, timeout=60.0)
        inst = small_instance(33)
        results = [None] * 16
        barrier = threading.Barrier(16)
        release = threading.Event()

        class GatedGreedy(GreedySolver):
            name = "GatedGreedy"

            def _solve(self, instance):
                release.wait(timeout=30)
                return super()._solve(instance)

        def submit(i):
            barrier.wait()
            results[i] = client.solve(
                "GatedGreedy", instance=inst, timeout=30
            )

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(16)
        ]
        register_solver("GatedGreedy", GatedGreedy)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and parse_metric(
                client.metrics(), "repro_coalesced_total"
            ) != 15:
                time.sleep(0.005)
        finally:
            release.set()
            for t in threads:
                t.join(timeout=60)
            unregister_solver("GatedGreedy")
        assert not any(t.is_alive() for t in threads)
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
            text, "repro_solved_total", solver="GatedGreedy"
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


# ---------------------------------------------------------------------------
# Doorbells: wake-ups instead of polls
# ---------------------------------------------------------------------------


def _enqueue_greedy(cache_dir, seeds) -> list:
    queue = JobQueue(cache_dir)
    keys = []
    for seed in seeds:
        inst = small_instance(seed)
        key = canonical_key("Greedy", inst.digest(), {})
        queue.enqueue(Job(key=key, solver="Greedy", instance=inst.to_dict()))
        keys.append(key)
    return keys


def _fill(bell: Doorbell) -> None:
    """Write into ``bell`` by hand until its pipe is full."""
    try:
        while True:
            os.write(bell._writer.fileno(), b"\0" * 4096)
    except BlockingIOError:
        pass


def _readable(bell: Doorbell) -> bool:
    return bool(select.select([bell.fileno()], [], [], 0)[0])


def _waiting(thread: threading.Thread) -> bool:
    """Whether ``thread`` is inside :meth:`Doorbell.wait`."""
    frame = sys._current_frames().get(thread.ident)
    while frame is not None:
        if frame.f_code is Doorbell.wait.__code__:
            return True
        frame = frame.f_back
    return False


def _spawn(*argv: str, **kwargs) -> subprocess.Popen:
    """Start a fresh interpreter in its own process group."""
    return subprocess.Popen(
        [sys.executable, *argv], text=True, start_new_session=True,
        env=dict(os.environ, PYTHONPATH=SRC), **kwargs,
    )


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL ``proc`` and every worker it left behind."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _run_script(tmp_path, code: str, *args: str, timeout: float):
    """Run ``code`` as a script in a fresh interpreter.

    Returns ``(returncode, stdout, stderr)``, or None when the script
    was still running after ``timeout`` seconds.
    """
    script = tmp_path / "script.py"
    script.write_text(code)
    proc = _spawn(
        str(script), *args, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        return None
    finally:
        _kill_group(proc)


def _child_pids(pid: int) -> list:
    """Live child processes of ``pid``, read from ``/proc``."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


class TestDoorbell:
    def test_ring_into_full_pipe_returns_at_once(self):
        bell = Doorbell()
        try:
            _fill(bell)
            ringer = threading.Thread(target=bell.ring, daemon=True)
            ringer.start()
            ringer.join(10)
            assert not ringer.is_alive()
            bell.wait(0)
            assert not _readable(bell)  # one wait drains every ring
        finally:
            bell.close()


class TestWakeups:
    """A 30 s poll interval on both sides: only a ring answers in time."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_fresh_solve_needs_no_poll(self, tmp_path, monkeypatch, mode):
        monkeypatch.setitem(
            WorkerPool.__init__.__kwdefaults__, "poll_interval", 30.0
        )
        with ServiceThread(
            str(tmp_path / "cache"), workers=1, worker_mode=mode,
            config=BrokerConfig(poll_interval=30.0),
        ) as svc:
            client = ServiceClient(svc.address, timeout=60.0)
            response = client.solve(
                "Greedy", instance=small_instance(90), timeout=5
            )
        assert response.ok and response.source == "solved"

    def test_no_lost_wakeups_under_contention(self, tmp_path, monkeypatch):
        """More workers than cores, tiny switch interval, 30 s polls."""
        monkeypatch.setitem(
            WorkerPool.__init__.__kwdefaults__, "poll_interval", 30.0
        )
        results = [None] * 24
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceThread(
                str(tmp_path / "cache"), workers=4, worker_mode="thread",
                config=BrokerConfig(
                    poll_interval=30.0, queue_depth=64, solver_cap=64
                ),
            ) as svc:
                client = ServiceClient(svc.address, timeout=60.0)

                def submit(i):
                    results[i] = client.solve(
                        "Greedy", instance=small_instance(200 + i), timeout=10
                    )

                threads = [
                    threading.Thread(target=submit, args=(i,))
                    for i in range(len(results))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert all(r is not None and r.source == "solved" for r in results)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_sweeps_counted_by_trigger(self, tmp_path, mode):
        with ServiceThread(
            str(tmp_path / "cache"), workers=1, worker_mode=mode
        ) as svc:
            client = ServiceClient(svc.address, timeout=60.0)
            response = client.solve("Greedy", instance=small_instance(91))
            text = client.metrics()
        assert response.source == "solved"
        assert parse_metric(
            text, "repro_reaper_sweeps_total", trigger="ring"
        ) >= 1

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_pool_without_broker_completes_jobs(self, tmp_path, mode):
        """The ``--join`` case: nobody reads the done bell."""
        keys = _enqueue_greedy(tmp_path, range(100, 104))
        queue = JobQueue(tmp_path)
        pool = WorkerPool(tmp_path, 2, mode=mode)
        _fill(pool.done)  # every ring the workers make hits a full pipe
        with pool:
            deadline = time.time() + 60
            while len(queue.done_keys()) < len(keys):
                assert time.time() < deadline, "jobs never completed"
                time.sleep(0.01)
        assert sorted(queue.done_keys()) == sorted(keys)
        assert all(queue.read_done(key)["ok"] for key in keys)

    @needs_proc
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_start_stop_cycles_leak_no_fds(self, tmp_path, mode):
        def cycle():
            with WorkerPool(tmp_path, 1, mode=mode):
                pass

        cycle()  # first use allocates the shared-memory arena of the flag
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(100):
            cycle()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_stop_wakes_idle_workers(self, tmp_path, mode):
        pool = WorkerPool(tmp_path, 2, mode=mode, poll_interval=30.0)
        pool.start()
        members = list(pool._members)
        time.sleep(1.0)  # both workers asleep in their idle wait
        pool.stop(timeout=10)
        assert not any(member.is_alive() for member in members)

    def test_stop_reaches_a_worker_mid_scan(self, tmp_path, monkeypatch):
        """One worker's drain may take the stop ring; its peer still wakes."""
        armed, scanning, release = (threading.Event() for _ in range(3))
        scan = JobQueue.pending_keys

        def pending_keys(queue):
            if armed.is_set() and threading.current_thread() is second:
                armed.clear()
                scanning.set()
                release.wait(30)
            return scan(queue)

        monkeypatch.setattr(JobQueue, "pending_keys", pending_keys)
        pool = WorkerPool(tmp_path, 2, mode="thread", poll_interval=30.0)
        pool.start()
        first, second = pool._members
        armed.set()
        pool.work.ring()  # the second worker's next scan blocks
        assert scanning.wait(10)
        deadline = time.time() + 10
        while not (_waiting(first) and not _readable(pool.work)):
            assert time.time() < deadline, "first worker never idled"
            time.sleep(0.01)
        stopper = threading.Thread(target=pool.stop, kwargs=dict(timeout=10))
        stopper.start()
        first.join(10)
        assert not first.is_alive()  # woke, drained the stop ring, left
        release.set()
        second.join(10)
        stopper.join(10)
        assert not second.is_alive()

    def test_stop_leaves_bells_to_an_abandoned_thread(
        self, tmp_path, monkeypatch
    ):
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        (key,) = _enqueue_greedy(tmp_path, [130])
        queue = JobQueue(tmp_path)
        release = threading.Event()
        pool = WorkerPool(
            tmp_path, 1, mode="thread", on_job=lambda job: release.wait(30)
        )
        pool.start()
        (member,) = pool._members
        deadline = time.time() + 30
        while not (queue.dir / f"{key}.claim").exists():
            assert time.time() < deadline, "job never claimed"
            time.sleep(0.01)
        pool.stop(timeout=0.05)  # gives up on the worker blocked in on_job
        release.set()
        member.join(30)
        assert not member.is_alive()
        assert errors == []  # its done ring found the bell still open
        assert queue.read_done(key)["ok"] is True

    def test_bad_worker_counts_rejected(self, tmp_path):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                WorkerPool(tmp_path, bad, mode="thread")
        # A non-integer count is rejected, not truncated, and a bool is
        # not a count.
        for bad in (2.5, True, "2"):
            with pytest.raises(TypeError, match="workers must be an integer"):
                WorkerPool(tmp_path, bad, mode="thread")

    def test_stopped_pool_cannot_restart(self, tmp_path):
        pool = WorkerPool(tmp_path, 1, mode="thread")
        pool.start()
        pool.stop()
        pool.stop()  # idempotent
        with pytest.raises(RuntimeError, match="stopped"):
            pool.start()

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_process_pool_under_start_method(self, tmp_path, method):
        keys = _enqueue_greedy(tmp_path, [110])
        done = _run_script(tmp_path, """
import multiprocessing
import sys
import time

from repro.service import JobQueue, WorkerPool

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[2])
    queue = JobQueue(sys.argv[1])
    with WorkerPool(sys.argv[1], 1, mode="process") as pool:
        deadline = time.time() + 60
        while not queue.done_keys() and time.time() < deadline:
            pool.done.wait(1.0)
    print("done" if queue.done_keys() else "not done")
""", str(tmp_path), method, timeout=120)
        assert done is not None, "the pool hung"
        status, out, err = done
        assert status == 0, err
        assert out.split() == ["done"]
        assert JobQueue(tmp_path).read_done(keys[0])["ok"] is True


class TestStoreFallback:
    def test_settles_from_store_when_marker_is_gone(
        self, service, monkeypatch
    ):
        """Another broker consumed the done marker: the store settles."""

        def complete_without_marker(queue, key, outcome):
            queue.release(key)
            (queue.dir / f"{key}.job").unlink(missing_ok=True)

        monkeypatch.setattr(JobQueue, "complete", complete_without_marker)
        client = ServiceClient(service.address, timeout=60.0)
        inst = small_instance(120)
        response = client.solve("Greedy", instance=inst, timeout=30)
        assert response.ok and response.source == "solved"
        store = ResultStore(service.service.broker.cache_dir)
        try:
            record = store.get("Greedy", inst.digest(), {})
        finally:
            store.close()
        assert response.report["metrics"] == record["metrics"]

    def test_grace_is_loop_time_not_sweep_count(self, tmp_path):
        inst = small_instance(121)
        key = canonical_key("Greedy", inst.digest(), {})
        store = ResultStore(tmp_path)
        record = execute_job(_job(key=key, seed=121), store)["report"]
        store.close()

        async def sweeps():
            broker = SolveBroker(
                str(tmp_path), BrokerConfig(poll_interval=30.0)
            )
            collected = []
            broker.queue.sweep_done = collected.append
            entry = _Pending(
                key, "Greedy", inst.digest(),
                asyncio.get_running_loop().create_future(),
            )
            broker.pending[key] = entry
            try:
                for _ in range(3):  # rings: many sweeps inside the grace
                    broker._reap_once()
                assert not entry.future.done()
                assert len(collected) == 1  # markers collected per done_ttl
                entry.stored_at -= broker.config.poll_interval
                broker._reap_once()
                return entry.future.result()
            finally:
                await broker.stop()

        outcome = asyncio.run(sweeps())
        assert outcome["ok"] and outcome["report"] == record
        assert outcome["certified"] is False and outcome["timings"] == {}


class TestWorkerCrash:
    """A SIGKILLed idle worker must not wedge shutdown."""

    @needs_proc
    def test_pool_stops_after_worker_sigkill(self, tmp_path):
        stopped = _run_script(tmp_path, """
import os
import signal
import sys
import time

from repro.service import WorkerPool

if __name__ == "__main__":
    pool = WorkerPool(sys.argv[1], 2, mode="process").start()
    time.sleep(1.0)  # both workers asleep in their idle wait
    os.kill(pool._members[0].pid, signal.SIGKILL)
    pool.stop(timeout=2)
    print("stopped")
""", str(tmp_path), timeout=30)
        assert stopped is not None, "pool.stop() hung after a SIGKILL"
        status, out, err = stopped
        assert status == 0, err
        assert out.split() == ["stopped"]

    @needs_proc
    def test_serve_exits_after_worker_sigkill(self, tmp_path):
        server = _spawn(
            "-m", "repro", "serve", "--cache-dir", str(tmp_path / "cache"),
            "--port", "0", "--workers", "2",
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            assert "solve service on" in server.stdout.readline()
            deadline = time.time() + 30
            while len(_child_pids(server.pid)) < 2:
                assert time.time() < deadline, "workers never started"
                time.sleep(0.05)
            time.sleep(1.0)  # both workers asleep in their idle wait
            os.kill(_child_pids(server.pid)[0], signal.SIGKILL)
            server.send_signal(signal.SIGTERM)
            try:
                status = server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pytest.fail("repro serve still running 30 s after SIGTERM")
            assert status == 0
            assert "stopped cleanly" in server.stdout.read()
        finally:
            _kill_group(server)
            server.stdout.close()
