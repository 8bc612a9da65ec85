"""Unit tests for ``repro.obs`` — spans, exporters, metrics, profiler.

Covers the span model (deterministic hierarchical IDs, ``dur``
authority, cross-process ``TraceContext``), the JSONL sink's buffering
contract, the Chrome ``trace_event`` export, the metrics registry's
Prometheus rendering (cumulative buckets over the internal
non-cumulative counts), the canonical timer-event namespace, the
timer->span bridge's exact reconciliation, and the BENCH ``*_seconds``
key check.
"""

from __future__ import annotations

import json
import pickle
import threading
import time

import pytest

from repro.bench import assert_canonical_seconds
from repro.obs import (
    BENCH_SECONDS_KEYS,
    JsonlSink,
    MetricsRegistry,
    SamplingProfiler,
    SPAN_SCHEMA_VERSION,
    TraceContext,
    Tracer,
    chrome_trace,
    current_tracer,
    export_chrome_trace,
    new_trace_id,
    observe_event,
    parse_metric,
    phase_table,
    phase_totals,
    read_spans,
    session,
    span,
    span_duration,
    timer_metric,
    validate_span,
)
from repro.obs.export import _dump_record
from repro.obs.metrics import event_observer, is_canonical_seconds_key
from repro.utils.timing import Timer, measure


# ---------------------------------------------------------------------------
# Span identity and nesting
# ---------------------------------------------------------------------------


class TestSpans:
    def test_root_and_child_ids_are_deterministic_paths(self):
        tracer = Tracer(trace_id="t" * 16)
        a = tracer.open("outer")
        b = tracer.open("inner")
        c_rec = tracer.close(b)
        tracer.close(a)
        d = tracer.open("second_root")
        tracer.close(d)
        spans = {s["name"]: s for s in tracer.finished}
        assert spans["outer"]["span"] == "0"
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["span"] == "0.1"
        assert spans["inner"]["parent"] == "0"
        assert spans["second_root"]["span"] == "1"
        assert c_rec["span"] == "0.1"

    def test_sibling_counters_increment(self):
        tracer = Tracer()
        root = tracer.open("root")
        for _ in range(3):
            tracer.close(tracer.open("child"))
        tracer.close(root)
        ids = [s["span"] for s in tracer.finished if s["name"] == "child"]
        assert ids == ["0.1", "0.2", "0.3"]

    def test_id_suffix_grafts_explicit_segment(self):
        tracer = Tracer()
        root = tracer.open("sweep")
        with tracer.span("trial", id_suffix="M8-T40-t3"):
            with tracer.span("lp"):
                pass
        tracer.close(root)
        by_name = {s["name"]: s for s in tracer.finished}
        assert by_name["trial"]["span"] == "0.M8-T40-t3"
        assert by_name["lp"]["span"] == "0.M8-T40-t3.1"

    def test_dur_is_authoritative_and_end_derived(self):
        tracer = Tracer()
        frame = tracer.open("x")
        rec = tracer.close(frame, duration=0.25)
        assert rec["dur"] == 0.25
        assert rec["end"] == rec["start"] + 0.25
        assert span_duration(rec) == 0.25

    def test_schema_version_stamped(self):
        tracer = Tracer()
        rec = tracer.close(tracer.open("x"))
        assert rec["schema"] == SPAN_SCHEMA_VERSION
        assert validate_span(rec) == []

    def test_attrs_recorded(self):
        tracer = Tracer()
        with tracer.span("solve", solver="Greedy", trials=3):
            pass
        (rec,) = tracer.finished
        assert rec["attrs"] == {"solver": "Greedy", "trials": 3}

    def test_emit_explicit_identity(self):
        tracer = Tracer(trace_id="a" * 16)
        rec = tracer.emit(
            "request", 10.0, 10.5, span_id="0", trace_id="b" * 16
        )
        assert rec["trace"] == "b" * 16
        assert rec["span"] == "0"
        assert rec["dur"] == 0.5
        assert validate_span(rec) == []

    def test_exception_path_pops_orphans(self):
        tracer = Tracer()
        outer = tracer.open("outer")
        tracer.open("orphan")  # never closed explicitly
        tracer.close(outer)
        # A fresh root must not nest under the leaked frame.
        fresh = tracer.open("fresh")
        tracer.close(fresh)
        by_name = {s["name"]: s for s in tracer.finished}
        assert by_name["fresh"]["parent"] is None

    def test_new_trace_id_seeded_is_deterministic(self):
        assert new_trace_id(seed="abc") == new_trace_id(seed="abc")
        assert new_trace_id(seed="abc") != new_trace_id(seed="abd")
        assert len(new_trace_id()) == 16


class TestTraceContext:
    def test_pickle_roundtrip(self):
        ctx = TraceContext(trace_id="f" * 16, span_id="0.M8-T40-t1")
        again = pickle.loads(pickle.dumps(ctx))
        assert again == ctx

    def test_dict_roundtrip(self):
        ctx = TraceContext(trace_id="f" * 16, span_id="0.3")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_resume_grafts_under_remote_parent(self):
        parent = Tracer(trace_id="c" * 16)
        root = parent.open("request")
        ctx = parent.context()
        assert ctx == TraceContext("c" * 16, "0")
        parent.close(root)

        child = Tracer(trace_id=ctx.trace_id)
        with child.resume(ctx):
            with child.span("job", id_suffix="job"):
                pass
        (rec,) = child.finished  # the phantom frame is never recorded
        assert rec["span"] == "0.job"
        assert rec["parent"] == "0"
        assert rec["trace"] == "c" * 16

    def test_absorb_and_drain(self):
        worker = Tracer(trace_id="d" * 16)
        worker.close(worker.open("work"))
        shipped = worker.drain()
        assert worker.finished == []
        parent = Tracer(trace_id="d" * 16)
        parent.absorb(shipped)
        assert [s["name"] for s in parent.finished] == ["work"]


class TestAmbient:
    def test_session_activates_and_restores(self):
        assert current_tracer() is None
        tracer = Tracer()
        with session(tracer) as active:
            assert active is tracer
            assert current_tracer() is tracer
            with span("ambient"):
                pass
        assert current_tracer() is None
        assert [s["name"] for s in tracer.finished] == ["ambient"]

    def test_span_is_noop_without_tracer(self):
        with span("nothing"):
            pass  # must not raise and must not record anywhere


# ---------------------------------------------------------------------------
# JSONL sink and span log round-trip
# ---------------------------------------------------------------------------


class TestJsonlSink:
    def test_roundtrip_and_validation(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(sink=JsonlSink(str(path)))
        root = tracer.open("sweep")
        with tracer.span("cell", load=0.5):
            pass
        tracer.close(root)
        tracer.finish()
        spans = read_spans(str(path))
        assert [s["name"] for s in spans] == ["cell", "sweep"]
        for s in spans:
            assert validate_span(s) == []

    def test_writes_are_buffered_until_flush(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        sink = JsonlSink(str(path), flush_every=1000)
        tracer = Tracer(sink=sink)
        tracer.close(tracer.open("x"))
        assert read_spans(str(path)) == []  # still in the buffer
        sink.flush()
        assert len(read_spans(str(path))) == 1
        tracer.finish()

    def test_flush_every_threshold_drains(self, tmp_path):
        path = tmp_path / "threshold.jsonl"
        sink = JsonlSink(str(path), flush_every=4)
        tracer = Tracer(sink=sink)
        for _ in range(4):
            tracer.close(tracer.open("e"))
        assert len(read_spans(str(path))) == 4  # crossed the threshold
        tracer.close(tracer.open("e"))
        assert len(read_spans(str(path))) == 4  # buffered again
        tracer.finish()
        assert len(read_spans(str(path))) == 5

    def test_write_after_close_is_ignored(self, tmp_path):
        path = tmp_path / "closed.jsonl"
        sink = JsonlSink(str(path))
        sink.write({"schema": 1, "attrs": {}})
        sink.close()
        sink.write({"schema": 1, "attrs": {}})  # must not raise
        sink.close()  # idempotent
        assert len(read_spans(str(path))) == 1

    @pytest.mark.parametrize(
        "record",
        [
            {
                "schema": 1, "trace": "ab" * 8, "span": "0.M8-T40-t3.1",
                "parent": "0.M8-T40-t3", "name": "batch_pack",
                "start": 1754640000.1234567, "end": 1754640000.25,
                "dur": 0.1265433, "attrs": {},
            },
            {
                "schema": 1, "trace": "ab" * 8, "span": "0", "parent": None,
                "name": "sweep", "start": 0.0, "end": 1.0, "dur": 1.0,
                "attrs": {},
            },
            {
                "schema": 1, "trace": "ab" * 8, "span": "0.1", "parent": "0",
                "name": 'odd"name\\with\nescapes',
                "start": 0.0, "end": 1.0, "dur": 1.0, "attrs": {},
            },
            {
                "schema": 1, "trace": "ab" * 8, "span": "0.1", "parent": "0",
                "name": "solve", "start": 0.0, "end": 1.0, "dur": 1.0,
                "attrs": {"solver": "Greedy", "n": 3},
            },
        ],
    )
    def test_dump_record_matches_json_dumps(self, record):
        assert _dump_record(record) == json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )


# ---------------------------------------------------------------------------
# Chrome trace export and phase table
# ---------------------------------------------------------------------------


def _sample_spans():
    tracer = Tracer(trace_id="e" * 16)
    root = tracer.open("sweep")
    with tracer.span("trial", id_suffix="M4-T3-t0"):
        with tracer.span("solve"):
            pass
    with tracer.span("trial", id_suffix="M4-T3-t1"):
        pass
    tracer.close(root)
    return tracer.finished


class TestChromeTrace:
    def test_complete_events_with_relative_microseconds(self):
        spans = _sample_spans()
        doc = chrome_trace(spans)
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(events) == len(spans)
        assert min(e["ts"] for e in events) == 0.0
        assert all(e["cat"] == "repro" for e in events)
        # Lanes derive from span-ID paths: each trial branch gets a row.
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M"}
        assert {"0.M4-T3-t0", "0.M4-T3-t1"} <= names

    def test_export_is_loadable_json(self, tmp_path):
        spans = _sample_spans()
        out = tmp_path / "trace.json"
        count = export_chrome_trace(spans, str(out))
        assert count == len(spans)
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) >= count

    def test_empty_spans(self):
        assert chrome_trace([]) == {
            "traceEvents": [], "displayTimeUnit": "ms"
        }


class TestPhaseTable:
    def test_totals_and_table(self):
        spans = _sample_spans()
        totals = phase_totals(spans)
        assert totals["trial"][0] == 2
        table = phase_table(spans)
        for name in ("sweep", "trial", "solve"):
            assert name in table
        assert "spans)" in table

    def test_limit_truncates_rows(self):
        table = phase_table(_sample_spans(), limit=1)
        assert "trial" not in table or "solve" not in table

    def test_empty(self):
        assert phase_table([]) == "(no spans)"


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_and_gauge_render_and_parse(self):
        reg = MetricsRegistry()
        reg.counter("repro_store_hits_total", 2.0, help="Total hits.")
        reg.gauge("repro_queue_depth", 3.0, pool="default")
        text = reg.render()
        assert "# TYPE repro_store_hits_total counter" in text
        assert parse_metric(text, "repro_store_hits_total") == 2.0
        assert parse_metric(text, "repro_queue_depth", pool="default") == 3.0

    def test_histogram_buckets_render_cumulatively(self):
        reg = MetricsRegistry()
        # Internal counts are per-bucket; the exposition must be
        # cumulative: le="0.1" includes everything under 0.1.
        reg.observe("h_seconds", 0.003, buckets=(0.01, 0.1, 1.0))
        reg.observe("h_seconds", 0.05, buckets=(0.01, 0.1, 1.0))
        reg.observe("h_seconds", 0.5, buckets=(0.01, 0.1, 1.0))
        reg.observe("h_seconds", 99.0, buckets=(0.01, 0.1, 1.0))
        text = reg.render()
        assert parse_metric(text, "h_seconds_bucket", le="0.01") == 1
        assert parse_metric(text, "h_seconds_bucket", le="0.1") == 2
        assert parse_metric(text, "h_seconds_bucket", le="1") == 3
        assert parse_metric(text, "h_seconds_bucket", le="+Inf") == 4
        assert parse_metric(text, "h_seconds_count") == 4
        assert reg.histogram_sum("h_seconds") == pytest.approx(
            0.003 + 0.05 + 0.5 + 99.0
        )

    def test_observe_event_canonical_names(self):
        reg = MetricsRegistry()
        observe_event("lp_bound_solve", 0.01, registry=reg)
        observe_event("batch_match", 0.02, registry=reg)
        observe_event("simulate:FIFO", 0.03, registry=reg)
        text = reg.render()
        assert "repro_lp_solve_seconds_bucket" in text
        assert "repro_batch_match_seconds_bucket" in text
        assert parse_metric(
            text, "repro_simulate_seconds_count", solver="FIFO"
        ) == 1

    def test_timer_metric_slugs_unknown_events(self):
        name, labels = timer_metric("weird event/name")
        assert name == "repro_weird_event_name_seconds"
        assert labels == {}

    def test_event_observer_matches_observe_event(self):
        reg = MetricsRegistry()
        obs = event_observer("batch_pack", registry=reg)
        obs(0.005)
        obs(0.010)
        observe_event("batch_pack", 0.015, registry=reg)
        text = reg.render()
        assert parse_metric(text, "repro_batch_pack_seconds_count") == 3
        assert reg.histogram_sum(
            "repro_batch_pack_seconds"
        ) == pytest.approx(0.030)

    def test_parse_metric_missing_series(self):
        assert parse_metric("", "nope_total") is None


# ---------------------------------------------------------------------------
# Timer: thread safety, round-trip, span bridge
# ---------------------------------------------------------------------------


class TestTimer:
    def test_concurrent_adds_are_exact(self):
        timer = Timer()
        threads = [
            threading.Thread(
                target=lambda: [timer.add("shared", 1.0) for _ in range(500)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert timer.counts["shared"] == 4000
        assert timer.totals["shared"] == 4000.0

    def test_as_dict_roundtrip(self):
        timer = Timer()
        timer.add("lp", 0.125)
        timer.add("lp", 0.25)
        timer.add("solve", 1.5)
        again = Timer.from_dict(timer.as_dict())
        assert again.totals == timer.totals
        assert again.counts == timer.counts
        assert again.mean("lp") == timer.mean("lp")

    def test_merge(self):
        a, b = Timer(), Timer()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b.totals, b.counts)
        assert a.totals == {"x": 3.0, "y": 3.0}
        assert a.counts == {"x": 2, "y": 1}

    def test_measure_bridges_to_ambient_span_exactly(self):
        tracer = Tracer()
        timer = Timer()
        with session(tracer), timer.recording():
            with measure("phase"):
                time.sleep(0.001)
            with measure("phase"):
                pass
        spans = [s for s in tracer.finished if s["name"] == "phase"]
        assert len(spans) == 2
        # measure closes each span with the same perf_counter delta it
        # adds to the timer — sums reconcile exactly, not approximately.
        assert sum(s["dur"] for s in spans) == timer.totals["phase"]

    def test_measure_without_tracer_records_no_span(self):
        timer = Timer()
        with timer.recording():
            with measure("alone"):
                pass
        assert timer.counts["alone"] == 1


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------


class TestSamplingProfiler:
    def test_attributes_samples_to_open_span(self):
        tracer = Tracer()
        prof = SamplingProfiler(tracer=tracer, interval=0.001)

        def busy():
            with session(tracer):
                with tracer.span("busy_phase"):
                    deadline = time.perf_counter() + 0.25
                    while time.perf_counter() < deadline:
                        sum(range(200))

        worker = threading.Thread(target=busy)
        with prof:
            worker.start()
            worker.join()
        report = prof.report()
        assert prof.total_samples > 0
        assert "busy_phase" in report

    def test_empty_report(self):
        prof = SamplingProfiler(interval=0.001)
        prof.start()
        prof.stop()
        assert isinstance(prof.report(), str)


# ---------------------------------------------------------------------------
# BENCH canonical *_seconds keys
# ---------------------------------------------------------------------------


class TestBenchSecondsKeys:
    def test_known_keys_are_canonical(self):
        for key in ("seconds", "serial_seconds", "traced_seconds"):
            assert is_canonical_seconds_key(key)
        assert not is_canonical_seconds_key("wallclock_seconds")

    def test_accepts_canonical_payload(self):
        assert_canonical_seconds(
            {
                "cells": {
                    "fifo": {
                        "serial_seconds": 1.0,
                        "batched_seconds": 0.2,
                        "batched_phase_seconds": {"batch_pack": 0.1},
                    }
                },
                "obs_overhead": {
                    "untraced_seconds": 1.0, "traced_seconds": 1.01,
                },
            },
            "sweep",
        )

    def test_rejects_unknown_seconds_key(self):
        with pytest.raises(RuntimeError) as excinfo:
            assert_canonical_seconds(
                {"cells": {"fifo": {"wallclock_seconds": 1.0}}}, "sweep"
            )
        message = str(excinfo.value)
        assert "wallclock_seconds" in message
        assert "BENCH_SECONDS_KEYS" in message

    def test_registry_covers_every_suite_key(self):
        # The committed snapshots must only use registered names.
        import pathlib

        for snapshot in pathlib.Path("benchmarks").glob("BENCH_*.json"):
            payload = json.loads(snapshot.read_text())
            assert_canonical_seconds(payload, snapshot.stem)

    def test_bench_seconds_keys_is_closed(self):
        assert "untraced_seconds" in BENCH_SECONDS_KEYS
        assert isinstance(BENCH_SECONDS_KEYS, frozenset)
