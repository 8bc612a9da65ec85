"""Unit tests for the certificate checkers (repro.verify.checkers).

Positive paths certify real artifacts from the library's own solvers;
negative paths corrupt schedules, reports, records, and histories and
assert the checkers name the breach (structured Violation codes, no
exceptions).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import SolveReport, get_solver
from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.metrics import ScheduleMetrics
from repro.core.schedule import Schedule
from repro.core.switch import Switch
from repro.online.policies import make_policy
from repro.online.simulator import simulate, simulate_stream
from repro.scenarios import build_stream
from repro.verify import (
    VerificationError,
    VerificationReport,
    Violation,
    certify,
    check_lp_certificate,
    check_online_run,
    check_record,
    check_schedule,
    check_stream,
)
from repro.workloads import poisson_uniform_workload


@pytest.fixture
def inst():
    return poisson_uniform_workload(6, 4.0, 4, seed=3)


def codes(report):
    return {v.code for v in report.violations}


class TestViolationPlumbing:
    def test_violation_round_trip(self):
        v = Violation("capacity-overload", "port 3 over", {"port": 3})
        assert Violation.from_dict(v.to_dict()) == v

    def test_report_round_trip(self):
        r = VerificationReport("subject")
        r.ran("release")
        r.add("early-schedule", "flow 0 early", fid=0)
        back = VerificationReport.from_dict(r.to_dict())
        assert back.subject == "subject"
        assert back.checks == ["release"]
        assert codes(back) == {"early-schedule"}

    def test_verification_error_pickles(self):
        # Regression: multiprocessing Runner workers pickle a failing
        # trial's VerificationError back to the parent; the default
        # BaseException reduction would reconstruct via
        # VerificationError(rendered_string) and crash in __init__.
        import pickle

        r = VerificationReport("s")
        r.ran("x")
        r.add("some-code", "boom", fid=3)
        err = pickle.loads(pickle.dumps(VerificationError(r)))
        assert err.report.violations[0].code == "some-code"
        assert "some-code" in str(err)

    def test_raise_if_failed_carries_report(self):
        r = VerificationReport("s")
        r.ran("x")
        r.add("some-code", "boom")
        with pytest.raises(VerificationError) as err:
            r.raise_if_failed()
        assert err.value.report is r
        assert "some-code" in str(err.value)

    def test_empty_report_is_not_ok(self):
        # No checks ran: an empty violation list proves nothing.
        r = VerificationReport("s")
        assert not r.ok
        with pytest.raises(VerificationError):
            r.raise_if_failed()

    def test_merge_qualifies_violations_with_subject(self):
        # Aggregate reports must still name which record a violation
        # came from — the sub-report's subject is folded into the
        # message and context at merge time.
        inner = VerificationReport("Greedy@abc123 (results-1.jsonl)")
        inner.ran("metrics-identities")
        inner.add("metrics-identity", "avg off", average_response=9.0)
        outer = VerificationReport("store:/tmp/cache").merge(inner)
        violation = outer.violations[0]
        assert "Greedy@abc123" in violation.message
        assert violation.context["subject"].startswith("Greedy@abc123")


class TestCheckSchedule:
    def test_valid_schedule_certifies(self, inst):
        sim = simulate(inst, make_policy("MaxWeight"))
        report = check_schedule(sim.schedule, metrics=sim.metrics)
        assert report.ok
        assert report.stats["augmentation_used"] == 0

    def test_early_flow_flagged(self, inst):
        rounds = np.arange(inst.num_flows) + inst.releases()  # spread out
        schedule = Schedule(inst, np.asarray(rounds, dtype=np.int64))
        early = schedule.assignment.copy()
        late_fid = int(np.argmax(inst.releases()))
        if inst.releases()[late_fid] == 0:
            pytest.skip("workload has no late release to violate")
        early[late_fid] = 0
        report = check_schedule(Schedule(inst, early))
        assert "early-schedule" in codes(report)

    def test_overload_flagged(self):
        switch = Switch.create(2)
        inst2 = Instance.create(
            switch, [Flow(0, 0, 1, 0), Flow(0, 1, 1, 0)]
        )
        bad = Schedule(inst2, np.zeros(2, dtype=np.int64))
        report = check_schedule(bad)
        assert "capacity-overload" in codes(report)
        # The same schedule certifies once the augmentation is admitted.
        assert check_schedule(bad, max_augmentation=1).ok

    def test_claimed_augmentation_is_the_allowance(self):
        # A metrics object claiming augmentation k certifies a schedule
        # that uses exactly k extra units, and no more.
        switch = Switch.create(2)
        inst2 = Instance.create(
            switch, [Flow(0, 0, 1, 0), Flow(0, 1, 1, 0), Flow(0, 0, 1, 0)]
        )
        bad = Schedule(inst2, np.zeros(3, dtype=np.int64))  # load 3 on in-0
        honest = ScheduleMetrics.of(bad)
        assert honest.max_augmentation == 2
        assert check_schedule(bad, metrics=honest).ok
        lying = replace(honest, max_augmentation=1)
        report = check_schedule(bad, metrics=lying)
        assert "capacity-overload" in codes(report)
        assert "metrics-mismatch" in codes(report)

    def test_metrics_mismatch_flagged(self, inst):
        sim = simulate(inst, make_policy("MaxWeight"))
        lying = replace(sim.metrics, total_response=sim.metrics.total_response + 5)
        report = check_schedule(sim.schedule, metrics=lying)
        assert codes(report) == {"metrics-mismatch"}


class TestCheckLPCertificate:
    def test_fs_mrt_report_certifies(self, inst):
        report = get_solver("FS-MRT").solve(inst)
        vr = check_lp_certificate(report)
        assert vr.ok
        assert "oracle:rho_star" in vr.checks
        assert "guarantee:FS-MRT" in vr.checks

    def test_fs_art_report_certifies(self, inst):
        report = get_solver("FS-ART").solve(inst)
        vr = check_lp_certificate(report)
        assert vr.ok
        assert vr.stats["ratio:lp_total_response"] >= 0

    def test_inflated_bound_flagged(self, inst):
        report = get_solver("Greedy").solve(inst)
        lying = replace(
            report, lower_bounds={"lp_total_response": 10.0**9}
        )
        vr = check_lp_certificate(lying)
        assert {"bound-above-objective", "bound-oracle-mismatch"} <= codes(vr)

    def test_precomputed_oracle_values(self, inst):
        # recompute may map bound names to values already in hand: they
        # are compared as the oracle's, and a name it lacks is unchecked.
        report = get_solver("FS-ART").solve(inst)
        claimed = report.lower_bounds["lp_total_response"]
        vr = check_lp_certificate(
            report, recompute={"lp_total_response": claimed}
        )
        assert vr.ok
        assert vr.stats["oracle:lp_total_response"] == claimed
        wrong = check_lp_certificate(
            report, recompute={"lp_total_response": claimed + 1.0}
        )
        assert codes(wrong) == {"bound-oracle-mismatch"}
        unchecked = check_lp_certificate(report, recompute={"rho_star": 1.0})
        assert unchecked.ok
        assert "oracle:lp_total_response" not in unchecked.checks

    def test_augmented_schedule_may_beat_bound(self, inst):
        # FS-MRT's augmented schedule responds within rho*; the checker
        # must not flag objective < bound for augmented reports.
        report = get_solver("FS-MRT").solve(inst)
        assert report.metrics.max_response <= report.lower_bounds["rho_star"]
        assert check_lp_certificate(report).ok

    def test_theorem3_response_violation_flagged(self, inst):
        report = get_solver("FS-MRT").solve(inst)
        lying = replace(
            report,
            lower_bounds={
                "rho_star": float(report.metrics.max_response - 1)
            },
        )
        vr = check_lp_certificate(lying)
        assert "theorem3-response" in codes(vr)

    def test_certify_dispatch_on_report(self, inst):
        report = get_solver("Greedy").solve(inst)
        assert certify(report).ok


class TestCheckRecord:
    def test_stripped_record_certifies(self, inst):
        record = replace(
            get_solver("MaxWeight").solve(inst), schedule=None, timings={}
        ).to_dict()
        assert check_record(record).ok

    def test_identity_breach_flagged(self, inst):
        record = replace(
            get_solver("MaxWeight").solve(inst), schedule=None
        ).to_dict()
        record["metrics"]["average_response"] += 0.5
        assert "metrics-identity" in codes(check_record(record))

    def test_malformed_bound_flagged(self, inst):
        record = replace(
            get_solver("Greedy").solve(inst), schedule=None
        ).to_dict()
        record["lower_bounds"] = {"rho_star": float("nan")}
        assert "malformed-bound" in codes(check_record(record))

    def test_missing_metric_fields_flagged(self, inst):
        record = replace(
            get_solver("Greedy").solve(inst), schedule=None
        ).to_dict()
        del record["metrics"]["max_response"]
        assert "malformed-metrics" in codes(check_record(record))

    def test_type_corrupted_metrics_flagged_not_crashed(self, inst):
        # Regression: a string where a number belongs must produce a
        # structured violation, not a ValueError traceback.
        record = replace(
            get_solver("Greedy").solve(inst), schedule=None
        ).to_dict()
        record["metrics"]["total_response"] = "garbage"
        assert "malformed-metrics" in codes(check_record(record))

    def test_type_corrupted_bound_flagged_not_crashed(self, inst):
        report = get_solver("FS-MRT").solve(inst)
        lying = replace(report, lower_bounds={"rho_star": "oops"})
        vr = check_lp_certificate(lying)
        assert "malformed-bound" in codes(vr)
        assert lying.certificates() == {}  # non-numeric: not a certificate

    def test_non_mapping_record_flagged_not_crashed(self):
        # Regression: a null/garbage payload must yield a structured
        # violation from the checker, not an AttributeError.
        assert "malformed-record" in codes(check_record(None))
        bad = {"solver": "Greedy", "kind": "offline",
               "metrics": "garbage", "lower_bounds": {}}
        assert "malformed-record" in codes(check_record(bad))

    def test_null_report_shard_line_is_garbage_to_store_and_verifier(
        self, tmp_path
    ):
        # A {"report": null} line is unreadable by every consumer, so
        # the shared shard reader treats it like a torn line: the store
        # misses on it and the CLI verifier does not traceback.
        import json

        from repro.api.store import ResultStore, live_records

        shard = tmp_path / "results-1-x.jsonl"
        shard.write_text(json.dumps({"key": "k1", "report": None}) + "\n")
        assert len(ResultStore(tmp_path)) == 0
        assert live_records(tmp_path) == {}

    def test_zero_flow_record_with_nonzero_responses_flagged(self):
        # Regression: num_flows=0 forces every response quantity to 0;
        # a corrupted record claiming n=0 alongside nonzero totals used
        # to skip all per-flow identity checks and certify clean.
        record = SolveReport(
            solver="Greedy", kind="offline",
            metrics=ScheduleMetrics(
                num_flows=0, total_response=100,
                average_response=0.0, max_response=50,
                makespan=7, max_augmentation=0,
            ),
        ).to_dict()
        assert "metrics-identity" in codes(check_record(record))
        empty = SolveReport(
            solver="Greedy", kind="offline",
            metrics=ScheduleMetrics(
                num_flows=0, total_response=0, average_response=0.0,
                max_response=0, makespan=0, max_augmentation=0,
            ),
        ).to_dict()
        assert check_record(empty).ok

    def test_integer_bound_inversion_not_masked_by_tolerance(self):
        # Regression: rho* and max response are exact integers, so an
        # off-by-one inversion on a huge objective must be flagged —
        # a relative tolerance would absorb it beyond ~1e6.
        record = SolveReport(
            solver="MaxWeight", kind="online",
            metrics=ScheduleMetrics(
                num_flows=10, total_response=30_000_000,
                average_response=3_000_000.0, max_response=2_000_000,
                makespan=2_000_000, max_augmentation=0,
            ),
            lower_bounds={"rho_star": 2_000_001.0},
        ).to_dict()
        assert "bound-above-objective" in codes(check_record(record))
        record = SolveReport(
            solver="lp:art_avg",
            kind="bound",
            metrics=None,
            lower_bounds={"lp_total_response": 12.5},
        ).to_dict()
        assert check_record(record).ok

    def test_poisoned_metrics_none_record_flagged(self):
        # Regression: a metrics=None offline record (what run_batch
        # rejects as a poisoned store entry) must not certify clean.
        record = SolveReport(
            solver="Greedy", kind="offline", metrics=None
        ).to_dict()
        assert "missing-metrics" in codes(check_record(record))

    def test_infeasibility_certificate_record_certifies(self):
        # extras["feasible"] == False is a legitimate schedule-less
        # outcome (Time-Constrained infeasibility certificate).
        record = SolveReport(
            solver="TimeConstrained", kind="offline", metrics=None,
            extras={"feasible": False},
        ).to_dict()
        assert check_record(record).ok


class TestCheckOnlineRun:
    def test_simulation_certifies(self, inst):
        for name in ("MaxCard", "MinRTime", "FIFO"):
            sim = simulate(inst, make_policy(name))
            assert check_online_run(sim).ok

    def test_corrupt_history_flagged(self, inst):
        sim = simulate(inst, make_policy("MaxCard"))
        bad = replace(sim, queue_history=sim.queue_history + 1)
        assert "queue-accounting" in codes(check_online_run(bad))

    def test_overloaded_run_flagged_despite_consistent_metrics(self):
        # Regression: a buggy policy that overloads a port produces a
        # SimulationResult whose *recomputed* metrics honestly report
        # max_augmentation=1 — internally consistent, still infeasible.
        # The online checker must pin the allowance to zero, not trust
        # the result's own augmentation claim.
        from repro.online.simulator import SimulationResult

        switch = Switch.create(2)
        inst2 = Instance.create(
            switch, [Flow(0, 0, 1, 0), Flow(0, 1, 1, 0)]
        )
        schedule = Schedule(inst2, np.zeros(2, dtype=np.int64))
        metrics = ScheduleMetrics.of(schedule)
        assert metrics.max_augmentation == 1  # honest but infeasible
        bad = SimulationResult(
            schedule, metrics, rounds=1,
            queue_history=np.asarray([2], dtype=np.int64),
        )
        vr = check_online_run(bad)
        assert {"capacity-overload", "online-augmentation"} <= codes(vr)

    def test_corrupt_rounds_flagged(self, inst):
        sim = simulate(inst, make_policy("MaxCard"))
        bad = replace(sim, rounds=sim.rounds + 1)
        vr = check_online_run(bad)
        assert "round-accounting" in codes(vr)

    def test_stream_result_certifies(self):
        stream = build_stream("hotspot:ports=6,mean=3,horizon=5", seed=2)
        res = simulate_stream(
            stream,
            make_policy("MaxWeight"),
            record_schedule=True,
            record_queue_history=True,
        )
        vr = check_online_run(res, instance=stream.materialize())
        assert vr.ok
        assert "queue-accounting" in vr.checks

    def test_mismatched_instance_reported_not_raised(self):
        # Regression: certifying a stream run against the *wrong*
        # materialization (shorter prefix) must report a violation, not
        # crash inside the Schedule constructor.
        stream = build_stream("hotspot:ports=6,mean=3,horizon=5", seed=2)
        res = simulate_stream(
            stream, make_policy("MaxWeight"), record_schedule=True
        )
        wrong = stream.take(4).materialize()
        if wrong.num_flows == res.metrics.num_flows:
            pytest.skip("prefix draw has no round-5 arrivals")
        vr = check_online_run(res, instance=wrong)
        assert "instance-mismatch" in codes(vr)

    def test_stream_augmentation_claim_flagged(self):
        stream = build_stream("hotspot:ports=6,mean=3,horizon=5", seed=2)
        res = simulate_stream(stream, make_policy("MaxWeight"))
        bad = replace(res, metrics=replace(res.metrics, max_augmentation=1))
        assert "stream-augmentation" in codes(check_online_run(bad))

    def test_simulate_verify_flag(self, inst):
        sim = simulate(inst, make_policy("MaxWeight"), verify=True)
        assert sim.metrics.num_flows == inst.num_flows

    def test_simulate_stream_verify_flag(self):
        stream = build_stream("paper-default:ports=6,mean=3,horizon=4", seed=1)
        res = simulate_stream(
            stream, make_policy("FIFO"), record_schedule=True, verify=True
        )
        assert res.metrics.num_flows >= 0

    def test_simulate_stream_verify_needs_recorded_schedule(self):
        # Without the assignment, the stream checks would only re-derive
        # the engine's own accumulators — reject the tautology up front.
        stream = build_stream("paper-default:ports=6,mean=3,horizon=4", seed=1)
        with pytest.raises(ValueError, match="record_schedule=True"):
            simulate_stream(stream, make_policy("FIFO"), verify=True)


class TestCheckStream:
    def test_builtin_scenarios_certify(self):
        stream = build_stream("onoff-bursty:ports=6,horizon=6", seed=4)
        report = check_stream(stream)
        assert report.ok
        assert report.stats["prefix_digest"] == stream.prefix_digest()

    def test_nondeterministic_stream_flagged(self):
        import itertools

        from repro.scenarios.stream import ArrivalStream, make_batch

        switch = Switch.create(4)
        counter = itertools.count()  # shared state: differs per iteration

        def factory():
            k = next(counter) % 3 + 1
            yield make_batch([0] * k, list(range(k)))

        stream = ArrivalStream(switch, factory, rounds=1, label="racy")
        report = check_stream(stream)
        assert "nondeterministic-stream" in codes(report)

    def test_out_of_range_batch_flagged(self):
        from repro.scenarios.stream import ArrivalStream, make_batch

        switch = Switch.create(2)

        def factory():
            yield make_batch([5], [0])

        stream = ArrivalStream(switch, factory, rounds=1, label="bad-ports")
        assert "batch-port-range" in codes(check_stream(stream))

    def test_unbounded_stream_needs_rounds(self):
        from repro.scenarios.stream import ArrivalStream, make_batch

        switch = Switch.create(2)

        def factory():
            while True:
                yield make_batch([0], [0])

        stream = ArrivalStream(switch, factory, rounds=None, label="inf")
        assert "unbounded-stream" in codes(check_stream(stream))
        assert check_stream(stream, rounds=3).ok


class TestHarnessFixtures:
    def test_certify_fixture(self, certify, inst):
        sim = simulate(inst, make_policy("MaxWeight"))
        report = certify(sim)
        assert report.ok

    def test_certify_violations_fixture(self, certify_violations, inst):
        sim = simulate(inst, make_policy("MaxWeight"))
        bad = replace(sim, queue_history=sim.queue_history + 1)
        certify_violations(bad, "queue-accounting")
