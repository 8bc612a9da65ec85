"""One call times a phase: ``measure`` feeds the active Timer and the tracer.

Every built-in solver's report timings must match its span log phase
for phase, to the bit, and the paper's LP pipelines must show up in
both.  The active Timer is per thread and innermost-wins.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api import get_solver, list_solvers
from repro.api.adapters import PolicySolver
from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from repro.obs.spans import Tracer, session
from repro.utils.timing import Timer, current_timer, measure
from repro.workloads.synthetic import poisson_uniform_workload

#: Per-round aggregates: Timer only, no span (see repro.utils.timing).
AGGREGATES = {"total", "sim_round", "batch_select"}

SOLVERS = list_solvers("offline") + list_solvers("online")

#: Solvers whose ``solve_batch`` is one merged run with shared timings.
MERGED = [n for n in SOLVERS if isinstance(get_solver(n), PolicySolver)]


def _instance(seed: int = 3):
    # At seed 3 FS-MRT's rho search opens LP (19)-(21), so its report
    # must carry lp_bound_build/lp_bound_solve to match its spans.
    return poisson_uniform_workload(8, 8.0, 6, seed=seed)


def _traced(run):
    """Run ``run()`` under an in-memory tracer, inside a structural
    ``solve`` root span as ``repro solve --trace-out`` opens one."""
    tracer = Tracer()
    with session(tracer), tracer.span("solve"):
        result = run()
    return result, [s for s in tracer.finished if s["name"] != "solve"]


def _assert_spans_match_timings(spans, timings):
    sums = {}
    for s in spans:
        sums[s["name"]] = sums.get(s["name"], 0.0) + s["dur"]
    assert set(sums) == set(timings) - AGGREGATES
    for name, total in sums.items():
        assert total == timings[name], name


@pytest.mark.parametrize("name", SOLVERS)
def test_solve_spans_match_report_timings(name):
    report, spans = _traced(lambda: get_solver(name).solve(_instance()))
    assert "total" in report.timings
    _assert_spans_match_timings(spans, report.timings)


@pytest.mark.parametrize("name", MERGED)
def test_solve_batch_spans_match_report_timings(name):
    instances = [_instance(seed) for seed in (3, 4, 5)]
    reports, spans = _traced(
        lambda: get_solver(name).solve_batch(instances)
    )
    # The batch's timings are attached to every report alike.
    assert all(r.timings == reports[0].timings for r in reports)
    _assert_spans_match_timings(spans, reports[0].timings)


@pytest.mark.parametrize(
    "name, phases",
    [
        ("FS-ART", {"lp_bound_build", "lp_bound_solve", "rounding_lp",
                    "coloring"}),
        ("FS-MRT", {"rounding_lp"}),
        ("TimeConstrained", {"rounding_lp"}),
    ],
)
def test_lp_pipelines_record_their_phases(name, phases):
    report = get_solver(name).solve(_instance())
    assert phases <= set(report.timings)


def test_fs_mrt_greedy_shortcut_records_no_lp_phase():
    # Four flows into one output: the port-load floor meets the greedy
    # cap (4), so FS-MRT returns the greedy schedule and no LP runs.
    inst = Instance.create(Switch.create(4), [Flow(i, 0) for i in range(4)])
    report, spans = _traced(lambda: get_solver("FS-MRT").solve(inst))
    assert not {"rounding_lp", "lp_bound_build", "lp_bound_solve"} & set(
        report.timings
    )
    _assert_spans_match_timings(spans, report.timings)


def test_innermost_timer_receives_the_phase():
    outer, inner = Timer(), Timer()
    with outer.recording():
        with measure("a"):
            with inner.recording():
                assert current_timer() is inner
                with measure("b"):
                    pass
            assert current_timer() is outer
    assert current_timer() is None
    assert set(outer.counts) == {"a"}
    assert set(inner.counts) == {"b"}


def test_phase_without_a_timer_is_still_traced():
    tracer = Tracer()
    with session(tracer):
        with measure("phase"):
            pass
    assert [s["name"] for s in tracer.finished] == ["phase"]


def test_threads_see_only_their_own_timer():
    workers, rounds = 6, 300
    timers = [Timer() for _ in range(workers)]
    barrier = threading.Barrier(workers)
    errors = []

    def work(k: int) -> None:
        try:
            barrier.wait(timeout=10)
            with timers[k].recording():
                for _ in range(rounds):
                    assert current_timer() is timers[k]
                    with measure(f"phase{k}"):
                        pass
                get_solver("MaxCard").solve(_instance(k))
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert current_timer() is None
    for k, timer in enumerate(timers):
        # The solve records into its report's own Timer, not this one.
        assert timer.counts == {f"phase{k}": rounds}
