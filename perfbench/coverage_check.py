"""Checks that the layer wrappers see every layer each workload runs.

Run from the root of a checkout, either directly::

    python3 perfbench/coverage_check.py

or through pytest (the file is named so the repository's own test
collection skips it)::

    python3 -m pytest -q perfbench/coverage_check.py

Each check runs one small traced unit of a workload and fails if a layer
the workload must exercise recorded no calls, if a by-name import of a
wrapped function escaped the wrappers, or if two units of one seed did
different amounts of work.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from layers import TARGETS, LayerTracer  # noqa: E402

bench.bootstrap()

SMALL_SWEEPS = {
    "fig-lp": bench.SweepSpec(4, (1.0,), (4,), 2, True),
    "fig-sim": bench.SweepSpec(6, (1.0,), (8,), 3, False),
}
SMALL_SERVICE = bench.ServiceSpec(ports=4, mean_arrivals=4.0, rounds=3, trials=2)

#: Layers (and counters) that must be non-zero in a traced unit.
EXPECTED_LAYERS = {
    "fig-lp": (
        "workloads", "online", "matching", "lp.build", "lp.solve",
        "lp.bound", "unattributed",
    ),
    "fig-sim": ("workloads", "online", "matching", "unattributed"),
    "solve-service": (
        "online", "matching", "lp.build", "lp.solve", "lp.bound", "mrt",
        "art", "verify", "api.store.get", "api.store.put",
    ),
}
EXPECTED_COUNTERS = {
    "fig-lp": (
        "lp.builds", "lp.solves", "lp.rho_probes", "matching.hk_calls",
        "matching.assignment_calls",
    ),
    "fig-sim": ("matching.hk_calls", "matching.assignment_calls"),
    "solve-service": (
        "lp.solves", "lp.rho_probes", "mrt.rounding_iterations",
        "art.rounding_iterations", "api.store.read_hits", "api.store.puts",
    ),
}


def traced_unit(workload: str, seed: int = 5) -> bench.Unit:
    tracer = LayerTracer().install()
    try:
        assert tracer.unbound() == [], tracer.unbound()
        if workload in SMALL_SWEEPS:
            return bench.run_sweep_unit(SMALL_SWEEPS[workload], seed, tracer)
        bench.RUN_DIR.mkdir(exist_ok=True)
        try:
            pool = bench.service_pool(SMALL_SERVICE, seed)
            return bench.run_service_unit(SMALL_SERVICE, pool, seed, tracer)
        finally:
            shutil.rmtree(bench.RUN_DIR, ignore_errors=True)
    finally:
        tracer.uninstall()


def check_workload(workload: str) -> None:
    first = traced_unit(workload)
    assert first.failed == 0, f"{workload}: {first.failed} failed operations"
    silent = [l for l in EXPECTED_LAYERS[workload] if not first.layer_s[l] > 0]
    silent += [
        l for l in EXPECTED_LAYERS[workload]
        if l != "unattributed" and first.calls[l] == 0
    ]
    assert not silent, f"{workload}: layers with no time or calls: {silent}"
    zero = [c for c in EXPECTED_COUNTERS[workload] if not first.counters.get(c)]
    assert not zero, f"{workload}: zero counters: {zero}"
    second = traced_unit(workload)
    assert (second.counters, second.calls, second.digest) == (
        first.counters, first.calls, first.digest,
    ), f"{workload}: two units of one seed did different work"


def test_fig_lp_layers():
    check_workload("fig-lp")


def test_fig_sim_layers():
    check_workload("fig-sim")


def test_solve_service_layers():
    check_workload("solve-service")


def test_uninstall_restores_every_binding():
    from repro.lp import solver
    from repro.mrt import rounding

    original = solver.solve_lp
    tracer = LayerTracer().install()
    try:
        assert rounding.solve_lp is not original
        assert rounding.solve_lp is solver.solve_lp
    finally:
        tracer.uninstall()
    assert solver.solve_lp is original and rounding.solve_lp is original
    assert len({(t.owner, t.attr) for t in TARGETS}) == len(TARGETS)


if __name__ == "__main__":
    checks = [
        test_uninstall_restores_every_binding,
        test_fig_lp_layers,
        test_fig_sim_layers,
        test_solve_service_layers,
    ]
    for check in checks:
        check()
        print(f"ok  {check.__name__}")
