"""Cross-module integration tests: the full pipelines against each other.

These are the "does the whole paper hang together" checks:
LP bounds <= exact optima <= algorithm outputs <= greedy, across all
pipelines on shared instances.
"""

import pytest
from hypothesis import given, settings

from repro import (
    greedy_earliest_fit,
    make_policy,
    max_response_time,
    poisson_uniform_workload,
    run_amrt,
    simulate,
    solve_art,
    solve_mrt,
    total_response_time,
    validate_schedule,
)
from repro.lp.bounds import art_lower_bound, mrt_lower_bound
from repro.mrt.exact import exact_min_max_response, exact_min_total_response
from tests.conftest import unit_instances


class TestBoundChains:
    """The fundamental inequality chains on random instances."""

    @given(unit_instances(max_ports=3, max_flows=5))
    @settings(max_examples=15, deadline=None)
    def test_art_chain(self, inst):
        """LP(1-4) <= OPT <= heuristics and greedy (total response)."""
        if inst.num_flows == 0:
            return
        lb = art_lower_bound(inst)
        opt = exact_min_total_response(inst)
        assert lb <= opt + 1e-6
        for name in ("MaxCard", "MinRTime", "MaxWeight"):
            sim = simulate(inst, make_policy(name))
            assert opt <= total_response_time(sim.schedule)
        assert opt <= total_response_time(greedy_earliest_fit(inst))

    @given(unit_instances(max_ports=3, max_flows=5))
    @settings(max_examples=15, deadline=None)
    def test_mrt_chain(self, inst):
        """LP(19-21) rho* <= OPT <= heuristics (max response)."""
        if inst.num_flows == 0:
            return
        rho_lp = mrt_lower_bound(inst)
        opt = exact_min_max_response(inst)
        assert rho_lp <= opt
        for name in ("MaxCard", "MinRTime", "MaxWeight"):
            sim = simulate(inst, make_policy(name))
            assert opt <= max_response_time(sim.schedule)


class TestEndToEndOnWorkloads:
    def test_full_stack_on_poisson(self):
        inst = poisson_uniform_workload(6, 5, 5, seed=321)
        # Online heuristics.
        sims = {
            name: simulate(inst, make_policy(name))
            for name in ("MaxCard", "MinRTime", "MaxWeight")
        }
        for sim in sims.values():
            validate_schedule(sim.schedule)
        # Offline MRT.
        mrt = solve_mrt(inst)
        assert max_response_time(mrt.schedule) <= mrt.rho
        for sim in sims.values():
            assert mrt.rho <= sim.metrics.max_response
        # Offline ART.
        art = solve_art(inst, c=1)
        validate_schedule(
            art.schedule,
            inst.switch.augmented(factor=art.conversion.capacity_factor),
        )
        assert art.lower_bound <= min(
            sim.metrics.total_response for sim in sims.values()
        ) + 1e-6
        # AMRT online.
        amrt = run_amrt(inst)
        assert 1 + amrt.max_port_usage <= 2 * (1 + 2 * inst.max_demand - 1)

    def test_same_instance_reproducible_across_runs(self):
        a = poisson_uniform_workload(8, 6, 4, seed=11)
        b = poisson_uniform_workload(8, 6, 4, seed=11)
        sa = simulate(a, make_policy("MaxWeight"))
        sb = simulate(b, make_policy("MaxWeight"))
        assert sa.schedule.assignment.tolist() == sb.schedule.assignment.tolist()

    def test_offline_beats_online_on_max_response(self):
        """The offline LP bound is never above any online policy."""
        for seed in (1, 2, 3):
            inst = poisson_uniform_workload(5, 6, 4, seed=seed)
            rho = mrt_lower_bound(inst)
            for name in ("MaxCard", "MinRTime", "MaxWeight"):
                sim = simulate(inst, make_policy(name))
                assert rho <= sim.metrics.max_response


class TestVerifiedCacheRoundTrip:
    """cache -> resume -> verify: the full persistence + certification loop."""

    def test_cold_warm_and_cli_verify_agree(self, tmp_path):
        import dataclasses

        from repro.__main__ import main
        from repro.api.runner import Runner
        from repro.api.store import close_open_stores
        from repro.experiments.config import smoke_config

        cache = str(tmp_path / "cache")

        def cells_of(sweep):
            return {
                key: dataclasses.asdict(cell)
                for key, cell in sweep.cells.items()
            }

        # Cold run with per-trial certification enabled.
        cold = Runner(smoke_config(), cache_dir=cache, verify=True).run()
        # Warm run: force a true disk round-trip, still certified (the
        # record-level checks replay the stored metrics and bounds).
        close_open_stores()
        warm = Runner(smoke_config(), cache_dir=cache, verify=True).run()
        assert cells_of(cold) == cells_of(warm)
        # The CLI replays the same store through the record checkers.
        assert main(["verify", "--cache-dir", cache]) == 0

    def test_corrupted_store_fails_cli_verify(self, tmp_path, capsys):
        import json

        from repro.__main__ import main
        from repro.api.runner import Runner
        from repro.experiments.config import smoke_config

        cache = tmp_path / "cache"
        Runner(smoke_config(), cache_dir=str(cache)).run()
        shard = sorted(cache.glob("results-*.jsonl"))[0]
        lines = shard.read_text().splitlines()
        corrupted = []
        poisoned = False
        for line in lines:
            entry = json.loads(line)
            metrics = entry["report"].get("metrics")
            if not poisoned and metrics is not None:
                metrics["average_response"] += 1.0  # break avg*n == total
                poisoned = True
            corrupted.append(json.dumps(entry))
        assert poisoned
        shard.write_text("\n".join(corrupted) + "\n")
        assert main(["verify", "--cache-dir", str(cache)]) == 1
        out = capsys.readouterr().out
        violation_line = next(
            line for line in out.splitlines() if "metrics-identity" in line
        )
        # Triage output names the offending record and its shard.
        assert "results-" in violation_line


class TestScenarioStreamMaterializeEquivalence:
    """scenario -> stream -> materialize, certified through the checkers."""

    @pytest.mark.parametrize(
        "spec", ["hotspot:ports=6,mean=3,horizon=5",
                 "onoff-bursty:ports=6,horizon=6"]
    )
    def test_stream_equals_materialized_and_both_certify(
        self, spec, certify
    ):
        from repro.online.simulator import simulate_stream
        from repro.scenarios import build_stream

        stream = build_stream(spec, seed=9)
        inst = stream.materialize()
        if inst.num_flows == 0:
            pytest.skip("empty draw")
        offline = simulate(inst, make_policy("MaxWeight"), verify=True)
        online = simulate_stream(
            stream,
            make_policy("MaxWeight"),
            record_schedule=True,
            record_queue_history=True,
            verify=True,
        )
        # Byte-identical selections, certified on both sides.
        assert (
            online.assignment.tolist()
            == offline.schedule.assignment.tolist()
        )
        assert online.metrics == offline.metrics
        certify(offline)
        report = certify(online, inst)
        assert "queue-accounting" in report.checks
