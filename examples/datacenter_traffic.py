#!/usr/bin/env python
"""Datacenter traffic study: the paper's experiment, in miniature.

Reproduces one cell of Figures 6/7 interactively: Poisson/uniform
arrivals on a unit-capacity switch (the paper's model of a 3000-machine
cluster as a 150x150 switch), the three heuristics, and the two LP lower
bounds — then repeats the comparison on a skewed hotspot workload, a
traffic shape the paper's generator does not cover.

Run:  python examples/datacenter_traffic.py [--ports 24] [--rounds 12]
"""

import argparse

from repro import (
    average_response_time,
    hotspot_workload,
    make_policy,
    max_response_time,
    poisson_uniform_workload,
    simulate,
)
from repro.lp.bounds import art_lower_bound, mrt_lower_bound


def compare(instance, label: str, with_lp: bool = True) -> None:
    """Print the heuristic comparison table for one instance."""
    print(f"\n== {label} (n = {instance.num_flows} flows) ==")
    print(f"{'policy':>10} {'avg rt':>8} {'max rt':>8}")
    for name in ("MaxCard", "MinRTime", "MaxWeight", "FIFO"):
        result = simulate(instance, make_policy(name))
        print(
            f"{name:>10} {average_response_time(result.schedule):>8.2f} "
            f"{max_response_time(result.schedule):>8d}"
        )
    if with_lp:
        avg_lb = art_lower_bound(
            instance, horizon=instance.compact_horizon_bound()
        ) / instance.num_flows
        max_lb = mrt_lower_bound(instance)
        print(f"{'LP bound':>10} {avg_lb:>8.2f} {max_lb:>8d}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ports", type=int, default=24,
                        help="switch size m (paper: 150)")
    parser.add_argument("--rounds", type=int, default=12,
                        help="generation rounds T (paper: 10..100)")
    parser.add_argument("--load", type=float, default=1.0,
                        help="mean arrivals per port per round "
                             "(paper: 1/3 .. 4)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    mean = args.load * args.ports
    uniform = poisson_uniform_workload(
        args.ports, mean, args.rounds, seed=args.seed
    )
    compare(uniform, f"Poisson/uniform, M={mean:g}, T={args.rounds} "
                     f"(the paper's workload)")

    skewed = hotspot_workload(
        args.ports, mean, args.rounds, zipf_exponent=1.2, seed=args.seed
    )
    compare(skewed, "Zipf hotspot (skewed destinations; extension)")


if __name__ == "__main__":
    main()
