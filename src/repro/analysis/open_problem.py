"""Empirical probe of the paper's Section 6 open question.

The paper asks (Open Problems, "Improved approximation ratios"):

    Given unit flow requests arriving as bipartite graphs
    ``G_1, ..., G_T`` such that for any interval ``I`` and any port
    ``v``, the sum over ``i in I`` of ``deg_{G_i}(v)`` is at most
    ``|I| + 1`` — i.e. everything is schedulable with response 1 under
    a "+1" capacity augmentation — can every request be satisfied with
    a *constant* response time **without** any augmentation?

This module generates random sequences satisfying the degree condition
and computes the exact optimal unaugmented maximum response time with
the library's FS-MRT machinery, recording the largest constant observed.
A counterexample (growing optimal response) would refute the conjecture;
persistent small constants are (weak) evidence for it.  This is an
extension artifact — the paper poses the question but has no experiment
for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from repro.lp.bounds import mrt_lower_bound
from repro.mrt.exact import exact_time_constrained_schedule
from repro.mrt.time_constrained import from_response_bound
from repro.utils.rng import SeedLike, make_rng


@dataclass(frozen=True)
class DegreeBoundedSequence:
    """A request sequence ``G_1..G_T`` obeying the interval degree bound.

    ``instance`` packages the union of requests (flow released at round
    ``i`` for each edge of ``G_i``); ``verified`` confirms the
    ``sum_{i in I} deg(v) <= |I| + 1`` condition was checked.
    """

    instance: Instance
    num_rounds: int
    verified: bool


def _interval_degree_ok(deg_per_round: np.ndarray) -> bool:
    """Check ``max over intervals I of (sum deg - |I|) <= 1`` per port.

    Equivalent to a max-subarray bound on ``deg - 1`` per port row.
    """
    excess = deg_per_round.astype(np.float64) - 1.0
    for row in excess:
        best = -np.inf
        running = 0.0
        for v in row:
            running = max(v, running + v)
            best = max(best, running)
        if best > 1.0 + 1e-9:
            return False
    return True


def random_degree_bounded_sequence(
    num_ports: int,
    num_rounds: int,
    seed: SeedLike = None,
    fill: float = 0.9,
) -> DegreeBoundedSequence:
    """Generate a random sequence satisfying the interval degree bound.

    Strategy: maintain per-port *credit* (how much degree an interval
    ending now may still absorb).  Each round, propose random edges and
    accept one only while both endpoints have credit; one port per
    sequence receives its "+1" bonus edge at a random round, which is
    what makes the question non-trivial.

    Parameters
    ----------
    fill:
        Target fraction of the per-round degree budget to use (higher =
        more adversarial).
    """
    rng = make_rng(seed)
    m = num_ports
    flows: List[Flow] = []
    # deg[side][port][round]
    deg_in = np.zeros((m, num_rounds), dtype=np.int64)
    deg_out = np.zeros((m, num_rounds), dtype=np.int64)

    def credit(deg_row: np.ndarray, t: int) -> int:
        """Max extra degree port may take at round t without violating
        any interval ending at t (suffix-max of running excess)."""
        run = 0.0
        worst = 0.0
        for i in range(t - 1, -1, -1):
            run += deg_row[i] - 1.0
            worst = max(worst, run)
        return int(1 + 1 - worst - deg_row[t])  # bound |I|+1 => excess <= 1

    for t in range(num_rounds):
        attempts = int(m * fill) + 1
        for _ in range(attempts):
            u = int(rng.integers(0, m))
            v = int(rng.integers(0, m))
            if credit(deg_in[u], t) >= 1 and credit(deg_out[v], t) >= 1:
                deg_in[u, t] += 1
                deg_out[v, t] += 1
                flows.append(Flow(u, v, 1, t))

    instance = Instance.create(Switch.create(m), flows)
    verified = _interval_degree_ok(deg_in) and _interval_degree_ok(deg_out)
    return DegreeBoundedSequence(instance, num_rounds, verified)


def probe_open_problem(
    num_ports: int = 4,
    num_rounds: int = 6,
    trials: int = 10,
    seed: int = 0,
    exact_flow_limit: int = 14,
) -> Tuple[int, List[int]]:
    """Measure optimal unaugmented max response over random sequences.

    Returns ``(worst, values)`` — the largest optimal response time seen
    and the per-trial values.  Uses the exact backtracking solver when
    the instance is small enough, else the LP lower bound (which still
    refutes constants if it grows).
    """
    values: List[int] = []
    for trial in range(trials):
        seq = random_degree_bounded_sequence(
            num_ports, num_rounds, seed=seed + trial
        )
        if not seq.verified:  # pragma: no cover - generator guarantees
            continue
        inst = seq.instance
        if inst.num_flows == 0:
            values.append(0)
            continue
        opt = _optimal_unaugmented_response(inst, exact_flow_limit)
        values.append(opt)
    return (max(values) if values else 0), values


def _optimal_unaugmented_response(
    instance: Instance, exact_flow_limit: int
) -> int:
    if instance.num_flows <= exact_flow_limit:
        rho = 1
        while True:
            sched = exact_time_constrained_schedule(
                from_response_bound(instance, rho)
            )
            if sched is not None:
                return rho
            rho += 1
    return mrt_lower_bound(instance)
