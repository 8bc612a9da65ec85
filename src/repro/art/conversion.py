"""Theorem 1: converting a pseudo-schedule into a valid schedule.

The pseudo-schedule may overload ports transiently; Theorem 1 repairs it
with windowed Birkhoff–von-Neumann decomposition:

1. divide the timeline into consecutive windows of length ``h``
   (the paper uses ``h = ceil(c' log n / c)``);
2. for each window, take the flows the pseudo-schedule assigned inside
   it and form the bipartite multigraph of their port pairs;
3. replicate every port ``p`` into ``c_p`` copies with round-robin edge
   placement (the b-matching → matching transformation), so the replica
   graph has max degree ``Δ_j``;
4. König-edge-color the replica graph into ``Δ_j`` matchings and emit
   them into the ``h`` rounds of the **next** window, ``ceil(Δ_j / h)``
   classes per round.

Each emitted round carries at most ``ceil(Δ_j / h)`` edges per port
replica, i.e. per-port load ``<= ceil(Δ_j / h) * c_p`` — a capacity
blowup factor of ``1 + c`` whenever ``Δ_j <= (1 + c) h``, which Lemma 3.3
guarantees for ``h = Θ(log n / c)``.  Every flow is delayed by less than
``2 h`` rounds past its pseudo-round, giving the
``(1 + O(log n)/c)``-approximation of Theorem 1.  Release times are
respected automatically: emission happens strictly after the
pseudo-round, which is itself ``>= r_e``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.art.pseudo_schedule import PseudoSchedule
from repro.core.schedule import Schedule
from repro.matching.b_matching import project_coloring, replicate_ports
from repro.matching.bipartite import BipartiteMultigraph
from repro.matching.bvn import decompose_into_matchings
from repro.utils.timing import measure
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class ConversionResult:
    """Output of :func:`pseudo_to_schedule`.

    Attributes
    ----------
    schedule:
        The valid (augmented-capacity) schedule.
    window:
        The window length ``h`` used.
    capacity_factor:
        The smallest integer ``k`` such that the schedule fits in
        capacities ``k * c_p`` — the achieved blowup (Theorem 1 predicts
        ``1 + c``).
    max_delta:
        Largest replica-graph degree over all windows.
    extra_delay:
        Max increase in any flow's completion round vs the
        pseudo-schedule (bounded by ``2 h - 1`` plus queueing within the
        window emission).
    """

    schedule: Schedule
    window: int
    capacity_factor: int
    max_delta: int
    extra_delay: int


def default_window(num_flows: int, c: int) -> int:
    """The ``h = ceil(log2(n) / c)`` default window (c' ≈ 1)."""
    if c < 1:
        raise ValueError(f"c must be a positive integer, got {c}")
    if num_flows <= 1:
        return 1
    return max(1, math.ceil(math.log2(num_flows) / c))


def pseudo_to_schedule(
    pseudo: PseudoSchedule,
    c: int = 1,
    window: Optional[int] = None,
) -> ConversionResult:
    """Apply the Theorem 1 conversion with augmentation parameter ``c``.

    Parameters
    ----------
    pseudo:
        Pseudo-schedule from :func:`repro.art.iterative_rounding`.
    c:
        The capacity-augmentation integer of Theorem 1 (target blowup
        ``1 + c``); used only to derive the default window length.
    window:
        Override the window length ``h``.

    Returns
    -------
    ConversionResult
    """
    inst = pseudo.instance
    n = inst.num_flows
    if n == 0:
        return ConversionResult(
            Schedule(inst, np.zeros(0, dtype=np.int64)), 1, 1, 0, 0
        )
    if window is None:
        h = default_window(n, c)
    else:
        h = check_positive_int(window, "window")

    # Bucket flows by pseudo-window (vectorized: one stable sort, split at
    # window boundaries; fids stay ascending within a window).
    pseudo_assignment = np.asarray(pseudo.assignment, dtype=np.int64)
    window_of = pseudo_assignment // h
    order = np.argsort(window_of, kind="stable")
    uniq_windows, starts = np.unique(window_of[order], return_index=True)
    ends = np.append(starts[1:], n)

    switch = inst.switch
    srcs, dsts = inst.srcs(), inst.dsts()
    assignment = np.full(n, -1, dtype=np.int64)
    max_delta = 0
    for w_idx, s, e in zip(
        uniq_windows.tolist(), starts.tolist(), ends.tolist()
    ):
        fids = order[s:e]
        graph = BipartiteMultigraph(switch.num_inputs, switch.num_outputs)
        graph.add_edges(srcs[fids], dsts[fids], fids)
        replicated, edge_map = replicate_ports(
            graph, switch.input_capacities, switch.output_capacities
        )
        with measure("coloring"):
            replica_classes = decompose_into_matchings(replicated)
        classes = project_coloring(edge_map, replica_classes)
        delta = len(classes)
        max_delta = max(max_delta, delta)
        # Emit ceil(delta / h) classes into each round of window w_idx+1.
        per_round = math.ceil(delta / h) if delta else 0
        base = (w_idx + 1) * h
        for k, cls in enumerate(classes):
            assignment[fids[np.asarray(cls, dtype=np.int64)]] = base + (
                k // per_round
            )

    schedule = Schedule(inst, assignment)
    capacity_factor = _achieved_factor(schedule)
    extra_delay = int((assignment - pseudo_assignment).max())
    return ConversionResult(schedule, h, capacity_factor, max_delta, extra_delay)


def _achieved_factor(schedule: Schedule) -> int:
    """Smallest integer k with all loads <= k * c_p."""
    in_loads, out_loads = schedule.port_round_loads()
    switch = schedule.instance.switch
    k_in = np.ceil(
        in_loads / switch.input_capacities[:, None]
    ).max(initial=1.0)
    k_out = np.ceil(
        out_loads / switch.output_capacities[:, None]
    ).max(initial=1.0)
    return int(max(k_in, k_out, 1.0))
