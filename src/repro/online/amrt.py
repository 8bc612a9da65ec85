"""The online AMRT algorithm (Lemma 5.3).

Batching with a monotonically growing guess ρ of the optimal maximum
response time:

* at each batch boundary, collect the flows released since the previous
  boundary;
* ask the *offline* Theorem 3 machinery whether the batch can be
  scheduled with maximum response ρ starting now (LP feasibility with
  active windows ``[t, t + ρ)``);
* if yes, commit the rounded offline schedule; if no, increase ρ by one
  and retry at the next boundary (the pending batch carries over).

Lemma 5.3: the result has maximum response time at most **2×** the
optimal offline value, and because at most two batches ever overlap
(Figure 5), per-port usage stays within ``2 (c_p + 2 d_max − 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.instance import Instance
from repro.core.metrics import ScheduleMetrics
from repro.core.schedule import Schedule
from repro.mrt.rounding import round_time_constrained
from repro.mrt.time_constrained import TimeConstrainedInstance
from repro.utils.timing import measure


@dataclass(frozen=True)
class AMRTResult:
    """Outcome of :func:`run_amrt`.

    Attributes
    ----------
    schedule:
        Complete schedule (valid under the doubled augmented capacity).
    metrics:
        Response summary of the schedule.
    final_rho:
        The guess ρ at termination (never exceeds OPT + initial slack
        by more than the increments needed, per Lemma 5.3's analysis).
    max_port_usage:
        Largest per-(port, round) load over capacity ``c_p`` observed —
        Lemma 5.3 bounds loads by ``2 (c_p + 2 d_max − 1)``.
    batches:
        Number of committed batches.
    """

    schedule: Schedule
    metrics: ScheduleMetrics
    final_rho: int
    max_port_usage: int
    batches: int


def run_amrt(
    instance: Instance,
    initial_rho: int = 1,
    max_rho: int | None = None,
) -> AMRTResult:
    """Run the AMRT online batching algorithm over ``instance``.

    The simulation is **event-driven**: nothing happens between batch
    boundaries except arrivals accumulating, so the loop jumps from
    boundary to boundary instead of walking every round (the seed's
    round-by-round walk made sparse instances O(horizon) regardless of
    batch count).  Behavior — committed batches, ρ increments, and the
    divergence guards — is identical to the round-by-round walk.  Each
    offline feasibility attempt records an ``amrt_batch`` phase, and its
    LP solves record ``rounding_lp`` phases.

    Parameters
    ----------
    instance:
        The workload (flows revealed at their release rounds).
    initial_rho:
        Starting guess (paper: starts small and increments by one).
    max_rho:
        Safety cap on the guess (default ``horizon_bound()``).

    Returns
    -------
    AMRTResult
    """
    n = instance.num_flows
    if n == 0:
        empty = Schedule(instance, np.zeros(0, dtype=np.int64))
        return AMRTResult(empty, ScheduleMetrics.of(empty), initial_rho, 0, 0)
    if max_rho is None:
        max_rho = instance.horizon_bound()

    # Arrivals sorted by (release, fid) — the order the seed's per-round
    # walk appended them to `pending`.
    releases = instance.releases()
    arrival_order = np.argsort(releases, kind="stable")
    arrival_releases = releases[arrival_order].tolist()
    arrival_fids = arrival_order.tolist()
    next_arrival = 0

    assignment = np.full(n, -1, dtype=np.int64)
    rho = int(initial_rho)
    pending: List[int] = []  # fids awaiting a feasible batch
    scheduled = 0
    batches = 0
    guard_t = instance.horizon_bound() * 4

    boundary = 0
    last_boundary = -1  # so an immediately-violating ρ reports t=0
    while scheduled < n:
        # The seed checked its guards at the top of every round; the first
        # violating round is the one after the offending boundary (for the
        # ρ cap) or ``guard_t + 1`` (for the time cap).
        if rho > max_rho:
            raise RuntimeError(
                f"AMRT failed to converge (t={last_boundary + 1}, "
                f"rho={rho}); max_rho too small?"
            )
        if boundary > guard_t:
            raise RuntimeError(
                f"AMRT failed to converge (t={guard_t + 1}, rho={rho}); "
                "max_rho too small?"
            )
        while (
            next_arrival < n and arrival_releases[next_arrival] <= boundary
        ):
            pending.append(arrival_fids[next_arrival])
            next_arrival += 1
        if pending:
            with measure("amrt_batch"):
                batch_sched = _try_schedule_batch(
                    instance, pending, boundary, rho
                )
            if batch_sched is not None:
                for fid, round_ in batch_sched.items():
                    assignment[fid] = round_
                scheduled += len(pending)
                pending = []
                batches += 1
            else:
                rho += 1
        last_boundary = boundary
        boundary += rho

    schedule = Schedule(instance, assignment)
    # The per-batch schedules use <= c_p + 2 d_max - 1 per port and at
    # most two batch windows overlap (Figure 5), so loads stay within
    # 2 (c_p + 2 d_max - 1); `max_port_usage` lets callers check.
    return AMRTResult(
        schedule,
        ScheduleMetrics.of(schedule),
        final_rho=rho,
        max_port_usage=schedule.max_augmentation(),
        batches=batches,
    )


def _schedule_batch_instance(
    sub: Instance, start: int, rho: int
) -> "np.ndarray | None":
    """Offline subroutine of Lemma 5.3, shared by both entry points.

    Checks whether ``sub`` (one pending batch, *with its original
    release times*), can be scheduled with maximum response ρ (the
    offline FS-MRT feasibility question); if yes, the Theorem 3 rounded
    schedule — which uses at most ``c_p + 2 d_max − 1`` per port — is
    time-shifted so the batch starts in round ``start`` ("schedule them
    according to the offline algorithm starting in round t").  Returns
    the per-sub-fid round array, or ``None`` when the LP is infeasible
    for this ρ (caller bumps ρ).
    """
    active = tuple(
        tuple(range(f.release, f.release + rho)) for f in sub.flows
    )
    tci = TimeConstrainedInstance(sub, active)
    result = round_time_constrained(tci)
    if not result.feasible or result.schedule is None:
        return None
    # Uniform shift preserves per-round loads; the earliest release in
    # the batch lands on `start`, so all rounds are >= start > releases'
    # window and the shifted schedule occupies < 2 rho rounds.
    shift = start - min(f.release for f in sub.flows)
    return result.schedule.assignment + shift


def _try_schedule_batch(
    instance: Instance, fids: List[int], start: int, rho: int
) -> Dict[int, int] | None:
    """:func:`_schedule_batch_instance` keyed back to ``instance`` fids."""
    sub = instance.restricted_to(fids)
    rounds = _schedule_batch_instance(sub, start, rho)
    if rounds is None:
        return None
    return {fids[i]: int(rounds[i]) for i in range(sub.num_flows)}


# ---------------------------------------------------------------------------
# Streaming entry point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AMRTStreamResult:
    """Outcome of :func:`run_amrt_stream` (streamed aggregates only).

    Attributes mirror :class:`AMRTResult` minus the full schedule —
    response metrics are folded online per committed batch, so memory
    stays O(pending batch + the ≤ 2ρ-round load window) regardless of
    horizon.  ``max_augmentation`` inside ``metrics`` is the same
    quantity :meth:`~repro.core.schedule.Schedule.max_augmentation`
    reports: the largest per-(port, round) load excess over capacity.
    """

    metrics: ScheduleMetrics
    final_rho: int
    max_port_usage: int
    batches: int
    rounds: int
    arrivals: int


def run_amrt_stream(
    stream,
    arrival_rounds: int | None = None,
    initial_rho: int = 1,
    max_rho: int | None = None,
) -> AMRTStreamResult:
    """Run AMRT over an arrival stream (Lemma 5.3, unbounded horizons).

    The streaming sibling of :func:`run_amrt`: arrival batches are
    consumed lazily up to each batch boundary, the offline subroutine
    runs on a *sub-instance built from only the pending flows*, and the
    committed schedule is folded into running response/load aggregates —
    nothing proportional to the horizon or the total flow count is
    retained.  On the same arrivals, the committed batches, ρ
    increments, and per-flow rounds are identical to :func:`run_amrt`
    on the materialized instance.

    Parameters
    ----------
    stream:
        Iterable of per-round ``(srcs, dsts, demands)`` batches with a
        ``.switch`` attribute (e.g. :class:`repro.scenarios.
        ArrivalStream`).
    arrival_rounds:
        Arrival rounds to consume (defaults to the stream's own bound;
        required for unbounded streams).
    initial_rho / max_rho:
        As in :func:`run_amrt`; ``max_rho`` defaults to a dynamic cap of
        ``arrival_rounds + arrivals-so-far + 1`` (the streaming
        analogue of ``horizon_bound()``).
    """
    from repro.core.flow import Flow
    from repro.scenarios.stream import _check_batch

    switch = stream.switch
    limit = arrival_rounds
    if limit is None:
        limit = getattr(stream, "rounds", None)
    if limit is None:
        raise ValueError(
            "unbounded stream: pass arrival_rounds= to run_amrt_stream"
        )

    it = iter(stream)
    next_round = 0
    exhausted = limit == 0
    pending: List[Flow] = []
    arrived = 0

    def consume_until(boundary: int) -> None:
        """Pull arrival rounds ``<= boundary`` into ``pending``."""
        nonlocal next_round, exhausted, arrived
        while not exhausted and next_round <= boundary:
            try:
                batch = next(it)
            except StopIteration:
                exhausted = True
                return
            srcs, dsts, demands = _check_batch(batch, next_round)
            for i in range(len(srcs)):
                pending.append(
                    Flow(int(srcs[i]), int(dsts[i]), int(demands[i]),
                         next_round)
                )
            arrived += len(srcs)
            next_round += 1
            if next_round >= limit:
                exhausted = True

    rho = int(initial_rho)
    boundary = 0
    batches = 0
    total_resp = 0
    max_resp = 0
    makespan = 0
    # Load window: round -> (in_loads, out_loads); rounds below the next
    # boundary can never receive more load (future batches shift to
    # start at their boundary), so they finalize into `max_excess`.
    loads: Dict[int, tuple] = {}
    max_excess = 0

    def finalize_loads(below: int) -> None:
        nonlocal max_excess
        for r in [r for r in loads if r < below]:
            in_l, out_l = loads.pop(r)
            excess = max(
                int((in_l - switch.input_capacities).max(initial=0)),
                int((out_l - switch.output_capacities).max(initial=0)),
            )
            if excess > max_excess:
                max_excess = excess

    while True:
        consume_until(boundary)
        if exhausted and not pending:
            break
        cap = max_rho if max_rho is not None else limit + arrived + 1
        if rho > cap:
            raise RuntimeError(
                f"AMRT failed to converge (t={boundary}, rho={rho}); "
                "max_rho too small?"
            )
        if boundary > 4 * (limit + arrived + 1):
            raise RuntimeError(
                f"AMRT failed to converge (t={boundary}, rho={rho}); "
                "max_rho too small?"
            )
        if pending:
            sub = Instance.create(switch, pending)
            with measure("amrt_batch"):
                rounds_assigned = _schedule_batch_instance(
                    sub, boundary, rho
                )
            if rounds_assigned is not None:
                releases = sub.releases()
                resp = (rounds_assigned + 1) - releases
                total_resp += int(resp.sum())
                peak = int(resp.max())
                if peak > max_resp:
                    max_resp = peak
                end = int(rounds_assigned.max()) + 1
                if end > makespan:
                    makespan = end
                demands = sub.demands()
                srcs, dsts = sub.srcs(), sub.dsts()
                order = np.argsort(rounds_assigned, kind="stable")
                sorted_rounds = rounds_assigned[order]
                uniq, starts = np.unique(sorted_rounds, return_index=True)
                ends = np.append(starts[1:], sorted_rounds.size)
                for r, lo, hi in zip(
                    uniq.tolist(), starts.tolist(), ends.tolist()
                ):
                    entry = loads.get(r)
                    if entry is None:
                        entry = loads[r] = (
                            np.zeros(switch.num_inputs, dtype=np.int64),
                            np.zeros(switch.num_outputs, dtype=np.int64),
                        )
                    idx = order[lo:hi]
                    np.add.at(entry[0], srcs[idx], demands[idx])
                    np.add.at(entry[1], dsts[idx], demands[idx])
                pending = []
                batches += 1
            else:
                rho += 1
        boundary += rho
        finalize_loads(boundary)

    finalize_loads(makespan + 1)
    metrics = ScheduleMetrics(
        num_flows=arrived,
        total_response=total_resp,
        average_response=(total_resp / arrived) if arrived else 0.0,
        max_response=max_resp,
        makespan=makespan,
        max_augmentation=max_excess,
    )
    return AMRTStreamResult(
        metrics=metrics,
        final_rho=rho,
        max_port_usage=max_excess,
        batches=batches,
        rounds=boundary,
        arrivals=arrived,
    )
